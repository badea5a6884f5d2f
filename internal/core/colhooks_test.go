package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"qpi/internal/data"
	"qpi/internal/exec"
	"qpi/internal/expr"
	"qpi/internal/obs"
	"qpi/internal/storage"
)

// Tests for the span-at-a-time estimator attachment — what every plan
// runs. The headline contract is stronger than convergence: every float
// accumulation happens in the order the per-tuple reference
// (reference_test.go) over the same batches would produce, so the
// estimator state must be BIT-IDENTICAL to that reference's at every
// publish and at the end — asserted here with ==, not a tolerance. The
// hash-chain shapes are the ones the paper's §4.1.4 evaluation exercises:
// Figure 3's binary joins, Figure 5's same-attribute chains, Figure 6's
// Case 1/Case 2 different-attribute chains; the sort-merge, nested-loops
// and sort-aggregation shapes ride a sort's input pass and a nested-loops
// join's inner materialization instead.

// chainJoins collects a probe-linked hash-join chain top-down.
func chainJoins(top *exec.HashJoin) []*exec.HashJoin {
	var joins []*exec.HashJoin
	cur := top
	for {
		joins = append(joins, cur)
		next, ok := cur.Probe().(*exec.HashJoin)
		if !ok {
			break
		}
		cur = next
	}
	return joins
}

// fig3Plan is the Figure 3 shape: one binary join on a shared domain.
func fig3Plan(seed int64) *exec.HashJoin {
	rng := rand.New(rand.NewSource(seed))
	a := table("a", []string{"k"}, randCol(rng, 300, 20))
	b := table("b", []string{"k"}, randCol(rng, 400, 20))
	return exec.NewHashJoinOn(exec.NewScan(a, ""), exec.NewScan(b, ""), "a", "k", "b", "k")
}

// fig5Plan is the Figure 5 shape: A ⋈x (B ⋈x C), same attribute at both
// levels.
func fig5Plan(seed int64) *exec.HashJoin {
	rng := rand.New(rand.NewSource(seed))
	a := table("a", []string{"x"}, randCol(rng, 100, 10))
	b := table("b", []string{"x"}, randCol(rng, 120, 10))
	c := table("c", []string{"x"}, randCol(rng, 150, 10))
	lower := exec.NewHashJoinOn(exec.NewScan(b, ""), exec.NewScan(c, ""), "b", "x", "c", "x")
	return exec.NewHashJoin(exec.NewScan(a, ""), lower,
		0, lower.Schema().MustResolve("c", "x"))
}

// fig6Plan builds the Figure 6 shapes: A ⋈y (B ⋈x C) with the upper key
// from the lower probe relation (Case 1) or the lower build relation
// (Case 2, the derived-histogram path).
func fig6Plan(seed int64, case2 bool) *exec.HashJoin {
	rng := rand.New(rand.NewSource(seed))
	a := table("a", []string{"y"}, randCol(rng, 90, 8))
	var upperKeyTable string
	var lower *exec.HashJoin
	if case2 {
		b := table("b", []string{"x", "y"}, randCol(rng, 110, 12), randCol(rng, 110, 8))
		c := table("c", []string{"x"}, randCol(rng, 130, 12))
		lower = exec.NewHashJoinOn(exec.NewScan(b, ""), exec.NewScan(c, ""), "b", "x", "c", "x")
		upperKeyTable = "b"
	} else {
		b := table("b", []string{"x"}, randCol(rng, 110, 12))
		c := table("c", []string{"x", "y"}, randCol(rng, 130, 12), randCol(rng, 130, 8))
		lower = exec.NewHashJoinOn(exec.NewScan(b, ""), exec.NewScan(c, ""), "b", "x", "c", "x")
		upperKeyTable = "c"
	}
	return exec.NewHashJoin(exec.NewScan(a, ""), lower,
		0, lower.Schema().MustResolve(upperKeyTable, "y"))
}

// chain3Plan is three joins keyed on three different columns of the
// bottom relation: A ⋈x (B ⋈y (C ⋈z D)), the shape of skew_pipeline's
// main pipeline and the lane kernel's multi-lane case.
func chain3Plan(seed int64) *exec.HashJoin {
	rng := rand.New(rand.NewSource(seed))
	a := table("a", []string{"x"}, randCol(rng, 27, 9))
	b := table("b", []string{"y"}, randCol(rng, 21, 7))
	c := table("c", []string{"z"}, randCol(rng, 33, 11))
	d := table("d", []string{"x", "y", "z"}, randCol(rng, 1300, 9), randCol(rng, 1300, 7), randCol(rng, 1300, 11))
	low := exec.NewHashJoinOn(exec.NewScan(c, ""), exec.NewScan(d, ""), "c", "z", "d", "z")
	mid := exec.NewHashJoin(exec.NewScan(b, ""), low, 0, low.Schema().MustResolve("d", "y"))
	return exec.NewHashJoin(exec.NewScan(a, ""), mid, 0, mid.Schema().MustResolve("d", "x"))
}

// drainColPlan drains a plan and returns the row count.
func drainColPlan(t *testing.T, top exec.Operator) int64 {
	t.Helper()
	if err := top.Open(); err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Drain(top)
	if err != nil {
		t.Fatal(err)
	}
	if err := top.Close(); err != nil {
		t.Fatal(err)
	}
	return int64(len(rows))
}

// requireChainExact checks the converged estimates and published Stats of
// every join of the chain against the true cardinalities.
func requireChainExact(t *testing.T, pe *PipelineEstimator) {
	t.Helper()
	if !pe.Converged() {
		t.Fatal("estimator did not converge")
	}
	for k, l := range pe.links {
		j := l.Join
		truth := float64(j.Stats().Emitted.Load())
		if got := pe.Estimate(k); math.Abs(got-truth) > 1e-6 {
			t.Errorf("level %d: converged estimate %g != true cardinality %g", k, got, truth)
		}
		if j.Stats().Source() != "once-exact" {
			t.Errorf("level %d: est source = %q", k, j.Stats().Source())
		}
		if math.Abs(j.Stats().Estimate()-truth) > 1e-6 {
			t.Errorf("level %d: stats estimate %g != %g", k, j.Stats().Estimate(), truth)
		}
	}
}

func TestColChainsExactOnPaperShapes(t *testing.T) {
	shapes := []struct {
		name string
		mk   func() *exec.HashJoin
	}{
		{"fig3-binary", func() *exec.HashJoin { return fig3Plan(40) }},
		{"fig5-same-attr", func() *exec.HashJoin { return fig5Plan(41) }},
		{"fig6-case1", func() *exec.HashJoin { return fig6Plan(42, false) }},
		{"fig6-case2", func() *exec.HashJoin { return fig6Plan(43, true) }},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			top := sh.mk()
			att := Attach(top)
			pe := att.ChainOf[top]
			if pe == nil {
				t.Fatal("no chain estimator attached")
			}
			drainColPlan(t, top)
			requireChainExact(t, pe)
		})
	}
}

// bitShape is one plan TestColumnarBitIdenticalToTuple runs twice: with
// the span observers Attach installs, and with perRow rewiring them into
// replays of the same batches through the per-tuple reference.
type bitShape struct {
	root exec.Operator
	// probe is the hook the estimators' probe side rides; the state is
	// sampled after every batch it sees.
	probe *func(*data.ColBatch)
	// perRow rewires the attachment's span observers into the reference.
	perRow func(att *Attachment)
	// estimators is how many estimators Attach must install.
	estimators int
}

// chainPerRow feeds every chain of att through the reference: each link's
// build pass and the bottom stream a tuple at a time.
func chainPerRow(att *Attachment) {
	for _, pe := range att.Chains {
		pe := pe
		for j, l := range pe.links {
			j := j
			build := replayRows(func(t data.Tuple) { pe.observeBuild(j, t) })
			switch o := l.Join.(type) {
			case *exec.HashJoin:
				o.OnBuildCol = build
			case *exec.MergeJoin:
				o.Left().(*exec.Sort).OnInputCol = build
			case *exec.NestedLoopsJoin:
				o.OnInnerCol = build
			}
		}
		probe := replayRows(pe.ObserveProbe)
		switch o := pe.links[pe.m-1].Join.(type) {
		case *exec.HashJoin:
			o.OnProbeCol = probe
		case *exec.MergeJoin:
			o.Right().(*exec.Sort).OnInputCol = probe
		case *exec.NestedLoopsJoin:
			o.Outer().(*exec.Sort).OnInputCol = probe
		}
	}
}

// hashShape is a hash-join chain under a hash aggregation grouping on its
// first and last columns (the tracker estimator).
func hashShape(top *exec.HashJoin) bitShape {
	joins := chainJoins(top)
	bottom := joins[len(joins)-1]
	agg := exec.NewHashAgg(top, []int{0, top.Schema().Len() - 1},
		[]exec.AggSpec{{Func: exec.CountStar, Name: "c"}})
	return bitShape{root: agg, probe: &bottom.OnProbeCol, perRow: chainPerRow, estimators: 2}
}

// nullTable builds an int table of n rows over [1, domain] with about one
// NULL in nullEvery values.
func nullTable(rng *rand.Rand, name string, colNames []string, n, domain, nullEvery int) *storage.Table {
	cols := make([]data.Column, len(colNames))
	for i, c := range colNames {
		cols[i] = data.Column{Table: name, Name: c, Kind: data.KindInt}
	}
	tb := storage.NewTable(name, data.NewSchema(cols...))
	for r := 0; r < n; r++ {
		row := make(data.Tuple, len(cols))
		for c := range row {
			if row[c] = data.Int(int64(rng.Intn(domain) + 1)); rng.Intn(nullEvery) == 0 {
				row[c] = data.Null()
			}
		}
		tb.MustAppend(row)
	}
	return tb
}

// mergeChainShape is A ⋈x (B ⋈x C) as sort-merge joins: the build
// histograms fill during the left sorts' input passes and C's sort input
// pass is the bottom stream.
func mergeChainShape(seed int64) bitShape {
	rng := rand.New(rand.NewSource(seed))
	a := nullTable(rng, "a", []string{"x"}, 90, 12, 10)
	b := nullTable(rng, "b", []string{"x"}, 110, 12, 10)
	c := nullTable(rng, "c", []string{"x"}, 1300, 12, 10)
	lower, _, bottom := exec.NewSortMergeJoin(exec.NewScan(b, ""), exec.NewScan(c, ""), 0, 0)
	top := exec.NewMergeJoin(exec.NewSort(exec.NewScan(a, ""), 0), lower, 0, 1)
	return bitShape{root: top, probe: &bottom.OnInputCol, perRow: chainPerRow, estimators: 1}
}

// indexedNLShape is an indexed nested-loops join over a sorted outer: the
// inner materialization builds the histogram, the outer sort's input pass
// probes it.
func indexedNLShape(seed int64) bitShape {
	rng := rand.New(rand.NewSource(seed))
	outer := exec.NewSort(exec.NewScan(nullTable(rng, "o", []string{"k"}, 1300, 20, 10), ""), 0)
	inner := exec.NewScan(nullTable(rng, "i", []string{"k"}, 150, 20, 10), "")
	j := exec.NewIndexedNLJoin(outer, inner, 0, 0)
	return bitShape{root: j, probe: &outer.OnInputCol, perRow: chainPerRow, estimators: 1}
}

// thetaNLShape is outer.k < inner.k over a sorted outer (the inequality
// estimator).
func thetaNLShape(seed int64) bitShape {
	rng := rand.New(rand.NewSource(seed))
	outer := exec.NewSort(exec.NewScan(nullTable(rng, "o", []string{"k"}, 1300, 40, 10), ""), 0)
	inner := exec.NewScan(nullTable(rng, "i", []string{"k"}, 150, 40, 10), "")
	j := exec.NewNestedLoopsJoin(outer, inner, expr.Compare(expr.LT, expr.Col{Index: 0}, expr.Col{Index: 1}))
	return bitShape{root: j, probe: &outer.OnInputCol, perRow: func(att *Attachment) {
		e := att.Ineq[0]
		j.OnInnerCol = replayRows(func(t data.Tuple) { e.ObserveInner(t[0]) })
		outer.OnInputCol = replayRows(func(t data.Tuple) { e.ObserveOuter(t[0]) })
	}, estimators: 1}
}

// disjunctNLShape is outer.x = inner.x OR outer.y = inner.y over a sorted
// outer (the disjunctive estimator; its pair histogram keys on composites
// with NULL components).
func disjunctNLShape(seed int64) bitShape {
	rng := rand.New(rand.NewSource(seed))
	outer := exec.NewSort(exec.NewScan(nullTable(rng, "o", []string{"x", "y"}, 1300, 10, 8), ""), 0)
	inner := exec.NewScan(nullTable(rng, "i", []string{"x", "y"}, 150, 10, 8), "")
	j := exec.NewNestedLoopsJoin(outer, inner, expr.OrOf(
		expr.Compare(expr.EQ, expr.Col{Index: 0}, expr.Col{Index: 2}),
		expr.Compare(expr.EQ, expr.Col{Index: 1}, expr.Col{Index: 3}),
	))
	return bitShape{root: j, probe: &outer.OnInputCol, perRow: func(att *Attachment) {
		e := att.Disjunct[0]
		j.OnInnerCol = replayRows(e.observeInnerRow)
		outer.OnInputCol = replayRows(e.observeOuterRow)
	}, estimators: 1}
}

// sortAggShape is a sort aggregation, whose stream estimator hashes the
// group keys of its sort's input.
func sortAggShape(seed int64, groupBy []int) bitShape {
	rng := rand.New(rand.NewSource(seed))
	in := exec.NewScan(nullTable(rng, "t", []string{"g", "h"}, 3000, 40, 12), "")
	agg := exec.NewSortAgg(in, groupBy, []exec.AggSpec{{Func: exec.CountStar, Name: "c"}})
	s := agg.Sorter()
	return bitShape{root: agg, probe: &s.OnInputCol, perRow: func(att *Attachment) {
		e := att.Aggs[agg]
		s.OnInputCol = replayRows(func(t data.Tuple) { e.ObserveInput(exec.GroupKey(t, groupBy)) })
	}, estimators: 1}
}

// case2CompositeShape is A ⋈(y1,y2) (B ⋈x C) with the upper key on B's
// columns: a Case 2 chain folding a composite key with NULL components.
// rowBacked reads every relation through a sort, whose batches carry rows
// instead of lanes.
func case2CompositeShape(seed int64, rowBacked bool) bitShape {
	rng := rand.New(rand.NewSource(seed))
	in := func(tb *storage.Table) exec.Operator {
		var op exec.Operator = exec.NewScan(tb, "")
		if rowBacked {
			op = exec.NewSort(op, 0)
		}
		return op
	}
	a := nullTable(rng, "a", []string{"y1", "y2"}, 90, 4, 9)
	b := nullTable(rng, "b", []string{"x", "y1", "y2"}, 110, 12, 9)
	c := nullTable(rng, "c", []string{"x"}, 1300, 12, 9)
	lower := exec.NewHashJoinMulti(in(b), in(c), []int{0}, []int{0}, exec.InnerJoin)
	return hashShape(exec.NewHashJoinMulti(in(a), lower, []int{0, 1}, []int{1, 2}, exec.InnerJoin))
}

// bitState samples everything the attachment's estimators hold or have
// published: per chain level the estimate, the confidence interval and
// the join's Stats, and each other estimator's estimate and Stats.
func bitState(att *Attachment, root exec.Operator) []float64 {
	var s []float64
	for _, pe := range att.Chains {
		for k, l := range pe.links {
			lo, hi := pe.ConfidenceInterval(k, 0.95)
			s = append(s, pe.Estimate(k), lo, hi, l.Join.Stats().Estimate())
		}
	}
	for _, e := range att.Ineq {
		s = append(s, e.Estimate(), e.join.Stats().Estimate())
	}
	for _, e := range att.Disjunct {
		s = append(s, e.Estimate(), e.join.Stats().Estimate())
	}
	exec.Walk(root, func(op exec.Operator) {
		if e := att.Aggs[op]; e != nil {
			s = append(s, e.Estimate(), op.Stats().Estimate())
		}
	})
	return s
}

// TestColumnarBitIdenticalToTuple: the span-at-a-time attachment — the
// lane kernels where the chain allows it, the per-row loops over the
// lanes of a Case 2 chain, composite or string keys otherwise, the
// inequality, disjunctive and sort-aggregation span observers — must
// leave every estimator in exactly the state (==) the per-tuple reference
// over the same batches leaves it in: the same estimate for every level
// at every publish (the tracer's events), the same estimates, confidence
// intervals and published Stats after every probe batch, and the same
// final state. The reference run rewires the span observers into
// row-by-row replays of each batch (ToTuples), builds and probes alike.
func TestColumnarBitIdenticalToTuple(t *testing.T) {
	shapes := []struct {
		name string
		mk   func() bitShape
	}{
		{"fig3", func() bitShape { return hashShape(fig3Plan(70)) }},
		{"fig5", func() bitShape { return hashShape(fig5Plan(71)) }},
		{"fig6-case1", func() bitShape { return hashShape(fig6Plan(72, false)) }},
		{"fig6-case2", func() bitShape { return hashShape(fig6Plan(73, true)) }},
		{"string-key", func() bitShape { return hashShape(strKeyPlan(74)) }},
		{"chain3", func() bitShape { return hashShape(chain3Plan(75)) }},
		{"sort-merge-chain", func() bitShape { return mergeChainShape(76) }},
		{"indexed-nl", func() bitShape { return indexedNLShape(77) }},
		{"theta-nl", func() bitShape { return thetaNLShape(78) }},
		{"disjunct-nl", func() bitShape { return disjunctNLShape(79) }},
		{"sort-agg", func() bitShape { return sortAggShape(80, []int{0}) }},
		{"sort-agg-composite", func() bitShape { return sortAggShape(81, []int{0, 1}) }},
		{"case2-composite-lanes", func() bitShape { return case2CompositeShape(82, false) }},
		{"case2-composite-rows", func() bitShape { return case2CompositeShape(82, true) }},
	}
	for _, sh := range shapes {
		run := func(perRow bool) (state []float64, events []string) {
			b := sh.mk()
			att := Attach(b.root)
			if n := len(att.Chains) + len(att.Ineq) + len(att.Disjunct) + len(att.Aggs); n != b.estimators {
				t.Fatalf("%s: %d estimators attached, want %d", sh.name, n, b.estimators)
			}
			if perRow {
				b.perRow(att)
			}
			*b.probe = compose(*b.probe, func(*data.ColBatch) { state = append(state, bitState(att, b.root)...) })
			tr := obs.New()
			att.SetTracer(tr)
			rows := drainColPlan(t, b.root)
			for _, pe := range att.Chains {
				requireChainExact(t, pe)
				state = append(state, float64(pe.ProbeTuplesSeen()), float64(pe.HistogramProbes()))
			}
			for _, e := range att.Ineq {
				if n := float64(e.join.Stats().Emitted.Load()); !e.Converged() || math.Abs(e.Estimate()-n) > 1e-6 {
					t.Errorf("%s: inequality estimate %g, true size %g", sh.name, e.Estimate(), n)
				}
			}
			for _, e := range att.Disjunct {
				if n := float64(e.join.Stats().Emitted.Load()); !e.Converged() || math.Abs(e.Estimate()-n) > 1e-6 {
					t.Errorf("%s: disjunctive estimate %g, true size %g", sh.name, e.Estimate(), n)
				}
			}
			state = append(state, float64(rows), float64(att.Recomputes()))
			state = append(state, bitState(att, b.root)...)
			for _, e := range tr.Events() {
				events = append(events, fmt.Sprint(e.Kind, e.Op, e.Estimate, e.From, e.To))
			}
			return state, events
		}
		ref, refEvents := run(true)
		col, colEvents := run(false)
		if len(ref) != len(col) || len(ref) == 0 {
			t.Fatalf("%s: %d state values per row, %d spans", sh.name, len(ref), len(col))
		}
		for i := range ref {
			if ref[i] != col[i] {
				t.Errorf("%s: state[%d] = %v per row, %v spans (must be bit-identical)",
					sh.name, i, ref[i], col[i])
			}
		}
		if !slices.Equal(refEvents, colEvents) || len(refEvents) == 0 {
			t.Errorf("%s: %d published events per row, %d spans, or they differ", sh.name, len(refEvents), len(colEvents))
		}
	}
}

// strKeyTable builds a single string-key-column table over an integer
// domain (same equality classes as randCol, rendered as strings).
func strKeyTable(name string, keys []int64) *storage.Table {
	s := data.NewSchema(data.Column{Table: name, Name: "k", Kind: data.KindString})
	t := storage.NewTable(name, s)
	for _, k := range keys {
		t.MustAppend(data.Tuple{data.Str(fmt.Sprintf("k%03d", k))})
	}
	return t
}

// strKeyPlan is the fig3 binary shape with string join keys: the scatter
// and the span observers must take their generic (non-int-lane) paths and
// still land bit-identical to the per-row reference.
func strKeyPlan(seed int64) *exec.HashJoin {
	rng := rand.New(rand.NewSource(seed))
	a := strKeyTable("a", randCol(rng, 300, 20))
	b := strKeyTable("b", randCol(rng, 400, 20))
	return exec.NewHashJoinOn(exec.NewScan(a, ""), exec.NewScan(b, ""), "a", "k", "b", "k")
}

// TestColSemiJoinTopExact: non-inner top joins root their own chains; the
// span attachment must honor their multiplicity transforms too.
func TestColSemiJoinTopExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := table("a", []string{"k"}, randCol(rng, 200, 15))
	b := table("b", []string{"k"}, randCol(rng, 260, 15))
	j := exec.NewHashJoinMulti(exec.NewScan(a, ""), exec.NewScan(b, ""),
		[]int{0}, []int{0}, exec.SemiJoin)
	pe := Attach(j).ChainOf[j]
	if pe == nil {
		t.Fatal("semi join did not attach an estimator")
	}
	drainColPlan(t, j)
	requireChainExact(t, pe)
}

// TestColAggPushdownExact: GROUP BY over a columnar chain reads the exact
// push-down estimate once the probe pass has ended, before the join emits
// a row.
func TestColAggPushdownExact(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	a := table("a", []string{"k"}, randCol(rng, 300, 25))
	b := table("b", []string{"k"}, randCol(rng, 500, 25))
	j := exec.NewHashJoinOn(exec.NewScan(a, ""), exec.NewScan(b, ""), "a", "k", "b", "k")
	gcol := j.Schema().MustResolve("b", "k")
	agg := exec.NewHashAgg(j, []int{gcol}, []exec.AggSpec{{Func: exec.CountStar, Name: "c"}})
	att := Attach(agg)
	est := att.Aggs[agg]
	if est == nil || est.Source() != "agg-pushdown" {
		t.Fatal("expected pushdown estimator")
	}
	atProbeEnd := math.NaN()
	j.OnProbeEnd = compose0(j.OnProbeEnd, func() { atProbeEnd = est.Estimate() })
	rows := drainColPlan(t, agg)
	if math.Abs(atProbeEnd-float64(rows)) > 1e-6 {
		t.Errorf("pushdown estimate at probe end %g != true group count %d", atProbeEnd, rows)
	}
}

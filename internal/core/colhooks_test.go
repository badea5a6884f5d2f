package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qpi/internal/data"
	"qpi/internal/exec"
	"qpi/internal/obs"
	"qpi/internal/storage"
)

// Tests for the span-at-a-time estimator attachment of hash-join chains
// — what every plan runs. The headline contract is stronger than
// convergence: every float accumulation happens in the order a per-row
// ObserveProbe over the same batches would produce, so the estimator
// state must be BIT-IDENTICAL to that reference's at every publish and at
// the end — asserted here with ==, not a tolerance. The chain shapes are
// the ones the paper's §4.1.4 evaluation exercises: Figure 3's binary
// joins, Figure 5's same-attribute chains, Figure 6's Case 1/Case 2
// different-attribute chains.

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
// every join of the chain under top against the true cardinalities.
func requireChainExact(t *testing.T, pe *PipelineEstimator, top *exec.HashJoin) {
	t.Helper()
	if !pe.Converged() {
		t.Fatal("estimator did not converge")
	}
	for k, j := range chainJoins(top) {
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
			if !pe.ColAttached() {
				t.Fatal("hash chain did not attach span hooks")
			}
			drainColPlan(t, top)
			requireChainExact(t, pe, top)
		})
	}
}

// TestColumnarBitIdenticalToTuple: the span-at-a-time attachment — the
// lane kernel where the chain allows it, the per-row fallback of a Case 2
// chain or string keys otherwise — must leave the estimator in exactly
// the state (==) a per-row ObserveProbe over the same probe batches
// leaves it in: the same estimate for every level at every publish (the
// tracer's refinement events), the same estimates, confidence intervals
// and published Stats after every probe batch, and the same final state.
// The reference run drains through Next, so a hash aggregation's tracker
// must also read the same from group-count spans as from per-row counts.
func TestColumnarBitIdenticalToTuple(t *testing.T) {
	shapes := []func() *exec.HashJoin{
		func() *exec.HashJoin { return fig3Plan(70) },
		func() *exec.HashJoin { return fig5Plan(71) },
		func() *exec.HashJoin { return fig6Plan(72, false) },
		func() *exec.HashJoin { return fig6Plan(73, true) },
		func() *exec.HashJoin { return strKeyPlan(74) },
		func() *exec.HashJoin { return chain3Plan(75) },
	}
	for si, mk := range shapes {
		run := func(perRow bool) (state []float64) {
			top := mk()
			joins := chainJoins(top)
			bottom := joins[len(joins)-1]
			agg := exec.NewHashAgg(top, []int{0, top.Schema().Len() - 1},
				[]exec.AggSpec{{Func: exec.CountStar, Name: "c"}})
			att := Attach(agg)
			pe := att.ChainOf[top]
			if !pe.ColAttached() {
				t.Fatalf("shape %d: the chain did not attach span hooks", si)
			}
			if perRow {
				bottom.OnProbeCol = func(cb *data.ColBatch) {
					rows := cb.MaterializeRows()
					for r, live := 0, cb.Live(); r < live; r++ {
						pe.ObserveProbe(rows[liveRow(cb, r)])
					}
				}
			}
			levels := func() {
				for k, j := range joins {
					lo, hi := pe.ConfidenceInterval(k, 0.95)
					state = append(state, pe.Estimate(k), lo, hi, j.Stats().Estimate())
				}
			}
			bottom.OnProbeCol = compose(bottom.OnProbeCol, func(*data.ColBatch) { levels() })
			tr := obs.New()
			pe.SetTracer(tr)
			var rows int64
			if perRow {
				var err error
				if rows, err = exec.Run(agg); err != nil {
					t.Fatal(err)
				}
			} else {
				rows = drainColPlan(t, agg)
			}
			requireChainExact(t, pe, top)
			for _, e := range tr.Events() {
				if e.Kind == obs.EstimateRefined {
					state = append(state, e.Estimate)
				}
			}
			state = append(state, float64(rows), float64(pe.ProbeTuplesSeen()), float64(pe.Recomputes()), att.Aggs[agg].Estimate())
			levels()
			return state
		}
		ref, col := run(true), run(false)
		if len(ref) != len(col) {
			t.Fatalf("shape %d: %d state values per row, %d spans", si, len(ref), len(col))
		}
		for i := range ref {
			if ref[i] != col[i] {
				t.Errorf("shape %d: state[%d] = %v per row, %v spans (must be bit-identical)",
					si, i, ref[i], col[i])
			}
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
	if pe == nil || !pe.ColAttached() {
		t.Fatal("semi join did not attach span hooks")
	}
	drainColPlan(t, j)
	requireChainExact(t, pe, j)
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
	if !att.ChainOf[j].ColAttached() {
		t.Fatal("chain should attach span hooks")
	}
	atProbeEnd := math.NaN()
	j.OnProbeEnd = compose0(j.OnProbeEnd, func() { atProbeEnd = est.Estimate() })
	rows := drainColPlan(t, agg)
	if math.Abs(atProbeEnd-float64(rows)) > 1e-6 {
		t.Errorf("pushdown estimate at probe end %g != true group count %d", atProbeEnd, rows)
	}
}

package plan

import (
	"testing"

	"qpi/internal/catalog"
	"qpi/internal/data"
	"qpi/internal/exec"
	"qpi/internal/expr"
	"qpi/internal/storage"
)

func uniformTable(name string, rows, domain int) *storage.Table {
	t := storage.NewTable(name, data.NewSchema(
		data.Column{Table: name, Name: "k", Kind: data.KindInt}))
	for i := 0; i < rows; i++ {
		t.MustAppend(data.Tuple{data.Int(int64(i%domain + 1))})
	}
	return t
}

func regCat(tables ...*storage.Table) *catalog.Catalog {
	c := catalog.New()
	for _, t := range tables {
		c.Register(t)
	}
	return c
}

func TestOptimizerSemiAntiOuterEstimates(t *testing.T) {
	ta := uniformTable("a", 1000, 100)
	tb := uniformTable("b", 500, 50) // subset of a's domain
	cat := regCat(ta, tb)

	mk := func(jt exec.JoinType) float64 {
		j := exec.NewHashJoinTyped(exec.NewScan(tb, ""), exec.NewScan(ta, ""), 0, 0, jt)
		EstimateCardinalities(j, cat)
		return j.Stats().Estimate()
	}
	semi := mk(exec.SemiJoin)
	anti := mk(exec.AntiJoin)
	outer := mk(exec.ProbeOuterJoin)
	inner := mk(exec.InnerJoin)

	// Semi + anti partition the probe input.
	if semi+anti != 1000 {
		t.Errorf("semi %g + anti %g != probe 1000", semi, anti)
	}
	// Semi selectivity = d_build/d_probe = 50/100.
	if semi != 500 {
		t.Errorf("semi = %g, want 500", semi)
	}
	// Outer preserves at least the probe side.
	if outer < 1000 || outer < inner {
		t.Errorf("outer = %g (inner %g)", outer, inner)
	}
}

func TestOptimizerSortProjectLimitEstimates(t *testing.T) {
	ta := uniformTable("a", 300, 10)
	cat := regCat(ta)
	sc := exec.NewScan(ta, "")
	s := exec.NewSort(sc, 0)
	p := exec.NewProject(s, []expr.Expr{expr.Col{Index: 0}}, []string{"k"})
	l := exec.NewLimit(p, 5)
	EstimateCardinalities(l, cat)
	if s.Stats().Estimate() != 300 {
		t.Errorf("sort est = %g", s.Stats().Estimate())
	}
	if p.Stats().Estimate() != 300 {
		t.Errorf("project est = %g", p.Stats().Estimate())
	}
	// Limit inherits the child estimate (clamping to n is left to the
	// Total floor logic at runtime).
	if l.Stats().Estimate() != 300 {
		t.Errorf("limit est = %g", l.Stats().Estimate())
	}
}

func TestOptimizerNLJoinEstimates(t *testing.T) {
	ta := uniformTable("a", 200, 20)
	tb := uniformTable("b", 100, 20)
	cat := regCat(ta, tb)

	idx := exec.NewIndexedNLJoin(exec.NewScan(ta, ""), exec.NewScan(tb, ""), 0, 0)
	EstimateCardinalities(idx, cat)
	if got := idx.Stats().Estimate(); got != 200*100/20 {
		t.Errorf("indexed NL est = %g, want 1000", got)
	}

	cross := exec.NewNestedLoopsJoin(exec.NewScan(ta, ""), exec.NewScan(tb, ""), nil)
	EstimateCardinalities(cross, cat)
	if got := cross.Stats().Estimate(); got != 200*100 {
		t.Errorf("cross est = %g, want 20000", got)
	}

	theta := exec.NewNestedLoopsJoin(exec.NewScan(ta, ""), exec.NewScan(tb, ""),
		expr.Compare(expr.LT, expr.Col{Index: 0}, expr.Col{Index: 1}))
	EstimateCardinalities(theta, cat)
	if got := theta.Stats().Estimate(); got != 200*100*defaultSelectivity {
		t.Errorf("theta est = %g", got)
	}
}

func TestOptimizerSortAggEstimate(t *testing.T) {
	ta := uniformTable("a", 400, 25)
	cat := regCat(ta)
	agg := exec.NewSortAgg(exec.NewScan(ta, ""), []int{0},
		[]exec.AggSpec{{Func: exec.CountStar}})
	EstimateCardinalities(agg, cat)
	if got := agg.Stats().Estimate(); got != 25 {
		t.Errorf("sort-agg est = %g, want 25", got)
	}
	if agg.Stats().GroupsHint != 25 {
		t.Errorf("groups hint = %g", agg.Stats().GroupsHint)
	}
}

func TestOptimizerMissingStatsFallsBack(t *testing.T) {
	ta := uniformTable("a", 100, 10)
	tb := uniformTable("b", 100, 10)
	cat := catalog.New()
	cat.RegisterWithoutStats(ta)
	cat.RegisterWithoutStats(tb)
	j := exec.NewHashJoinOn(exec.NewScan(ta, ""), exec.NewScan(tb, ""), "a", "k", "b", "k")
	EstimateCardinalities(j, cat)
	// Without distinct counts both sides fall back to row counts:
	// 100·100/max(100,100) = 100.
	if got := j.Stats().Estimate(); got != 100 {
		t.Errorf("stat-less join est = %g, want 100", got)
	}
}

func TestPipelineStringAndContains(t *testing.T) {
	sc := exec.NewScan(uniformTable("a", 3, 3), "")
	ps := Decompose(sc)
	if !ps[0].Contains(sc) {
		t.Error("Contains failed")
	}
	other := exec.NewScan(uniformTable("b", 3, 3), "")
	if ps[0].Contains(other) {
		t.Error("Contains false positive")
	}
	if ps[0].String() == "" {
		t.Error("empty pipeline render")
	}
}

func TestDecomposeSortAggTree(t *testing.T) {
	sc := exec.NewScan(uniformTable("a", 10, 5), "")
	agg := exec.NewSortAgg(sc, []int{0}, []exec.AggSpec{{Func: exec.CountStar}})
	ps := Decompose(agg)
	// P0: SortAgg; P1: internal Sort; P2: scan.
	if len(ps) != 3 {
		t.Fatalf("pipelines = %d", len(ps))
	}
	if ps[0].Driver() != exec.Operator(agg) {
		t.Error("agg should drive its pipeline")
	}
}

// threeColumns registers t(a, b, c) with 1000, 10 and 50 distinct values.
func threeColumns() (*storage.Table, *catalog.Catalog) {
	t := storage.NewTable("t", data.NewSchema(
		data.Column{Table: "t", Name: "a", Kind: data.KindInt},
		data.Column{Table: "t", Name: "b", Kind: data.KindInt},
		data.Column{Table: "t", Name: "c", Kind: data.KindInt}))
	for i := 0; i < 1000; i++ {
		t.MustAppend(data.Tuple{data.Int(int64(i)), data.Int(int64(i % 10)), data.Int(int64(i % 50))})
	}
	return t, regCat(t)
}

// TestEstimatesFollowPrunedScans: a pruned scan's column statistics are
// keyed by its own columns, so every optimizer belief of a pruned plan is
// the unpruned plan's.
func TestEstimatesFollowPrunedScans(t *testing.T) {
	tb, cat := threeColumns()
	mk := func() exec.Operator {
		sc := exec.NewScan(tb, "")
		f := exec.NewFilter(sc, expr.Compare(expr.EQ, expr.Column(sc.Schema(), "t", "b"), expr.IntLit(3)))
		return exec.NewHashAgg(f, []int{2}, []exec.AggSpec{{Func: exec.CountStar}})
	}
	beliefs := func(root exec.Operator) (out []float64) {
		exec.Walk(root, func(op exec.Operator) {
			out = append(out, op.Stats().Estimate(), op.Stats().GroupsHint)
		})
		return out
	}
	whole, pruned := mk(), mk()
	exec.Prune(pruned)
	EstimateCardinalities(whole, cat)
	EstimateCardinalities(pruned, cat)
	want, got := beliefs(whole), beliefs(pruned)
	if len(got) != len(want) || want[1] != 50 {
		t.Fatalf("beliefs %v (pruned %v), want 50 groups", want, got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("belief %d: %v pruned, %v unpruned", i, got[i], want[i])
		}
	}
}

// TestBuildKeysHint: a hash join records its single build key's distinct
// count and, for an integer key, the catalog's [min, max] of it, whatever
// its build input is. A filter or a join below only narrows what the
// build holds: the distinct count is capped at the build row estimate,
// and the range stays a bound of every key the build can hold, which is
// all the estimators' dense histogram lane needs (a key outside it would
// still be counted, only slower). A composite key has no one column to
// bound, and an un-ANALYZEd column has no statistics: neither gets a hint.
func TestBuildKeysHint(t *testing.T) {
	tb, cat := threeColumns()
	probe := uniformTable("p", 100, 10)
	cat.Register(probe)
	raw := uniformTable("raw", 100, 10)
	cat.RegisterWithoutStats(raw)
	q := uniformTable("q", 100, 20)
	cat.Register(q)
	none := exec.KeyRange{}
	for _, tc := range []struct {
		name  string
		build func() exec.Operator
		keys  []int
		want  float64
		rng   exec.KeyRange
	}{
		{"scan", func() exec.Operator { return exec.NewScan(tb, "") }, []int{1}, 10, exec.KeyRange{Lo: 0, Hi: 9, Known: true}},
		{"pruned scan", func() exec.Operator {
			sc := exec.NewScan(tb, "")
			exec.Prune(exec.NewHashAgg(sc, []int{2}, nil))
			return sc
		}, []int{0}, 50, exec.KeyRange{Lo: 0, Hi: 49, Known: true}},
		// a < 5 keeps 5/999 of 1000 rows: the ten b values cap at 5.005.
		{"filtered scan", func() exec.Operator {
			sc := exec.NewScan(tb, "")
			return exec.NewFilter(sc, expr.Compare(expr.LT, expr.Column(sc.Schema(), "t", "a"), expr.IntLit(5)))
		}, []int{1}, 5000.0 / 999, exec.KeyRange{Lo: 0, Hi: 9, Known: true}},
		// q.k (1..20) joins t.b (0..9): the build key is q's, range and all.
		{"joined build", func() exec.Operator {
			return exec.NewHashJoin(exec.NewScan(q, ""), exec.NewScan(tb, ""), 0, 1)
		}, []int{0}, 20, exec.KeyRange{Lo: 1, Hi: 20, Known: true}},
		{"composite key", func() exec.Operator { return exec.NewScan(tb, "") }, []int{1, 2}, 0, none},
		{"un-ANALYZEd table", func() exec.Operator { return exec.NewScan(raw, "") }, []int{0}, 0, none},
	} {
		probeKeys := make([]int, len(tc.keys))
		j := exec.NewHashJoinMulti(tc.build(), exec.NewScan(probe, ""), tc.keys, probeKeys, exec.InnerJoin)
		EstimateCardinalities(j, cat)
		if got := j.Stats().BuildKeysHint; got != tc.want {
			t.Errorf("%s: BuildKeysHint %v, want %v", tc.name, got, tc.want)
		}
		if got := j.Stats().BuildKeyRange; got != tc.rng {
			t.Errorf("%s: BuildKeyRange %+v, want %+v", tc.name, got, tc.rng)
		}
	}
}

package core

import (
	"math/rand"
	"testing"

	"qpi/internal/data"
	"qpi/internal/exec"
	"qpi/internal/expr"
)

// Exercises for accessor and branch coverage of smaller paths.

func TestDriverFractionVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(400))
	a := table("a", []string{"k"}, randCol(rng, 100, 10))
	b := table("b", []string{"k"}, randCol(rng, 100, 10))

	// Merge join progress.
	mj, _, _ := exec.NewSortMergeJoin(exec.NewScan(a, ""), exec.NewScan(b, ""), 0, 0)
	if f := DriverFraction(mj); f != 0 {
		t.Errorf("merge join initial fraction = %g", f)
	}
	if _, err := exec.Run(mj); err != nil {
		t.Fatal(err)
	}
	if f := DriverFraction(mj); f != 1 {
		t.Errorf("merge join final fraction = %g", f)
	}

	// NL join: outer driver.
	nl := exec.NewIndexedNLJoin(exec.NewScan(a, ""), exec.NewScan(b, ""), 0, 0)
	if f := DriverFraction(nl); f != 0 {
		t.Errorf("nl initial = %g", f)
	}

	// Sort and agg before/after completion.
	sc := exec.NewScan(table("c", []string{"k"}, randCol(rng, 50, 5)), "")
	srt := exec.NewSort(sc, 0)
	srt.Stats().SetEstimate(50, "optimizer")
	if f := DriverFraction(srt); f != 0 {
		t.Errorf("sort initial = %g", f)
	}
	if _, err := exec.Run(srt); err != nil {
		t.Fatal(err)
	}
	if f := DriverFraction(srt); f != 1 {
		t.Errorf("sort final = %g", f)
	}

	agg := exec.NewHashAgg(exec.NewScan(table("d", []string{"k"}, randCol(rng, 50, 5)), ""),
		[]int{0}, []exec.AggSpec{{Func: exec.CountStar}})
	agg.Stats().SetEstimate(5, "optimizer")
	if f := DriverFraction(agg); f != 0 {
		t.Errorf("agg initial = %g", f)
	}
	if _, err := exec.Run(agg); err != nil {
		t.Fatal(err)
	}
	if f := DriverFraction(agg); f != 1 {
		t.Errorf("agg final = %g", f)
	}

	// Project passes through to its child's driver.
	defer data.SetBatchSize(0)
	data.SetBatchSize(1)
	sc2 := exec.NewScan(table("e", []string{"k"}, randCol(rng, 10, 5)), "")
	pr := exec.ProjectColumns(sc2, [2]string{"e", "k"})
	if err := pr.Open(); err != nil {
		t.Fatal(err)
	}
	pr.NextColBatch()
	if f := DriverFraction(pr); f != 0.1 {
		t.Errorf("project driver fraction = %g", f)
	}
}

func TestJoinEstimatorAccessors(t *testing.T) {
	e := NewJoinEstimator(10)
	e.ObserveBuild(data.Int(1))
	if e.BuildHistogram().Count(data.Int(1)) != 1 {
		t.Error("BuildHistogram")
	}
	if e.Converged() {
		t.Error("not converged yet")
	}
	if e.Estimate() != 0 {
		t.Error("estimate before probes should be 0")
	}
	e.ObserveProbe(data.Int(1))
	e.MarkConverged()
	if !e.Converged() {
		t.Error("converged flag")
	}
}

func TestAggEstimatorAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	a := table("a", []string{"k"}, randCol(rng, 3000, 25))
	sc := exec.NewScan(a, "")
	agg := exec.NewHashAgg(sc, []int{0}, []exec.AggSpec{{Func: exec.CountStar}})
	att := Attach(agg)
	est := att.Aggs[agg]
	if est.Tracker() == nil || est.Chooser() != nil || est.OutputHistogram() != nil {
		t.Error("hash agg should be in tracker mode")
	}
	if _, err := exec.Run(agg); err != nil {
		t.Fatal(err)
	}
	if est.Gamma2() < 0 {
		t.Error("γ² negative")
	}
	if est.Source() != "gee" && est.Source() != "mle" {
		t.Errorf("source = %q", est.Source())
	}

	// Push-down mode accessors.
	b := table("b", []string{"k"}, randCol(rng, 500, 25))
	c := table("c", []string{"k"}, randCol(rng, 700, 25))
	j := exec.NewHashJoinOn(exec.NewScan(b, ""), exec.NewScan(c, ""), "b", "k", "c", "k")
	agg2 := exec.NewHashAgg(j, []int{j.Schema().MustResolve("c", "k")},
		[]exec.AggSpec{{Func: exec.CountStar}})
	att2 := Attach(agg2)
	est2 := att2.Aggs[agg2]
	if est2.OutputHistogram() == nil || est2.Tracker() != nil {
		t.Error("agg over join should be in push-down mode")
	}
	if _, err := exec.Run(agg2); err != nil {
		t.Fatal(err)
	}
	if est2.Gamma2() < 0 {
		t.Error("push-down γ² negative")
	}
	if est2.Source() != "agg-pushdown" {
		t.Errorf("source = %q", est2.Source())
	}
}

func TestStreamSizeEstimateVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	a := table("a", []string{"k"}, randCol(rng, 64, 8))
	sc := exec.NewScan(a, "")
	pr := exec.ProjectColumns(sc, [2]string{"a", "k"})
	if got := StreamSizeEstimate(pr); got != 64 {
		t.Errorf("project stream size = %g", got)
	}
	lim := exec.NewLimit(exec.NewScan(a, ""), 5)
	if _, err := exec.Run(lim); err != nil {
		t.Fatal(err)
	}
	if got := StreamSizeEstimate(lim); got != 5 {
		t.Errorf("done limit stream size = %g", got)
	}
	srt := exec.NewSort(exec.NewScan(a, ""), 0)
	srt.Stats().SetEstimate(64, "optimizer")
	if got := StreamSizeEstimate(srt); got != 64 {
		t.Errorf("sort stream size = %g", got)
	}
}

func TestComposeHelpers(t *testing.T) {
	var calls []string
	f1 := func(data.Tuple) { calls = append(calls, "1") }
	f2 := func(data.Tuple) { calls = append(calls, "2") }
	compose(f1, f2)(nil)
	if len(calls) != 2 || calls[0] != "1" {
		t.Errorf("compose order = %v", calls)
	}
	if compose(nil, f1) == nil || compose(f1, nil) == nil {
		t.Error("nil composition")
	}
	n := 0
	g := func() { n++ }
	compose0(g, g)()
	if n != 2 {
		t.Error("compose0")
	}
	if compose0(nil, g) == nil || compose0(g, nil) == nil {
		t.Error("nil compose0")
	}
	var vs []int64
	h := func(v int64) { vs = append(vs, v) }
	compose(h, h)(7)
	if len(vs) != 2 || vs[0] != 7 {
		t.Error("compose over int64")
	}
	if compose(nil, h) == nil || compose(h, nil) == nil {
		t.Error("nil compose over int64")
	}
}

func TestHistogramStringKeysAndMemory(t *testing.T) {
	h := NewFreqHistogram()
	h.Add(data.Str("hello"))
	h.Add(data.Str("hello"))
	h.Add(data.Float(1.5))
	h.Add(data.Int(1))
	if h.Count(data.Str("hello")) != 2 || h.Count(data.Float(1.5)) != 1 {
		t.Error("mixed-kind counts wrong")
	}
	if h.Distinct() != 3 {
		t.Errorf("distinct = %d", h.Distinct())
	}
	if h.MemoryUsed() <= 3*8 {
		t.Error("string bytes not accounted")
	}
	if h.MemoryAllocated() <= h.MemoryUsed() {
		t.Error("allocated should exceed used")
	}
	// Each visits both maps.
	seen := 0
	h.Each(func(data.Value, int64) bool { seen++; return true })
	if seen != 3 {
		t.Errorf("Each visited %d", seen)
	}
	prof := h.FrequencyOfFrequencies()
	if prof[1] != 2 || prof[2] != 1 {
		t.Errorf("profile = %v", prof)
	}
}

func TestBucketHistogramMixedKinds(t *testing.T) {
	h := NewBucketHistogram(64)
	h.Add(data.Str("x"))
	h.Add(data.Float(2.5))
	h.Add(data.Int(3))
	if h.Total() != 3 {
		t.Errorf("total = %d", h.Total())
	}
	if h.Count(data.Str("x")) < 1 {
		t.Error("string count lost")
	}
}

func TestFlipCmpAll(t *testing.T) {
	cases := map[expr.CmpOp]expr.CmpOp{
		expr.LT: expr.GT, expr.LE: expr.GE,
		expr.GT: expr.LT, expr.GE: expr.LE,
		expr.EQ: expr.EQ, expr.NE: expr.NE,
	}
	for in, want := range cases {
		if got := flipCmp(in); got != want {
			t.Errorf("flip(%v) = %v, want %v", in, got, want)
		}
	}
}

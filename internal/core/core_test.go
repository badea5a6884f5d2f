package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"qpi/internal/data"
	"qpi/internal/exec"
	"qpi/internal/storage"
)

// ---- helpers ----

// table builds a storage table named name with int columns given by cols
// (parallel slices of values).
func table(name string, colNames []string, cols ...[]int64) *storage.Table {
	dcols := make([]data.Column, len(colNames))
	for i, n := range colNames {
		dcols[i] = data.Column{Table: name, Name: n, Kind: data.KindInt}
	}
	t := storage.NewTable(name, data.NewSchema(dcols...))
	for r := 0; r < len(cols[0]); r++ {
		tu := make(data.Tuple, len(cols))
		for c := range cols {
			tu[c] = data.Int(cols[c][r])
		}
		t.MustAppend(tu)
	}
	return t
}

func randCol(rng *rand.Rand, n, domain int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(rng.Intn(domain) + 1)
	}
	return out
}

// ---- FreqHistogram ----

func TestFreqHistogramBasics(t *testing.T) {
	h := NewFreqHistogram()
	h.Add(data.Int(1))
	h.Add(data.Int(1))
	h.Add(data.Int(2))
	h.AddN(data.Int(3), 5)
	h.Add(data.Null()) // ignored
	if h.Count(data.Int(1)) != 2 || h.Count(data.Int(3)) != 5 {
		t.Errorf("counts wrong: %d, %d", h.Count(data.Int(1)), h.Count(data.Int(3)))
	}
	if h.Distinct() != 3 {
		t.Errorf("Distinct = %d", h.Distinct())
	}
	if h.Total() != 8 {
		t.Errorf("Total = %d", h.Total())
	}
	if h.Count(data.Int(99)) != 0 {
		t.Error("missing value should count 0")
	}
}

func TestFreqHistogramProfileAndTopK(t *testing.T) {
	h := NewFreqHistogram()
	for i := 0; i < 3; i++ {
		h.Add(data.Int(7))
	}
	h.Add(data.Int(1))
	h.Add(data.Int(2))
	f := h.FrequencyOfFrequencies()
	if f[1] != 2 || f[3] != 1 {
		t.Errorf("profile = %v", f)
	}
	top := h.TopK(1)
	if len(top) != 1 || top[0].Value.I != 7 || top[0].Count != 3 {
		t.Errorf("TopK = %v", top)
	}
}

// TestFreqHistogramTrackedProfileMatchesRescan drives a tracked histogram
// through a random mixed workload — int and string keys, unit adds,
// weighted adds including the negative deltas derived Case 2 histograms
// can apply — and checks after every step that the incrementally
// maintained profile is identical to a from-scratch rescan, including
// after late TrackProfile back-fill.
func TestFreqHistogramTrackedProfileMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, lateTrack := range []bool{false, true} {
		h := NewFreqHistogram()
		if !lateTrack {
			h.TrackProfile()
		}
		for step := 0; step < 4000; step++ {
			if lateTrack && step == 2000 {
				h.TrackProfile()
			}
			var v data.Value
			if rng.Intn(4) == 0 {
				v = data.Str([]string{"a", "b", "c"}[rng.Intn(3)])
			} else {
				v = data.Int(int64(rng.Intn(64)))
			}
			switch rng.Intn(3) {
			case 0:
				h.Add(v)
			case 1:
				h.AddN(v, int64(1+rng.Intn(8)))
			default:
				// Only drive a count negative-ward if it stays ≥ 0.
				if c := h.Count(v); c > 1 {
					h.AddN(v, -1)
				} else {
					h.Add(v)
				}
			}
			if step%97 == 0 || step >= 3990 {
				want := h.FrequencyOfFrequencies()
				got := h.Profile()
				if len(got) != len(want) {
					t.Fatalf("lateTrack=%v step %d: profile has %d counts, rescan %d: %v vs %v",
						lateTrack, step, len(got), len(want), got, want)
				}
				for j, n := range want {
					if got[j] != n {
						t.Fatalf("lateTrack=%v step %d: profile[%d] = %d, rescan %d",
							lateTrack, step, j, got[j], n)
					}
				}
			}
		}
	}
}

func TestFreqHistogramMemoryScalesLinearly(t *testing.T) {
	h := NewFreqHistogram()
	for i := int64(0); i < 1000; i++ {
		h.Add(data.Int(i))
	}
	used, alloc := h.MemoryUsed(), h.MemoryAllocated()
	if used != 8000 {
		t.Errorf("MemoryUsed = %d, want 8000 (8 B/entry × 1000)", used)
	}
	if alloc <= used {
		t.Errorf("MemoryAllocated %d should exceed MemoryUsed %d", alloc, used)
	}
	h2 := NewFreqHistogram()
	for i := int64(0); i < 10000; i++ {
		h2.Add(data.Int(i))
	}
	if got := h2.MemoryUsed(); got != 10*used {
		t.Errorf("memory should scale linearly: %d vs 10×%d", got, used)
	}
}

func TestFreqHistogramEachStops(t *testing.T) {
	h := NewFreqHistogram()
	h.Add(data.Int(1))
	h.Add(data.Int(2))
	n := 0
	h.Each(func(data.Value, int64) bool { n++; return false })
	if n != 1 {
		t.Errorf("Each visited %d entries after early stop", n)
	}
}

// ---- normal quantiles ----

func TestZQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.995, 2.575829},
		{0.9999, 3.719016},
	}
	for _, c := range cases {
		if got := zQuantile(c.p); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("zQuantile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsInf(zQuantile(0), -1) || !math.IsInf(zQuantile(1), 1) {
		t.Error("boundary quantiles should be infinite")
	}
}

func TestZForConfidence(t *testing.T) {
	if got := ZForConfidence(0.95); math.Abs(got-1.96) > 0.01 {
		t.Errorf("z(95%%) = %g", got)
	}
	if got := ZForConfidence(0.9999); math.Abs(got-3.89) > 0.01 {
		t.Errorf("z(99.99%%) = %g (paper's 'Z_α = 4' is a rounding)", got)
	}
	if ZForConfidence(0) != 0 {
		t.Error("z(0) should be 0")
	}
}

func TestZQuantileSymmetric(t *testing.T) {
	f := func(raw uint16) bool {
		p := 0.001 + 0.998*float64(raw)/65535
		return math.Abs(zQuantile(p)+zQuantile(1-p)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// ---- JoinEstimator ----

func TestJoinEstimatorConvergesExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	build := randCol(rng, 500, 40)
	probe := randCol(rng, 800, 40)
	counts := map[int64]int64{}
	for _, v := range build {
		counts[v]++
	}
	var truth int64
	for _, v := range probe {
		truth += counts[v]
	}
	e := NewJoinEstimator(float64(len(probe)))
	for _, v := range build {
		e.ObserveBuild(data.Int(v))
	}
	for _, v := range probe {
		e.ObserveProbe(data.Int(v))
	}
	e.MarkConverged()
	if got := e.Estimate(); got != float64(truth) {
		t.Errorf("converged estimate = %g, want %d", got, truth)
	}
	lo, hi := e.ConfidenceInterval(0.99)
	if lo != hi {
		t.Error("converged CI should be degenerate")
	}
}

func TestJoinEstimatorUnbiasedMidway(t *testing.T) {
	// Average over many random probe orders: the estimate at 10% of the
	// probe should be close to the truth.
	rng := rand.New(rand.NewSource(2))
	build := randCol(rng, 1000, 100)
	probe := randCol(rng, 2000, 100)
	counts := map[int64]int64{}
	for _, v := range build {
		counts[v]++
	}
	var truth int64
	for _, v := range probe {
		truth += counts[v]
	}
	sum := 0.0
	const reps = 30
	for r := 0; r < reps; r++ {
		e := NewJoinEstimator(float64(len(probe)))
		for _, v := range build {
			e.ObserveBuild(data.Int(v))
		}
		perm := rng.Perm(len(probe))
		for i := 0; i < 200; i++ {
			e.ObserveProbe(data.Int(probe[perm[i]]))
		}
		sum += e.Estimate()
	}
	avg := sum / reps
	if math.Abs(avg-float64(truth))/float64(truth) > 0.05 {
		t.Errorf("mean early estimate %g vs truth %d (bias > 5%%)", avg, truth)
	}
}

func TestJoinEstimatorConfidenceIntervalCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	build := randCol(rng, 1000, 50)
	probe := randCol(rng, 3000, 50)
	counts := map[int64]int64{}
	for _, v := range build {
		counts[v]++
	}
	var truth int64
	for _, v := range probe {
		truth += counts[v]
	}
	covered, reps := 0, 100
	for r := 0; r < reps; r++ {
		e := NewJoinEstimator(float64(len(probe)))
		for _, v := range build {
			e.ObserveBuild(data.Int(v))
		}
		perm := rng.Perm(len(probe))
		for i := 0; i < 300; i++ {
			e.ObserveProbe(data.Int(probe[perm[i]]))
		}
		lo, hi := e.ConfidenceInterval(0.95)
		if float64(truth) >= lo && float64(truth) <= hi {
			covered++
		}
	}
	// 95% nominal; accept ≥ 85% over 100 trials.
	if covered < 85 {
		t.Errorf("95%% CI covered truth in only %d/%d trials", covered, reps)
	}
}

func TestJoinEstimatorWorstCaseBoundLooser(t *testing.T) {
	e := NewJoinEstimator(1000)
	for i := int64(0); i < 500; i++ {
		e.ObserveBuild(data.Int(i % 20))
	}
	for i := int64(0); i < 100; i++ {
		e.ObserveProbe(data.Int(i % 20))
	}
	lo, hi := e.ConfidenceInterval(0.99)
	ciHalf := (hi - lo) / 2
	wc := e.WorstCaseBound(0.99)
	if wc <= ciHalf {
		t.Errorf("worst-case bound %g should be looser than CI half-width %g", wc, ciHalf)
	}
	e2 := NewJoinEstimator(10)
	if !math.IsInf(e2.WorstCaseBound(0.99), 1) {
		t.Error("bound before any probe should be infinite")
	}
}

func TestJoinEstimatorProbeSizeRevision(t *testing.T) {
	e := NewJoinEstimator(100)
	e.ObserveBuild(data.Int(1))
	e.ObserveProbe(data.Int(1))
	if e.Estimate() != 100 {
		t.Errorf("estimate = %g, want 100", e.Estimate())
	}
	e.SetProbeSize(200)
	if e.Estimate() != 200 {
		t.Errorf("after revision = %g, want 200", e.Estimate())
	}
	if e.ProbeSize() != 200 || e.ProbeTuplesSeen() != 1 {
		t.Error("accessors wrong")
	}
}

// ---- PipelineEstimator ----

// bruteChainSizes computes the true output sizes of each join level for a
// chain defined by build relations (top..bottom) with their (buildKeyCol,
// provenance column into the accumulated output) and the bottom stream.
// It returns sizes[k] for k = 0 (top) .. m-1 (bottom). Only used for
// small inputs.
func runChainAndCompare(t *testing.T, top *exec.HashJoin, att *Attachment) {
	t.Helper()
	// Collect chain joins top-down.
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
	if _, err := exec.Run(top); err != nil {
		t.Fatal(err)
	}
	pe := att.ChainOf[top]
	if pe == nil {
		t.Fatal("no chain estimator attached")
	}
	if !pe.Converged() {
		t.Fatal("estimator did not converge")
	}
	for k, j := range joins {
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

func TestPipelineBinaryJoinExact(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := table("a", []string{"k"}, randCol(rng, 300, 20))
	b := table("b", []string{"k"}, randCol(rng, 400, 20))
	j := exec.NewHashJoinOn(exec.NewScan(a, ""), exec.NewScan(b, ""), "a", "k", "b", "k")
	att := Attach(j)
	runChainAndCompare(t, j, att)
}

func TestPipelineSameAttributeChainExact(t *testing.T) {
	// A ⋈x (B ⋈x C), all joins on the same attribute (§4.1.4.1).
	rng := rand.New(rand.NewSource(11))
	a := table("a", []string{"x"}, randCol(rng, 100, 10))
	b := table("b", []string{"x"}, randCol(rng, 120, 10))
	c := table("c", []string{"x"}, randCol(rng, 150, 10))
	lower := exec.NewHashJoinOn(exec.NewScan(b, ""), exec.NewScan(c, ""), "b", "x", "c", "x")
	// Upper probes the lower output on c.x (same values as b.x).
	upper := exec.NewHashJoin(exec.NewScan(a, ""), lower,
		0, lower.Schema().MustResolve("c", "x"))
	att := Attach(upper)
	runChainAndCompare(t, upper, att)
}

func TestPipelineCase1DifferentAttributesExact(t *testing.T) {
	// A ⋈y (B ⋈x C) with A.y = C.y: upper key from the lower probe
	// relation (§4.1.4.2 Case 1).
	rng := rand.New(rand.NewSource(12))
	a := table("a", []string{"y"}, randCol(rng, 90, 8))
	b := table("b", []string{"x"}, randCol(rng, 110, 12))
	c := table("c", []string{"x", "y"}, randCol(rng, 130, 12), randCol(rng, 130, 8))
	lower := exec.NewHashJoinOn(exec.NewScan(b, ""), exec.NewScan(c, ""), "b", "x", "c", "x")
	upper := exec.NewHashJoin(exec.NewScan(a, ""), lower,
		0, lower.Schema().MustResolve("c", "y"))
	att := Attach(upper)
	runChainAndCompare(t, upper, att)
}

func TestPipelineCase2BuildInputKeyExact(t *testing.T) {
	// A ⋈y (B ⋈x C) with A.y = B.y: upper key from the lower BUILD
	// relation, requiring the derived histogram (§4.1.4.2 Case 2).
	rng := rand.New(rand.NewSource(13))
	a := table("a", []string{"y"}, randCol(rng, 90, 8))
	b := table("b", []string{"x", "y"}, randCol(rng, 110, 12), randCol(rng, 110, 8))
	c := table("c", []string{"x"}, randCol(rng, 130, 12))
	lower := exec.NewHashJoinOn(exec.NewScan(b, ""), exec.NewScan(c, ""), "b", "x", "c", "x")
	upper := exec.NewHashJoin(exec.NewScan(a, ""), lower,
		0, lower.Schema().MustResolve("b", "y"))
	att := Attach(upper)
	runChainAndCompare(t, upper, att)
}

func TestPipelineThreeJoinMixedProvenanceExact(t *testing.T) {
	// A ⋈w (B ⋈y (C ⋈x D)) where A keys off C's w column (Case 2 through
	// two levels) and B keys off D's y column (Case 1).
	rng := rand.New(rand.NewSource(14))
	a := table("a", []string{"w"}, randCol(rng, 60, 6))
	b := table("b", []string{"y"}, randCol(rng, 70, 7))
	c := table("c", []string{"x", "w"}, randCol(rng, 80, 9), randCol(rng, 80, 6))
	d := table("d", []string{"x", "y"}, randCol(rng, 90, 9), randCol(rng, 90, 7))
	bottom := exec.NewHashJoinOn(exec.NewScan(c, ""), exec.NewScan(d, ""), "c", "x", "d", "x")
	mid := exec.NewHashJoin(exec.NewScan(b, ""), bottom,
		0, bottom.Schema().MustResolve("d", "y"))
	top := exec.NewHashJoin(exec.NewScan(a, ""), mid,
		0, mid.Schema().MustResolve("c", "w"))
	att := Attach(top)
	runChainAndCompare(t, top, att)
}

// TestProvenanceThroughNarrowedJoins: the same Case 1 / Case 2 chain with
// every join narrowed by exec.Prune. Each table leads with a column
// nothing reads, so the narrowed scans and join outputs shift every index;
// provenance and the push-down group column must resolve through the
// joins' output maps, and the chain still converges exactly.
func TestProvenanceThroughNarrowedJoins(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := table("a", []string{"pad", "w"}, randCol(rng, 60, 9), randCol(rng, 60, 6))
	b := table("b", []string{"pad", "y"}, randCol(rng, 70, 9), randCol(rng, 70, 7))
	c := table("c", []string{"pad", "x", "w"}, randCol(rng, 80, 9), randCol(rng, 80, 9), randCol(rng, 80, 6))
	d := table("d", []string{"pad", "x", "y", "v"}, randCol(rng, 90, 9), randCol(rng, 90, 9), randCol(rng, 90, 7), randCol(rng, 90, 5))
	bottomStream := exec.NewScan(d, "")
	bottom := exec.NewHashJoinOn(exec.NewScan(c, ""), bottomStream, "c", "x", "d", "x")
	mid := exec.NewHashJoin(exec.NewScan(b, ""), bottom, // Case 1: d.y
		1, bottom.Schema().MustResolve("d", "y"))
	top := exec.NewHashJoin(exec.NewScan(a, ""), mid, // Case 2: c.w
		1, mid.Schema().MustResolve("c", "w"))
	root := exec.NewHashAgg(top, []int{top.Schema().MustResolve("d", "v")},
		[]exec.AggSpec{{Func: exec.CountStar, Name: "n"}})
	exec.Prune(root)
	if got := []int{top.Schema().Len(), mid.Schema().Len(), bottom.Schema().Len()}; !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("narrowed join widths %v, want [1 2 3]", got)
	}
	att := Attach(root)
	pe := att.ChainOf[top]
	if pe.srcs[0].fromBottom {
		t.Error("level 0 keys off relation c (Case 2), not the bottom stream")
	}
	if src := pe.srcs[1]; !src.fromBottom || !reflect.DeepEqual(src.cols, []int{bottomStream.Schema().MustResolve("d", "y")}) {
		t.Errorf("level 1 key resolves to bottom columns %v (%v), want d.y", src.cols, src.fromBottom)
	}
	if col, ok := pe.ResolveToBottom(root.GroupBy()[0]); !ok || col != bottomStream.Schema().MustResolve("d", "v") {
		t.Errorf("group column resolves to bottom column %d (%v), want d.v", col, ok)
	}
	if att.Aggs[root] == nil {
		t.Error("no push-down estimator on the group column")
	}
	runChainAndCompare(t, top, att)
}

func TestPipelineHistogramSharing(t *testing.T) {
	// Case 1: no folds — all levels share one histogram per relation.
	links := []ChainLink{
		{Join: dummyJoin(), Out: linkOut(1), BuildKeys: []int{0}, ProbeKeys: []int{1}, SetBuildColHook: func(func(*data.ColBatch)) {}},
		{Join: dummyJoin(), Out: linkOut(1), BuildKeys: []int{0}, ProbeKeys: []int{0}, SetBuildColHook: func(func(*data.ColBatch)) {}},
	}
	pe, err := NewPipelineEstimator(links, func() float64 { return 100 })
	if err != nil {
		t.Fatal(err)
	}
	if pe.Histogram(0, 1) != pe.Histogram(1, 1) {
		t.Error("Case 1 should share the lower relation's histogram across levels")
	}
	// Case 2: upper join keyed off lower build relation (the lower join
	// emits two build columns, and the upper probe key 1 is the second of
	// them → fold).
	links2 := []ChainLink{
		{Join: dummyJoin(), Out: linkOut(1), BuildKeys: []int{0}, ProbeKeys: []int{1}, SetBuildColHook: func(func(*data.ColBatch)) {}},
		{Join: dummyJoin(), Out: linkOut(2), BuildKeys: []int{0}, ProbeKeys: []int{0}, SetBuildColHook: func(func(*data.ColBatch)) {}},
	}
	pe2, err := NewPipelineEstimator(links2, func() float64 { return 100 })
	if err != nil {
		t.Fatal(err)
	}
	if pe2.Histogram(0, 1) == pe2.Histogram(1, 1) {
		t.Error("Case 2 must build a separate derived histogram")
	}
}

// linkOut is a hand-wired link's output map: buildWidth build columns,
// then every column of a probe input up to eight wide.
func linkOut(buildWidth int) exec.OutMap { return exec.FullOutMap(buildWidth, 8) }

func dummyJoin() exec.Operator {
	tb := table("d", []string{"k"}, []int64{1})
	return exec.NewScan(tb, "")
}

func TestPipelineEstimatorValidation(t *testing.T) {
	if _, err := NewPipelineEstimator(nil, func() float64 { return 0 }); err == nil {
		t.Error("empty chain should fail")
	}
}

func TestPipelineRandomChainsProperty(t *testing.T) {
	// Randomized end-to-end invariant: for random 2-join chains with
	// random provenance (same-attr / Case 1 / Case 2), the converged
	// estimates equal the true cardinalities.
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		dom := rng.Intn(15) + 2
		na, nb, nc := 40+rng.Intn(40), 40+rng.Intn(40), 40+rng.Intn(40)
		a := table("a", []string{"y"}, randCol(rng, na, dom))
		b := table("b", []string{"x", "y"}, randCol(rng, nb, dom), randCol(rng, nb, dom))
		c := table("c", []string{"x", "y"}, randCol(rng, nc, dom), randCol(rng, nc, dom))
		lower := exec.NewHashJoinOn(exec.NewScan(b, ""), exec.NewScan(c, ""), "b", "x", "c", "x")
		var probeKey int
		switch trial % 3 {
		case 0: // same attribute
			probeKey = lower.Schema().MustResolve("c", "x")
		case 1: // Case 1
			probeKey = lower.Schema().MustResolve("c", "y")
		default: // Case 2
			probeKey = lower.Schema().MustResolve("b", "y")
		}
		upper := exec.NewHashJoin(exec.NewScan(a, ""), lower, 0, probeKey)
		att := Attach(upper)
		runChainAndCompare(t, upper, att)
	}
}

// ---- dne / byte ----

func TestDNEAndByteLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	a := table("a", []string{"k"}, randCol(rng, 200, 10))
	b := table("b", []string{"k"}, randCol(rng, 300, 10))
	j := exec.NewHashJoinOn(exec.NewScan(a, ""), exec.NewScan(b, ""), "a", "k", "b", "k")
	const opt = 12345.0
	if got := DNEEstimate(j, opt); got != opt {
		t.Errorf("dne before start = %g, want optimizer %g", got, opt)
	}
	if got := ByteEstimate(j, opt); got != opt {
		t.Errorf("byte before start = %g", got)
	}
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	// Drain the output, checking both baselines at the batch boundary
	// that takes it past 1000 rows.
	var n int64
	for {
		cb, err := j.NextColBatch()
		if err != nil {
			t.Fatal(err)
		}
		if cb == nil {
			break
		}
		n += int64(cb.Live())
		if n >= 1000 && n-int64(cb.Live()) < 1000 {
			dne := DNEEstimate(j, opt)
			byte_ := ByteEstimate(j, opt)
			f := j.JoinedProbeFraction()
			if f <= 0 || f > 1 {
				t.Fatalf("driver fraction = %g", f)
			}
			wantDNE := float64(n) / f
			if math.Abs(dne-wantDNE) > 1e-9 {
				t.Errorf("dne = %g, want K/f = %g", dne, wantDNE)
			}
			wantByte := (1-f)*opt + float64(n)
			if math.Abs(byte_-wantByte) > 1e-9 {
				t.Errorf("byte = %g, want %g", byte_, wantByte)
			}
		}
	}
	j.Close()
	if got := DNEEstimate(j, opt); got != float64(n) {
		t.Errorf("dne after done = %g, want exact %d", got, n)
	}
	if got := ByteEstimate(j, opt); got != float64(n) {
		t.Errorf("byte after done = %g, want exact %d", got, n)
	}
}

func TestDriverFractionScan(t *testing.T) {
	a := table("a", []string{"k"}, []int64{1, 2, 3, 4})
	defer data.SetBatchSize(0)
	data.SetBatchSize(1)
	sc := exec.NewScan(a, "")
	if err := sc.Open(); err != nil {
		t.Fatal(err)
	}
	sc.NextColBatch()
	if got := DriverFraction(sc); got != 0.25 {
		t.Errorf("scan fraction = %g", got)
	}
	f := exec.NewFilter(sc, alwaysTrue{})
	if got := DriverFraction(f); got != 0.25 {
		t.Errorf("filter driver fraction = %g, want scan's 0.25", got)
	}
}

type alwaysTrue struct{}

func (alwaysTrue) Eval(data.Tuple) data.Value { return data.Bool(true) }
func (alwaysTrue) String() string             { return "true" }

// ---- Attach end-to-end ----

func TestAttachAggPushdownSameAttribute(t *testing.T) {
	// GROUP BY over a hash join on the join attribute: estimation pushes
	// into the join probe pass and the final estimate is the exact group
	// count.
	rng := rand.New(rand.NewSource(30))
	a := table("a", []string{"k"}, randCol(rng, 300, 25))
	b := table("b", []string{"k"}, randCol(rng, 500, 25))
	j := exec.NewHashJoinOn(exec.NewScan(a, ""), exec.NewScan(b, ""), "a", "k", "b", "k")
	gcol := j.Schema().MustResolve("b", "k")
	agg := exec.NewHashAgg(j, []int{gcol}, []exec.AggSpec{{Func: exec.CountStar, Name: "c"}})
	att := Attach(agg)
	est := att.Aggs[agg]
	if est == nil {
		t.Fatal("no agg estimator attached")
	}
	if est.Source() != "agg-pushdown" {
		t.Fatalf("expected pushdown mode, got %q", est.Source())
	}
	rows, err := exec.Run(agg)
	if err != nil {
		t.Fatal(err)
	}
	got := est.Estimate()
	if math.Abs(got-float64(rows)) > 1e-6 {
		t.Errorf("pushdown estimate %g != true group count %d", got, rows)
	}
}

func TestAttachAggStreamMode(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := table("a", []string{"k", "v"}, randCol(rng, 2000, 50), randCol(rng, 2000, 1000))
	sc := exec.NewScan(a, "")
	agg := exec.NewHashAgg(sc, []int{0}, []exec.AggSpec{{Func: exec.CountStar, Name: "c"}})
	att := Attach(agg)
	est := att.Aggs[agg]
	if est == nil || est.Source() == "agg-pushdown" {
		t.Fatal("expected stream-mode estimator")
	}
	rows, err := exec.Run(agg)
	if err != nil {
		t.Fatal(err)
	}
	if got := est.Estimate(); got != float64(rows) {
		t.Errorf("stream estimate %g != %d groups", got, rows)
	}
	if agg.Stats().Estimate() != float64(rows) {
		t.Errorf("agg stats estimate %g", agg.Stats().Estimate())
	}
}

func TestAttachSortAggObservesUnsortedInput(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := table("a", []string{"k"}, randCol(rng, 1500, 40))
	sc := exec.NewScan(a, "")
	agg := exec.NewSortAgg(sc, []int{0}, []exec.AggSpec{{Func: exec.CountStar, Name: "c"}})
	att := Attach(agg)
	est := att.Aggs[agg]
	if est == nil {
		t.Fatal("no estimator")
	}
	rows, err := exec.Run(agg)
	if err != nil {
		t.Fatal(err)
	}
	if got := est.Estimate(); got != float64(rows) {
		t.Errorf("estimate %g != %d", got, rows)
	}
}

func TestAttachMergeJoinChain(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := table("a", []string{"k"}, randCol(rng, 200, 15))
	b := table("b", []string{"k"}, randCol(rng, 250, 15))
	mj, _, _ := exec.NewSortMergeJoin(exec.NewScan(a, ""), exec.NewScan(b, ""), 0, 0)
	att := Attach(mj)
	pe := att.ChainOf[mj]
	if pe == nil {
		t.Fatal("no estimator attached to sort-merge join")
	}
	n, err := exec.Run(mj)
	if err != nil {
		t.Fatal(err)
	}
	if !pe.Converged() {
		t.Fatal("SMJ estimator did not converge")
	}
	if got := pe.Estimate(0); math.Abs(got-float64(n)) > 1e-6 {
		t.Errorf("SMJ estimate %g != true size %d", got, n)
	}
	// Crucially, the estimate converged during the SORT pass, before any
	// join output: the paper's §4.1.2 claim.
	if mj.Stats().Source() != "once-exact" {
		t.Errorf("source = %q", mj.Stats().Source())
	}
}

func TestAttachPreSortedMergeJoinFallsBack(t *testing.T) {
	a := table("a", []string{"k"}, []int64{1, 2, 3})
	b := table("b", []string{"k"}, []int64{1, 2, 3})
	mj := exec.NewMergeJoin(exec.NewScan(a, ""), exec.NewScan(b, ""), 0, 0)
	att := Attach(mj)
	if att.ChainOf[mj] != nil {
		t.Error("pre-sorted merge join should not get an estimator")
	}
	found := false
	for _, f := range att.Fallbacks {
		if f == exec.Operator(mj) {
			found = true
		}
	}
	if !found {
		t.Error("pre-sorted merge join should be recorded as dne fallback")
	}
}

func TestStreamSizeEstimateFilterRefines(t *testing.T) {
	a := table("a", []string{"k"}, []int64{1, 2, 3, 4, 5, 6, 7, 8})
	sc := exec.NewScan(a, "")
	f := exec.NewFilter(sc, alwaysTrue{})
	f.Stats().SetEstimate(2, "optimizer") // bad optimizer guess
	if got := StreamSizeEstimate(f); got != 2 {
		t.Errorf("before start = %g, want optimizer 2", got)
	}
	defer data.SetBatchSize(0)
	data.SetBatchSize(4)
	if err := f.Open(); err != nil {
		t.Fatal(err)
	}
	f.NextColBatch()
	// 4 emitted at scan fraction 4/8 → dne = 8.
	if got := StreamSizeEstimate(f); got != 8 {
		t.Errorf("midway = %g, want 8", got)
	}
}

func TestSpilledJoinEstimatesExact(t *testing.T) {
	// The once estimator attaches to the partition passes, which are
	// identical whether partitions stay in memory or spill: the converged
	// estimate must be exact either way.
	rng := rand.New(rand.NewSource(80))
	a := table("a", []string{"k"}, randCol(rng, 2000, 50))
	b := table("b", []string{"k"}, randCol(rng, 3000, 50))
	j := exec.NewHashJoinOn(exec.NewScan(a, ""), exec.NewScan(b, ""), "a", "k", "b", "k")
	j.SetMemoryBudget(8 * 1024)
	att := Attach(j)
	n, err := exec.Run(j)
	if err != nil {
		t.Fatal(err)
	}
	if j.Spilled() == 0 {
		t.Fatal("expected the join to spill")
	}
	pe := att.ChainOf[j]
	if got := pe.Estimate(0); math.Abs(got-float64(n)) > 1e-6 {
		t.Errorf("spilled-join estimate %g != %d", got, n)
	}
}

func TestExternalSortMergeJoinEstimatesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	a := table("a", []string{"k"}, randCol(rng, 1500, 40))
	b := table("b", []string{"k"}, randCol(rng, 1800, 40))
	mj, ls, rs := exec.NewSortMergeJoin(exec.NewScan(a, ""), exec.NewScan(b, ""), 0, 0)
	ls.SetMemoryBudget(8 * 1024)
	rs.SetMemoryBudget(8 * 1024)
	att := Attach(mj)
	if err := mj.Open(); err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Drain(mj)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(rows))
	// Inspect the sorts before Close releases the run files.
	if ls.Runs() == 0 || rs.Runs() == 0 {
		t.Fatal("expected external sorts")
	}
	mj.Close()
	pe := att.ChainOf[mj]
	if got := pe.Estimate(0); math.Abs(got-float64(n)) > 1e-6 {
		t.Errorf("external SMJ estimate %g != %d", got, n)
	}
}

func TestSortMergeJoinChainSameAttribute(t *testing.T) {
	// §4.1.4.3: "a sequence of sort-merge joins on the same attribute can
	// be handled in exactly the same way as a pipeline of hash joins."
	// The inner merge join's output is already sorted on the shared key,
	// so the outer merge join consumes it directly — one pipeline.
	rng := rand.New(rand.NewSource(90))
	a := table("a", []string{"x"}, randCol(rng, 90, 9))
	b := table("b", []string{"x"}, randCol(rng, 100, 9))
	c := table("c", []string{"x"}, randCol(rng, 110, 9))
	lower, _, _ := exec.NewSortMergeJoin(exec.NewScan(b, ""), exec.NewScan(c, ""), 0, 0)
	sortA := exec.NewSort(exec.NewScan(a, ""), 0)
	// lower output schema: b.x at 0, c.x at 1; both carry the join value.
	upper := exec.NewMergeJoin(sortA, lower, 0, 1)
	att := Attach(upper)
	pe := att.ChainOf[upper]
	if pe == nil || pe.Levels() != 2 {
		t.Fatalf("expected a 2-level merge chain, got %v", pe)
	}
	// Correctness against the equivalent hash pipeline.
	n, err := exec.Run(upper)
	if err != nil {
		t.Fatal(err)
	}
	hLower := exec.NewHashJoinOn(exec.NewScan(b, ""), exec.NewScan(c, ""), "b", "x", "c", "x")
	hUpper := exec.NewHashJoin(exec.NewScan(a, ""), hLower, 0, hLower.Schema().MustResolve("c", "x"))
	hn, err := exec.Run(hUpper)
	if err != nil {
		t.Fatal(err)
	}
	if n != hn {
		t.Fatalf("merge chain %d rows vs hash chain %d", n, hn)
	}
	if !pe.Converged() {
		t.Fatal("merge chain estimator did not converge")
	}
	if got := pe.Estimate(0); math.Abs(got-float64(n)) > 1e-6 {
		t.Errorf("upper estimate %g != %d", got, n)
	}
	if got := pe.Estimate(1); math.Abs(got-float64(lower.Stats().Emitted.Load())) > 1e-6 {
		t.Errorf("lower estimate %g != %d", got, lower.Stats().Emitted.Load())
	}
}

// TestBuildKeysHintPresizesHistogram: a join whose build key's distinct
// count is known gets its raw build histogram sized for it before the
// build pass, never grows it, and ends on the estimates an unhinted join
// reaches.
func TestBuildKeysHintPresizesHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := table("a", []string{"k"}, randCol(rng, 5000, 3000))
	b := table("b", []string{"k"}, randCol(rng, 4000, 3000))
	run := func(hint float64) (int64, int64, *exec.HashJoin) {
		j := exec.NewHashJoinOn(exec.NewScan(a, ""), exec.NewScan(b, ""), "a", "k", "b", "k")
		j.Stats().BuildKeysHint = hint
		pe := Attach(j).ChainOf[j]
		h := pe.Histogram(0, 0).(*FreqHistogram)
		before := h.MemoryAllocated()
		if _, err := exec.Run(j); err != nil {
			t.Fatal(err)
		}
		if after := h.MemoryAllocated(); hint > 0 && after != before {
			t.Errorf("hinted histogram grew from %d to %d bytes", before, after)
		}
		return before, h.Distinct(), j
	}
	_, distinct, plain := run(0)
	reserved, _, hinted := run(float64(distinct))
	if reserved == 0 {
		t.Fatal("the hint reserved nothing")
	}
	if plain.Stats().Estimate() != hinted.Stats().Estimate() || plain.Stats().Source() != hinted.Stats().Source() {
		t.Errorf("estimate %v (%s) hinted, %v (%s) without", hinted.Stats().Estimate(), hinted.Stats().Source(),
			plain.Stats().Estimate(), plain.Stats().Source())
	}
}

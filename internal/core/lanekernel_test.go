package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"qpi/internal/data"
	"qpi/internal/obs"
)

// Tests for the probe-side lane kernel (observeLanes): a hand-wired chain
// is fed the same build relations and the same bottom stream two ways —
// per tuple (ObserveProbe, the reference) and per ColBatch
// (ObserveProbeCol) — and every float the estimator holds or publishes
// must come out == on both.

// laneCase is one chain over a four-column bottom stream: three integer
// key columns (NULLs sprinkled in) and a string column.
type laneCase struct {
	name    string
	cols    []int                   // cols[k]: bottom column of link k's probe key
	mults   []func(n int64) float64 // per link, nil = inner
	outDist int                     // bottom column grouped on by push-down, -1 = off
	lanes   bool                    // the kernel takes the batches (else the row fallback does)
}

var laneCases = []laneCase{
	{"2-link", []int{0, 1}, nil, -1, true},
	{"3-link", []int{0, 1, 2}, nil, -1, true},
	{"same-attribute", []int{1, 1, 1}, nil, -1, true},
	{"semi-top", []int{0, 2}, []func(int64) float64{MultSemi, nil}, -1, true},
	{"anti-outer", []int{2, 0}, []func(int64) float64{MultAnti, MultProbeOuter}, -1, true},
	{"output-distribution", []int{0, 1}, nil, 1, true},
	{"string-key", []int{0, 3}, nil, -1, false},
	{"string-group", []int{0, 1}, nil, 3, false},
}

const laneStreamWidth = 4

// laneStream draws the bottom stream in batches whose sizes straddle
// every publish interval the tests use; every other batch carries a
// selection vector.
func laneStream(rng *rand.Rand) (batches [][]data.Tuple, sels [][]int32) {
	for _, n := range []int{100, 37, 1, 200, 64, 63, 130, 5} {
		rows := make([]data.Tuple, n)
		for i := range rows {
			row := make(data.Tuple, laneStreamWidth)
			for c := 0; c < 3; c++ {
				if row[c] = data.Int(int64(rng.Intn(12))); rng.Intn(15) == 0 {
					row[c] = data.Null()
				}
			}
			row[3] = data.Str(fmt.Sprintf("s%02d", rng.Intn(12)))
			rows[i] = row
		}
		var sel []int32
		if len(batches)%2 == 1 {
			sel = []int32{}
			for i := range rows {
				if rng.Intn(3) > 0 {
					sel = append(sel, int32(i))
				}
			}
		}
		batches, sels = append(batches, rows), append(sels, sel)
	}
	return batches, sels
}

// laneRun is everything a run leaves behind that the routes must agree on.
type laneRun struct {
	T             int64
	Sums, SumSqs  []float64
	Est, Lo, Hi   []float64
	Recomputes    int64
	HistProbes    int64
	Published     []string // Stats publishes, in order
	Observed      []string // OnProbeObserved calls, in order
	OutDistTotal  int64
	OutDistCounts map[int64]int64
}

type laneRoute int

const (
	routeTuple laneRoute = iota
	routeCol
)

// runLaneCase wires lc's chain by hand, builds it, streams the bottom
// input through the given route and freezes it.
func runLaneCase(t *testing.T, lc laneCase, route laneRoute, publishEvery int64, callback, rowBacked bool) laneRun {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	m := len(lc.cols)
	links := make([]ChainLink, m)
	tupleHooks := make([]func(data.Tuple), m)
	colHooks := make([]func(*data.ColBatch), m)
	for k := range links {
		k := k
		links[k] = ChainLink{
			Join: dummyJoin(), Out: linkOut(1), BuildKeys: []int{0},
			// Join k probes the output of join k+1: the build columns of
			// the joins below it, then the bottom stream.
			ProbeKeys:    []int{m - 1 - k + lc.cols[k]},
			SetBuildHook: func(f func(data.Tuple)) { tupleHooks[k] = f },
		}
		if lc.mults != nil {
			links[k].Mult = lc.mults[k]
		}
		if route != routeTuple {
			links[k].Columnar = true
			links[k].SetBuildColHook = func(f func(*data.ColBatch)) { colHooks[k] = f }
		}
	}
	pe, err := NewPipelineEstimator(links, func() float64 { return 5000 })
	if err != nil {
		t.Fatal(err)
	}
	if pe.ColAttached() != (route == routeCol) {
		t.Fatalf("route %d attached col=%v", route, pe.ColAttached())
	}
	if pe.laneLinks == nil {
		t.Fatal("a chain keyed on single bottom-stream columns must plan lanes")
	}
	pe.SetPublishInterval(publishEvery)
	tr := obs.New()
	pe.SetTracer(tr)
	var run laneRun
	if callback {
		pe.OnProbeObserved = func(n int64) {
			run.Observed = append(run.Observed, fmt.Sprint(n, pe.Estimate(0), pe.Estimate(m-1)))
		}
	}
	var outDist *FreqHistogram
	if lc.outDist >= 0 {
		outDist = pe.EnableOutputDistribution(lc.outDist)
	}

	batch := func(rows []data.Tuple, width int, sel []int32) *data.ColBatch {
		cb := &data.ColBatch{}
		if rowBacked {
			cb.SetRows(rows, width)
		} else {
			cb.FromTuples(rows, width)
		}
		cb.Sel = sel
		return cb
	}
	// Build relations R_0 … R_{m-1}, in the chain's execution order; the
	// relation matched against the string column holds strings.
	for k := 0; k < m; k++ {
		rows := make([]data.Tuple, 80)
		for i := range rows {
			if v := int64(rng.Intn(12)); lc.cols[k] == 3 {
				rows[i] = data.Tuple{data.Str(fmt.Sprintf("s%02d", v))}
			} else {
				rows[i] = data.Tuple{data.Int(v)}
			}
		}
		switch route {
		case routeTuple:
			for _, r := range rows {
				tupleHooks[k](r)
			}
		case routeCol:
			colHooks[k](batch(rows, 1, nil))
		}
	}
	batches, sels := laneStream(rng)
	for b, rows := range batches {
		switch route {
		case routeTuple:
			for i, r := range rows {
				if sels[b] == nil || containsRow(sels[b], i) {
					pe.ObserveProbe(r)
				}
			}
		case routeCol:
			pe.ObserveProbeCol(batch(rows, laneStreamWidth, sels[b]))
		}
	}
	// Mid-stream state first: the confidence interval collapses once the
	// estimator freezes.
	for k := 0; k < m; k++ {
		lo, hi := pe.ConfidenceInterval(k, 0.05)
		run.Lo, run.Hi = append(run.Lo, lo), append(run.Hi, hi)
		run.Est = append(run.Est, pe.Estimate(k))
	}
	pe.MarkConverged()
	if route == routeCol && (pe.lanes != nil) != lc.lanes {
		t.Fatalf("lane kernel ran = %v, want %v", pe.lanes != nil, lc.lanes)
	}
	run.T, run.Sums, run.SumSqs = pe.t, pe.sums, pe.sumSqs
	for k := 0; k < m; k++ {
		run.Est = append(run.Est, pe.Estimate(k))
	}
	run.Recomputes, run.HistProbes = pe.Recomputes(), pe.HistogramProbes()
	for _, e := range tr.Events() {
		run.Published = append(run.Published, fmt.Sprint(e.Kind, e.Op, e.Estimate, e.From, e.To))
	}
	if outDist != nil {
		run.OutDistTotal, run.OutDistCounts = outDist.Total(), outDist.Profile()
	}
	return run
}

func containsRow(sel []int32, i int) bool {
	for _, s := range sel {
		if int(s) == i {
			return true
		}
	}
	return false
}

// TestLaneKernelBitIdenticalToTuple: the span route against the
// per-tuple reference, for every chain shape, publish intervals that the
// batches straddle, with and without the per-row callback, over
// row-backed and pure columnar batches.
func TestLaneKernelBitIdenticalToTuple(t *testing.T) {
	for _, lc := range laneCases {
		for _, every := range []int64{1, 7, 64} {
			for _, callback := range []bool{false, true} {
				want := runLaneCase(t, lc, routeTuple, every, callback, true)
				if want.T == 0 || want.Sums[0] == 0 || len(want.Published) == 0 {
					t.Fatalf("%s: reference run observed nothing: %+v", lc.name, want)
				}
				for _, rowBacked := range []bool{true, false} {
					got := runLaneCase(t, lc, routeCol, every, callback, rowBacked)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s every=%d callback=%v rowBacked=%v:\n columnar %+v\n tuple    %+v",
							lc.name, every, callback, rowBacked, got, want)
					}
				}
			}
		}
	}
}

// TestLanePlanEligibility: Case 2 keys, composite keys and approximate
// histograms keep the row fallback.
func TestLanePlanEligibility(t *testing.T) {
	noHook := func(func(data.Tuple)) {}
	link := func(buildWidth int, probeKeys ...int) ChainLink {
		return ChainLink{Join: dummyJoin(), Out: linkOut(buildWidth), BuildKeys: make([]int, len(probeKeys)),
			ProbeKeys: probeKeys, SetBuildHook: noHook}
	}
	total := func() float64 { return 100 }
	for _, tc := range []struct {
		name    string
		links   []ChainLink
		factory HistogramFactory
		want    bool
	}{
		{"case-1", []ChainLink{link(1, 2), link(1, 0)}, ExactHistograms, true},
		{"case-2", []ChainLink{link(1, 1), link(2, 0)}, ExactHistograms, false},
		{"composite", []ChainLink{link(2, 0, 1)}, ExactHistograms, false},
		{"approximate", []ChainLink{link(1, 0)}, ApproximateHistograms(8), false},
	} {
		pe, err := NewPipelineEstimatorHist(tc.links, total, tc.factory)
		if err != nil {
			t.Fatal(err)
		}
		if got := pe.laneLinks != nil; got != tc.want {
			t.Errorf("%s: lanes planned = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// BenchmarkObserveProbeColChain is skew_pipeline's main pipeline as the
// estimator sees it: a three-link chain over three integer columns of the
// bottom stream, one 1 024-row batch per call. "rows" is the per-row
// fallback every chained pipeline took before the lane kernel. Publishing
// is off, so steady state allocates nothing: a publish costs the same on
// both routes, and Stats.SetEstimate allocates per call (internSource
// takes its parameter's address).
func BenchmarkObserveProbeColChain(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const m = 3
	setup := func(b *testing.B) (*PipelineEstimator, *data.ColBatch) {
		links := make([]ChainLink, m)
		hooks := make([]func(*data.ColBatch), m)
		for k := range links {
			k := k
			links[k] = ChainLink{Join: dummyJoin(), Out: linkOut(1), BuildKeys: []int{0}, ProbeKeys: []int{(m - 1 - k) + k}, // bottom column k
				Columnar: true, SetBuildHook: func(func(data.Tuple)) {},
				SetBuildColHook: func(f func(*data.ColBatch)) { hooks[k] = f }}
		}
		pe, err := NewPipelineEstimator(links, func() float64 { return 1e9 })
		if err != nil {
			b.Fatal(err)
		}
		pe.SetPublishInterval(math.MaxInt64)
		for k := range hooks {
			rows := make([]data.Tuple, 2000)
			for i := range rows {
				rows[i] = data.Tuple{data.Int(int64(rng.Intn(500)))}
			}
			cb := &data.ColBatch{}
			cb.FromTuples(rows, 1)
			hooks[k](cb)
		}
		rows := make([]data.Tuple, 1024)
		for i := range rows {
			rows[i] = data.Tuple{data.Int(int64(rng.Intn(500))), data.Int(int64(rng.Intn(500))), data.Int(int64(rng.Intn(500)))}
		}
		cb := &data.ColBatch{}
		cb.SetRows(rows, m)
		for c := 0; c < m; c++ {
			cb.Col(c)
		}
		return pe, cb
	}
	b.Run("lanes", func(b *testing.B) {
		pe, cb := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pe.ObserveProbeCol(cb)
		}
	})
	b.Run("rows", func(b *testing.B) {
		pe, cb := setup(b)
		pe.laneLinks = nil
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pe.ObserveProbeCol(cb)
		}
	})
}

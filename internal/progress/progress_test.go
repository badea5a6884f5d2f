package progress

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"qpi/internal/catalog"
	"qpi/internal/core"
	"qpi/internal/data"
	"qpi/internal/exec"
	"qpi/internal/plan"
	"qpi/internal/storage"
)

func table(name string, vals []int64) *storage.Table {
	s := data.NewSchema(data.Column{Table: name, Name: "k", Kind: data.KindInt})
	t := storage.NewTable(name, s)
	for _, v := range vals {
		t.MustAppend(data.Tuple{data.Int(v)})
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

// buildJoinQuery creates a joined + estimated plan over random data.
func buildJoinQuery(t *testing.T, seed int64, mode Mode) (*exec.HashJoin, *Monitor) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ta := table("a", randCol(rng, 2000, 30))
	tb := table("b", randCol(rng, 3000, 30))
	cat := catalog.New()
	cat.Register(ta)
	cat.Register(tb)
	j := exec.NewHashJoinOn(exec.NewScan(ta, ""), exec.NewScan(tb, ""), "a", "k", "b", "k")
	plan.EstimateCardinalities(j, cat)
	if mode == ModeOnce {
		core.Attach(j)
	}
	return j, NewMonitor(j, mode)
}

func TestProgressStartsAtZeroEndsAtOne(t *testing.T) {
	for _, mode := range []Mode{ModeOnce, ModeDNE, ModeByte} {
		j, m := buildJoinQuery(t, 1, mode)
		if got := m.Progress(); got != 0 {
			t.Errorf("mode %v: initial progress = %g", mode, got)
		}
		if _, err := exec.Run(j); err != nil {
			t.Fatal(err)
		}
		if got := m.Progress(); math.Abs(got-1) > 1e-9 {
			t.Errorf("mode %v: final progress = %g, want 1", mode, got)
		}
	}
}

func TestProgressMonotoneUnderOnce(t *testing.T) {
	j, m := buildJoinQuery(t, 2, ModeOnce)
	var samples []float64
	if _, err := runTicked(j, 100, func() { samples = append(samples, m.Progress()) }); err != nil {
		t.Fatal(err)
	}
	if len(samples) < 20 {
		t.Fatalf("only %d samples", len(samples))
	}
	// Once-based progress should be nearly monotone after the sample
	// period; allow small dips from the pre-convergence estimates.
	maxDip := 0.0
	high := 0.0
	for _, s := range samples {
		if s < high && high-s > maxDip {
			maxDip = high - s
		}
		if s > high {
			high = s
		}
	}
	if maxDip > 0.15 {
		t.Errorf("progress dipped by %.3f; expected near-monotone", maxDip)
	}
}

func TestOnceProgressBeatsDNEOnSkew(t *testing.T) {
	// Under skewed data with a bad optimizer estimate, the mean absolute
	// deviation between estimated and actual progress should be smaller
	// for the once monitor than for dne (Figure 8's qualitative claim).
	run := func(mode Mode) []float64 {
		rng := rand.New(rand.NewSource(7))
		// Zipf-ish skew via squaring.
		mk := func(n int) []int64 {
			out := make([]int64, n)
			for i := range out {
				r := rng.Float64()
				out[i] = int64(r*r*100) + 1
			}
			return out
		}
		ta := table("a", mk(3000))
		tb := table("b", mk(5000))
		cat := catalog.New()
		cat.Register(ta)
		cat.Register(tb)
		j := exec.NewHashJoinOn(exec.NewScan(ta, ""), exec.NewScan(tb, ""), "a", "k", "b", "k")
		plan.EstimateCardinalities(j, cat)
		// Degrade the optimizer estimate by 10x to mimic the paper's
		// misestimation scenario.
		j.Stats().SetEstimate(j.Stats().Estimate()/10, "optimizer")
		if mode == ModeOnce {
			core.Attach(j)
		}
		m := NewMonitor(j, mode)
		var est []float64
		if _, err := runTicked(j, 200, func() { est = append(est, m.Progress()) }); err != nil {
			t.Fatal(err)
		}
		return est
	}

	mad := func(mode Mode) float64 {
		est := run(mode)
		n := len(est)
		sum := 0.0
		for i, e := range est {
			actual := float64(i+1) / float64(n) // even work spacing
			sum += math.Abs(e - actual)
		}
		return sum / float64(n)
	}
	onceMAD := mad(ModeOnce)
	dneMAD := mad(ModeDNE)
	if onceMAD >= dneMAD {
		t.Errorf("once MAD %.4f should beat dne MAD %.4f", onceMAD, dneMAD)
	}
}

func TestReportStates(t *testing.T) {
	j, m := buildJoinQuery(t, 3, ModeOnce)
	r := m.Report()
	if r.Progress != 0 || len(r.Pipelines) != 2 {
		t.Fatalf("initial report = %+v", r)
	}
	for _, p := range r.Pipelines {
		if p.Started || p.Done {
			t.Errorf("pipeline %d should be pending", p.ID)
		}
	}
	exec.Run(j)
	r = m.Report()
	if r.Progress != 1 {
		t.Errorf("final progress = %g", r.Progress)
	}
	for _, p := range r.Pipelines {
		if !p.Done {
			t.Errorf("pipeline %d should be done", p.ID)
		}
	}
	s := r.String()
	if !strings.Contains(s, "progress 100.0%") || !strings.Contains(s, "P0") {
		t.Errorf("report string = %q", s)
	}
}

func TestModeString(t *testing.T) {
	if ModeOnce.String() != "once" || ModeDNE.String() != "dne" || ModeByte.String() != "byte" {
		t.Error("mode strings wrong")
	}
}

func TestTickerComposesExistingHooks(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ta := table("a", randCol(rng, 500, 10))
	sc := exec.NewScan(ta, "")
	var hookCalls int
	sc.OnBatch = func(int) { hookCalls++ }
	ticks := 0
	defer data.SetBatchSize(0)
	data.SetBatchSize(100)
	InstallTicker(sc, 100, func() { ticks++ })
	if _, err := exec.Run(sc); err != nil {
		t.Fatal(err)
	}
	if hookCalls != 5 {
		t.Errorf("existing hook fired %d times, want 5", hookCalls)
	}
	// Every batch but the last publishes the one before it.
	if ticks != 4 {
		t.Errorf("ticks = %d, want 4", ticks)
	}
}

func TestProgressNeverExceedsOne(t *testing.T) {
	j, m := buildJoinQuery(t, 5, ModeDNE)
	runTicked(j, 50, func() {
		if p := m.Progress(); p < 0 || p > 1 {
			t.Fatalf("progress out of range: %g", p)
		}
	})
}

func TestFuturePipelineUsesOptimizerEstimate(t *testing.T) {
	// Three-table chain: while pipeline of the chain's builds run, the
	// probe pipeline is pending and contributes optimizer estimates.
	rng := rand.New(rand.NewSource(6))
	ta := table("a", randCol(rng, 100, 10))
	tb := table("b", randCol(rng, 100, 10))
	cat := catalog.New()
	cat.Register(ta)
	cat.Register(tb)
	j := exec.NewHashJoinOn(exec.NewScan(ta, ""), exec.NewScan(tb, ""), "a", "k", "b", "k")
	plan.EstimateCardinalities(j, cat)
	m := NewMonitor(j, ModeOnce)
	_, tTot := m.Totals()
	// T should include: both scans (100+100), join optimizer estimate.
	want := 200 + j.Stats().Estimate()
	if math.Abs(tTot-want) > 1e-6 {
		t.Errorf("T(Q) = %g, want %g", tTot, want)
	}
}

func TestMonitorAccessors(t *testing.T) {
	j, m := buildJoinQuery(t, 60, ModeOnce)
	if len(m.Pipelines()) != 2 {
		t.Errorf("pipelines = %d", len(m.Pipelines()))
	}
	if m.Mode() != ModeOnce {
		t.Error("mode accessor")
	}
	if m.OptimizerEstimate(j) <= 0 {
		t.Error("optimizer estimate not captured")
	}
}

func TestByteModeProgress(t *testing.T) {
	j, m := buildJoinQuery(t, 61, ModeByte)
	var last float64
	if _, err := runTicked(j, 200, func() {
		p := m.Progress()
		if p < 0 || p > 1 {
			t.Fatalf("byte progress out of range: %g", p)
		}
		last = p
	}); err != nil {
		t.Fatal(err)
	}
	if m.Progress() != 1 {
		t.Errorf("final = %g", m.Progress())
	}
	_ = last
}

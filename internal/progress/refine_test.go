package progress

import (
	"math"
	"math/rand"
	"testing"

	"qpi/internal/catalog"
	"qpi/internal/core"
	"qpi/internal/data"
	"qpi/internal/exec"
	"qpi/internal/plan"
)

func TestProgressIntervalBracketsEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ta := table("a", randCol(rng, 2000, 40))
	tb := table("b", randCol(rng, 3000, 40))
	cat := catalog.New()
	cat.Register(ta)
	cat.Register(tb)
	j := exec.NewHashJoinOn(exec.NewScan(ta, ""), exec.NewScan(tb, ""), "a", "k", "b", "k")
	plan.EstimateCardinalities(j, cat)
	att := core.Attach(j)
	m := NewMonitorWith(j, ModeOnce, att)

	var checked int
	if _, err := runTicked(j, 300, func() {
		p := m.Progress()
		lo, hi := m.ProgressInterval(0.95)
		if lo > p+1e-9 || hi < p-1e-9 {
			t.Fatalf("interval [%g, %g] does not bracket estimate %g", lo, hi, p)
		}
		if lo < 0 || hi > 1 {
			t.Fatalf("interval out of range: [%g, %g]", lo, hi)
		}
		checked++
	}); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no interval samples")
	}
	lo, hi := m.ProgressInterval(0.95)
	if math.Abs(lo-1) > 1e-9 || math.Abs(hi-1) > 1e-9 {
		t.Errorf("final interval = [%g, %g], want degenerate at 1", lo, hi)
	}
}

func TestProgressIntervalWithoutAttachment(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ta := table("a", randCol(rng, 100, 5))
	sc := exec.NewScan(ta, "")
	m := NewMonitor(sc, ModeDNE)
	lo, hi := m.ProgressInterval(0.95)
	if lo != m.Progress() && hi != m.Progress() {
		// Degenerate interval expected (point has no estimator CI).
		t.Errorf("interval [%g, %g] vs progress %g", lo, hi, m.Progress())
	}
}

func TestRefineFutureScalesWithRefinedInputs(t *testing.T) {
	// A pending join above a filter whose actual selectivity differs from
	// the optimizer guess: once the filter's dne estimate moves, the
	// future join estimate must move proportionally.
	rng := rand.New(rand.NewSource(11))
	ta := table("a", randCol(rng, 1000, 10))
	tb := table("b", randCol(rng, 1000, 10))
	cat := catalog.New()
	cat.Register(ta)
	cat.Register(tb)

	scanA := exec.NewScan(ta, "")
	// Filter keeps everything but the optimizer thinks it keeps 1/10.
	f := exec.NewFilter(scanA, alwaysTruePred{})
	j := exec.NewHashJoin(f, exec.NewScan(tb, ""), 0, 0)
	plan.EstimateCardinalities(j, cat)
	f.Stats().SetEstimate(100, "optimizer") // wrong guess: 10%
	origJoinEst := j.Stats().Estimate()

	m := NewMonitor(j, ModeOnce)
	// Drive the filter halfway: dne sees selectivity ~1.0.
	defer data.SetBatchSize(0)
	data.SetBatchSize(500)
	if err := f.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.NextColBatch(); err != nil {
		t.Fatal(err)
	}
	refined := m.refineFuture(j)
	if refined <= origJoinEst {
		t.Errorf("future join estimate %g should exceed optimizer %g after the filter refined upward",
			refined, origJoinEst)
	}
}

type alwaysTruePred struct{}

func (alwaysTruePred) Eval(data.Tuple) data.Value { return data.Bool(true) }
func (alwaysTruePred) String() string             { return "true" }

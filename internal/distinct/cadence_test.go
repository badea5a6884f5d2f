package distinct

import (
	"math/rand"
	"testing"

	"qpi/internal/data"
	"qpi/internal/zipf"
)

// Tests for Algorithm 3's cadence following a revised |T|, and for the
// dense profile evaluating in one order. The numbers are skew_pipeline's:
// the optimizer says |T| = 40, the aggregation's input is ~14 000 long.

// transitions turns a value stream into the group-count transitions a
// hash aggregation would report.
func transitions(vals []int64) []int64 {
	counts := map[int64]int64{}
	out := make([]int64, len(vals))
	for i, v := range vals {
		counts[v]++
		out[i] = counts[v]
	}
	return out
}

func TestSetTotalBeforeFirstTransitionEqualsFreshTracker(t *testing.T) {
	ns := transitions(drawAll(zipf.MustNew(600, 1, 5, 0), 14000))
	revised, fresh := NewProfileTracker(40, DefaultTau), NewProfileTracker(14000, DefaultTau)
	revised.SetTotal(14000)
	for i, n := range ns {
		revised.ObserveCount(n)
		fresh.ObserveCount(n)
		if revised.Estimate() != fresh.Estimate() || revised.MLEEstimate() != fresh.MLEEstimate() ||
			revised.Gamma2() != fresh.Gamma2() || revised.Recomputes() != fresh.Recomputes() {
			t.Fatalf("step %d: revised tracker %v/%v/%v/%d, fresh %v/%v/%v/%d", i,
				revised.Estimate(), revised.MLEEstimate(), revised.Gamma2(), revised.Recomputes(),
				fresh.Estimate(), fresh.MLEEstimate(), fresh.Gamma2(), fresh.Recomputes())
		}
	}
}

// revisable is what MLE, Chooser and ProfileTracker share through the
// embedded cadence.
type revisable interface {
	SetTotal(float64)
	Recomputes() int64
}

func TestTotalRevisedMidStreamBoundsRecomputes(t *testing.T) {
	const total, before = 14000, 1024
	vals := drawAll(zipf.MustNew(600, 1, 7, 0), total)
	ns := transitions(vals)
	lower, upper := int64(total*DefaultLowerFrac), int64(total*DefaultUpperFrac)

	tracker, chooser, mle := NewProfileTracker(40, DefaultTau), NewChooser(40, DefaultTau), NewMLE(40)
	feed := map[string]func(i int){
		"tracker": func(i int) { tracker.ObserveCount(ns[i]) },
		"chooser": func(i int) { chooser.Observe(data.Int(vals[i])) },
		"mle":     func(i int) { mle.Observe(data.Int(vals[i])) },
	}
	ests := map[string]revisable{"tracker": tracker, "chooser": chooser, "mle": mle}
	intervals := map[string]func() int64{
		"tracker": func() int64 { return tracker.interval },
		"chooser": func() int64 { return chooser.interval },
		"mle":     mle.Interval,
	}
	for name, est := range ests {
		for i := 0; i < before; i++ {
			feed[name](i)
		}
		// |T| = 40: l = u = 1, a recomputation per tuple so far.
		if got := est.Recomputes(); got != before {
			t.Fatalf("%s: %d recomputes in the first %d tuples at |T| = 40", name, got, before)
		}
		est.SetTotal(total)
		for i := before; i < total; i++ {
			feed[name](i)
			if iv := intervals[name](); iv < lower || iv > upper {
				t.Fatalf("%s: step %d: interval %d outside [%d, %d]", name, i, iv, lower, upper)
			}
		}
		if got, most := est.Recomputes()-before, total/lower+2; got > most {
			t.Errorf("%s: %d recomputes after the revision, want at most %d", name, got, most)
		}
	}
}

func TestTotalRevisedBelowSeenStillEndsExact(t *testing.T) {
	vals := drawAll(zipf.MustNew(300, 0, 9, 0), 5000)
	p := NewProfileTracker(5000, DefaultTau)
	for i, n := range transitions(vals) {
		if i == 2000 {
			p.SetTotal(100)
		}
		p.ObserveCount(n)
	}
	want := float64(distinctOf(vals))
	if got := p.Estimate(); got != want {
		t.Errorf("estimate past a total revised below t = %g, want the %g groups seen", got, want)
	}
	p.MarkExhausted()
	if p.Estimate() != want || p.MLEEstimate() != want || p.GEEEstimate() != want {
		t.Errorf("exhausted estimates %g/%g/%g, want %g", p.Estimate(), p.MLEEstimate(), p.GEEEstimate(), want)
	}
}

func TestDisableMLERecomputeSurvivesSetTotal(t *testing.T) {
	p := NewProfileTracker(40, -1)
	p.DisableMLERecompute()
	p.SetTotal(14000)
	for _, n := range transitions(drawAll(zipf.MustNew(50, 0, 3, 0), 5000)) {
		p.ObserveCount(n)
	}
	if p.Recomputes() != 0 || p.haveCache {
		t.Errorf("%d MLE recomputes ran despite being disabled", p.Recomputes())
	}
}

func TestExplicitIntervalIgnoresSetTotal(t *testing.T) {
	m := NewMLEWithInterval(1000, 100, 100, 0)
	m.SetTotal(1e9)
	for i := 0; i < 1000; i++ {
		m.Observe(data.Int(int64(i % 37)))
	}
	if m.Interval() != 100 || m.Recomputes() != 10 {
		t.Errorf("interval %d, %d recomputes; explicit bounds of 100 should give 10", m.Interval(), m.Recomputes())
	}
}

// randomProfile is a profile with counts on both sides of profileCap.
func randomProfile(rng *rand.Rand) (freqs map[int64]int64, t int64) {
	freqs = map[int64]int64{}
	for len(freqs) < 60 {
		j := int64(1 + rng.Intn(40))
		if rng.Intn(6) == 0 {
			j = int64(1 + rng.Intn(5000))
		}
		freqs[j] += int64(1 + rng.Intn(30))
	}
	for j, fj := range freqs {
		t += j * fj
	}
	return freqs, t
}

func TestProfileEvaluatesToOneValue(t *testing.T) {
	freqs, seen := randomProfile(rand.New(rand.NewSource(21)))
	total := float64(seen) * 7
	mle, g2 := MLEFromProfile(freqs, seen, total), Gamma2FromProfile(freqs, seen)
	chosen, _ := ChooseFromProfile(freqs, seen, total, DefaultTau)
	for i := 0; i < 1000; i++ {
		again, _ := ChooseFromProfile(freqs, seen, total, DefaultTau)
		if MLEFromProfile(freqs, seen, total) != mle || Gamma2FromProfile(freqs, seen) != g2 || again != chosen {
			t.Fatalf("evaluation %d of one profile differs from the first", i)
		}
	}
}

// TestDenseProfileMatchesMapProfile: the tracker's capped dense profile
// must read exactly (==) what the full map profile reads, hot groups far
// past the cap included, since their terms underflow to zero.
func TestDenseProfileMatchesMapProfile(t *testing.T) {
	vals := drawAll(zipf.MustNew(400, 2, 13, 0), 20000)
	p := NewProfileTracker(1e6, DefaultTau)
	p.DisableMLERecompute() // MLEEstimate then evaluates fresh
	counts, freqs := map[int64]int64{}, map[int64]int64{}
	var hottest int64
	for i, v := range vals {
		counts[v]++
		n := counts[v]
		if n > 1 {
			if freqs[n-1]--; freqs[n-1] == 0 {
				delete(freqs, n-1)
			}
		}
		freqs[n]++
		hottest = max(hottest, n)
		p.ObserveCount(n)
		if i%97 == 0 {
			if got, want := p.MLEEstimate(), MLEFromProfile(freqs, int64(i+1), 1e6); got != want {
				t.Fatalf("step %d: dense profile MLE %v, map profile %v", i, got, want)
			}
		}
	}
	if hottest <= profileCap {
		t.Fatalf("hottest group seen %d times: the stream never crossed the cap of %d", hottest, profileCap)
	}
}

var trackerSink float64

// BenchmarkProfileTrackerRevisedTotal is skew_pipeline's aggregation
// input as the tracker sees it: attached at the optimizer's |T| = 40,
// told the real length before the first of 14 000 Zipf(2) transitions.
// One tracker is reset in place, so steady state allocates nothing.
func BenchmarkProfileTrackerRevisedTotal(b *testing.B) {
	ns := transitions(drawAll(zipf.MustNew(2400, 2, 1, 0), 14000))
	b.ReportAllocs()
	p := NewProfileTracker(40, DefaultTau)
	for i := 0; i < b.N; i++ {
		f := p.prof.f
		clear(f)
		*p = ProfileTracker{}
		p.prof.f = f
		p.init(40, DefaultTau)
		p.SetTotal(float64(len(ns)))
		p.ObserveCounts(ns)
		trackerSink += p.Estimate()
	}
}

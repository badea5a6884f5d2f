package distinct

import (
	"math"
	"math/rand"
	"testing"

	"qpi/internal/zipf"
)

// mleFullLoop is the MLE sum without the dead-term stop: every non-zero
// f_j, ascending j. skipped counts the terms the stop would have skipped.
func mleFullLoop(f []int64, g, t int64, total float64) (est float64, skipped int) {
	if t == 0 {
		return 0, 0
	}
	if float64(t) >= total {
		return float64(g), 0
	}
	newGroups := 0.0
	stopped := false
	for j, fj := range f {
		if fj != 0 {
			stopped = stopped || deadTermBound(g, t)*expNegAt(int64(j)) < newGroups*0x1p-54 && newGroups >= 0x1p-900
			if stopped {
				skipped++
			}
			newGroups += mleTerm(int64(j), fj, float64(t))
		}
	}
	return float64(g) + newGroups, skipped
}

// TestMLEStopsOnlyAtDeadTerms: stopping the MLE sum at the first j whose
// terms can no longer reach half an ulp of the running sum gives the full
// loop's bits, in the dense form the trackers evaluate and in the map form
// the push-down evaluates. 300 Zipf streams over domains of 5 to 20 000
// values, skew 0 to 3 and stream totals up to 40× the prefix are checked
// at every 7th observation.
func TestMLEStopsOnlyAtDeadTerms(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	checks, skipped := 0, 0
	for s := 0; s < 300; s++ {
		domain := 5 + rng.Intn(20000)
		skew := 3 * rng.Float64()
		n := 200 + rng.Intn(2000)
		vals := drawAll(zipf.MustNew(domain, skew, int64(s), int64(s)), n)
		total := float64(n) * (1 + 39*rng.Float64())
		counts := map[int64]int64{}
		var p profile
		var g int64
		for i, v := range vals {
			counts[v]++
			if counts[v] == 1 {
				g++
			}
			p.shift(counts[v])
			if i%7 != 0 {
				continue
			}
			seen := int64(i + 1)
			want, skips := mleFullLoop(p.f, g, seen, total)
			skipped += skips
			if got := p.mle(g, seen, total); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("stream %d (domain %d, skew %.2f) at t=%d: dense MLE %v, full loop %v", s, domain, skew, seen, got, want)
			}
			freqs := map[int64]int64{}
			for j, fj := range p.f {
				if fj != 0 {
					freqs[int64(j)] = fj
				}
			}
			if p.over == 0 {
				if got := MLEFromProfile(freqs, seen, total); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("stream %d at t=%d: map MLE %v, full loop %v", s, seen, got, want)
				}
			}
			checks++
		}
	}
	t.Logf("%d checks, %d terms skipped", checks, skipped)
	if skipped < checks {
		t.Errorf("the stop skipped %d terms in %d checks: the streams do not exercise it", skipped, checks)
	}
}

// TestMLEDeadTermBoundHoldsTerms: the bound the stop rests on is above
// every computed term, for t up to 2^40 and j over the whole table.
func TestMLEDeadTermBoundHoldsTerms(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 20000; i++ {
		seen := int64(1) << rng.Intn(41)
		seen += rng.Int63n(seen)
		j := int64(1 + rng.Intn(profileCap-1))
		if term, b := mleTerm(j, 1, float64(seen)), deadTermBound(1, seen)*expNegAt(j); term > b {
			t.Fatalf("t=%d j=%d: term %v above the bound %v", seen, j, term, b)
		}
	}
}

var mleSink float64

// BenchmarkProfileMLE evaluates the MLE of skew_pipeline's aggregation
// input as the chooser does at every recompute: a Zipf(2) profile of
// 14 000 observations, against a |T| four times as long.
func BenchmarkProfileMLE(b *testing.B) {
	counts := map[int64]int64{}
	var p profile
	var g int64
	vals := drawAll(zipf.MustNew(2400, 2, 1, 0), 14000)
	for _, v := range vals {
		counts[v]++
		if counts[v] == 1 {
			g++
		}
		p.shift(counts[v])
	}
	seen, total := int64(len(vals)), 4*float64(len(vals))
	b.Run("stop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mleSink += p.mle(g, seen, total)
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			est, _ := mleFullLoop(p.f, g, seen, total)
			mleSink += est
		}
	})
}

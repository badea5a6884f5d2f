package distinct

import "math"

// chooserState is what the γ² chooser keeps per stream, updated from
// group-count transitions alone: the f_i profile, the GEE terms, Σ n_i²
// and Algorithm 3's schedule for the MLE value. Chooser and
// ProfileTracker embed it and differ only in where a transition comes
// from — the chooser's own value→count table, or a hash aggregation's.
type chooserState struct {
	cadence
	prof  profile // f_i profile, shared by MLE and γ²
	g     int64   // distinct groups seen
	t     int64
	total float64
	tau   float64

	singles int64   // GEE S₁
	multis  int64   // GEE Sₙ
	sumSq   float64 // Σ n_i² for γ²

	exhausted bool
}

func (s *chooserState) init(total, tau float64) {
	s.total, s.tau = total, tau
	s.scaled, s.k = true, DefaultK
	s.setTotal(total)
}

// observe consumes one transition: a group's count became n (1 = new
// group). Everything but the MLE value updates in O(1).
func (s *chooserState) observe(n int64) {
	switch n {
	case 1:
		s.g++
		s.singles++
	case 2:
		s.singles--
		s.multis++
	}
	s.prof.shift(n)
	s.sumSq += float64(2*n - 1)
	s.t++
	if s.due() {
		s.record(s.prof.mle(s.g, s.t, s.total))
	}
}

// SetTotal revises |T|, and with it Algorithm 3's recomputation bounds.
func (s *chooserState) SetTotal(total float64) {
	s.total = total
	s.setTotal(total)
}

// MarkExhausted freezes the estimator; the distinct count is now exact.
func (s *chooserState) MarkExhausted() { s.exhausted = true }

// Gamma2 returns the current squared coefficient of variation γ² of the
// observed group frequencies (0 when no groups): with g groups of
// frequencies n_i and t = Σ n_i, the mean is μ = t/g, the variance
// (Σ n_i²)/g − μ² and γ² = var/μ². Σ n_i² updates in O(1) per tuple
// (n−1 → n adds 2n−1).
func (s *chooserState) Gamma2() float64 {
	if s.g == 0 || s.t == 0 {
		return 0
	}
	mu := float64(s.t) / float64(s.g)
	variance := s.sumSq/float64(s.g) - mu*mu
	if variance < 0 {
		variance = 0
	}
	return variance / (mu * mu)
}

// UsingMLE reports which estimator is currently selected.
func (s *chooserState) UsingMLE() bool { return s.Gamma2() < s.tau }

// done reports that the whole stream has been seen: g is exact.
func (s *chooserState) done() bool { return s.exhausted || float64(s.t) >= s.total }

// Estimate returns the selected estimator's value.
func (s *chooserState) Estimate() float64 {
	if s.done() {
		return float64(s.g)
	}
	if s.UsingMLE() {
		return s.MLEEstimate()
	}
	return s.GEEEstimate()
}

// GEEEstimate returns the GEE value (Algorithm 2's O(1) terms).
func (s *chooserState) GEEEstimate() float64 {
	if s.t == 0 {
		return 0
	}
	if s.done() {
		return float64(s.g)
	}
	return math.Sqrt(s.total/float64(s.t))*float64(s.singles) + float64(s.multis)
}

// MLEEstimate returns the (interval-cached) MLE value.
func (s *chooserState) MLEEstimate() float64 {
	if s.done() {
		return float64(s.g)
	}
	if !s.haveCache {
		return s.prof.mle(s.g, s.t, s.total)
	}
	return s.cached
}

// Seen returns the number of values (transitions) observed.
func (s *chooserState) Seen() int64 { return s.t }

// DistinctSeen returns the number of groups observed.
func (s *chooserState) DistinctSeen() int64 { return s.g }

// ProfileTracker is the zero-hashing variant of the chooser: instead of
// maintaining its own value→count map, it consumes the per-tuple group
// count transitions that a hash aggregation already computes for free
// (exec.HashAgg's OnInputGroupCounts hook). This is the paper's actual
// integration — estimation interleaved with the operator's own
// partitioning work — and makes the per-tuple overhead a few arithmetic
// updates.
type ProfileTracker struct{ chooserState }

// NewProfileTracker creates a tracker for a stream of (estimated) length
// total with chooser threshold tau.
func NewProfileTracker(total, tau float64) *ProfileTracker {
	p := &ProfileTracker{}
	p.init(total, tau)
	return p
}

// ObserveCount consumes one tuple's group count transition: n is the
// tuple's group's new observation count (1 = new group).
func (p *ProfileTracker) ObserveCount(n int64) { p.observe(n) }

// ObserveCounts consumes a span of group-count transitions in order —
// the span-at-a-time form of ObserveCount, delivered once per columnar
// input batch. Tracker state (profile, moments, MLE recompute cadence)
// is identical to observing each transition individually.
func (p *ProfileTracker) ObserveCounts(ns []int64) {
	for _, n := range ns {
		p.observe(n)
	}
}

// DisableMLERecompute turns off the Algorithm 3 MLE recomputation —
// used when the caller only wants the O(1)-per-tuple GEE path (ablation
// and overhead measurements). It stays off when |T| is revised.
func (p *ProfileTracker) DisableMLERecompute() {
	p.setBounds(math.MaxInt64, math.MaxInt64, DefaultK)
}

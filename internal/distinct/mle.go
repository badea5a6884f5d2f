package distinct

import (
	"math"

	"qpi/internal/data"
)

// MLE is the paper's maximum-likelihood-based estimator for low-skew
// data (§4.2). With f_i the number of groups observed exactly i times in
// t values, ĝ = Σ f_i, and the MLE plug-ins p̂ = i/t, the estimate is
//
//	D_t = ĝ + Σ_i f_i·[(1−i/t)^t − (1−i/t)^{2t}]
//
// — the groups seen so far plus the expected number of new groups in the
// next t reads (the paper's expectation Σ(1−p)^t − Σ(1−p)^{2t} with MLE
// plug-ins; see DESIGN.md for the note on the corrupted exponent in the
// printed formula). The estimate is monotone in expectation, converges to
// the true count, rarely overestimates but is prone to underestimation —
// exactly the behaviour the paper reports.
//
// Unlike GEE the estimate cannot be updated in O(1) per tuple, so it is
// recomputed on Algorithm 3's adaptive interval (see cadence).
type MLE struct {
	cadence
	counts counter
	prof   profile // f_i: number of groups with count i
	t      int64
	total  float64

	// Horizon selects the extrapolating variant (extension, see
	// MLEHorizon): estimate new groups over the whole remaining stream
	// with a Horvitz–Thompson correction instead of one lookahead window.
	horizon bool

	exhausted bool
}

// NewMLE creates an MLE estimator for a stream of (estimated) length
// total, with the paper's default Algorithm 3 parameters.
func NewMLE(total float64) *MLE {
	m := &MLE{counts: newCounter(), total: total}
	m.scaled, m.k = true, DefaultK
	m.setTotal(total)
	return m
}

// NewMLEWithInterval creates an MLE estimator with explicit Algorithm 3
// parameters: recompute every `lower` tuples initially, doubling up to
// `upper` while consecutive estimates stay within relative k.
func NewMLEWithInterval(total float64, lower, upper int64, k float64) *MLE {
	m := &MLE{counts: newCounter(), total: total}
	m.setBounds(lower, upper, k)
	return m
}

// NewMLEHorizon creates the extrapolating variant: the lookahead covers
// the entire remaining stream via the Horvitz–Thompson correction
// D = Σ_i f_i·(1−(1−i/t)^|T|)/(1−(1−i/t)^t), trading the paper
// estimator's underestimation for a small overestimation risk.
func NewMLEHorizon(total float64) *MLE {
	m := NewMLE(total)
	m.horizon = true
	return m
}

// Observe implements Estimator.
func (m *MLE) Observe(v data.Value) {
	m.prof.shift(m.counts.incr(v))
	m.t++
	if m.due() {
		m.record(m.compute())
	}
}

// SetTotal revises |T|, and with it the default recomputation bounds.
func (m *MLE) SetTotal(total float64) {
	m.total = total
	m.setTotal(total)
}

// MarkExhausted freezes the estimator; the distinct count is now exact.
func (m *MLE) MarkExhausted() { m.exhausted = true }

// compute evaluates the MLE formula over the frequency-of-frequencies
// profile (O(distinct frequencies), typically far below O(groups)).
func (m *MLE) compute() float64 {
	if !m.horizon {
		return m.prof.mle(m.counts.distinct(), m.t, m.total)
	}
	if m.t == 0 {
		return 0
	}
	if float64(m.t) >= m.total {
		return float64(m.counts.distinct())
	}
	// Groups past the profile cap were certainly seen by t: they count
	// once each, as their term below would.
	t, est := float64(m.t), float64(m.prof.over)
	for i, fi := range m.prof.f {
		if fi == 0 {
			continue
		}
		q := 1 - float64(i)/t // (1 - p̂)
		if q <= 0 {
			est += float64(fi)
			continue
		}
		seenByT := 1 - math.Pow(q, t)
		if seenByT <= 0 {
			continue
		}
		seenByTotal := 1 - math.Pow(q, m.total)
		est += float64(fi) * seenByTotal / seenByT
	}
	return est
}

// Estimate implements Estimator. It returns the value from the most
// recent scheduled recomputation (Algorithm 3), falling back to a fresh
// computation before the first interval elapses.
func (m *MLE) Estimate() float64 {
	if m.haveCache && !m.exhausted && float64(m.t) < m.total {
		return m.cached
	}
	return m.EstimateFresh()
}

// EstimateFresh bypasses the recomputation schedule (used by tests and
// the chooser's final decisions).
func (m *MLE) EstimateFresh() float64 {
	if m.exhausted || float64(m.t) >= m.total {
		return float64(m.counts.distinct())
	}
	return m.compute()
}

// Seen implements Estimator.
func (m *MLE) Seen() int64 { return m.t }

// DistinctSeen implements Estimator.
func (m *MLE) DistinctSeen() int64 { return m.counts.distinct() }

// Interval returns the current recomputation interval — the Algorithm 3
// ablation measures it, and Recomputes, against a fixed interval.
func (m *MLE) Interval() int64 { return m.interval }

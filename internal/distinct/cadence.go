package distinct

import "sync/atomic"

// DefaultLowerFrac and DefaultUpperFrac are the paper's Algorithm 3
// parameters: l = 0.1% and u = 3.2% of the input size, doubling when the
// estimate moved less than 1%.
const (
	DefaultLowerFrac = 0.001
	DefaultUpperFrac = 0.032
	DefaultK         = 0.01
)

// cadence is Algorithm 3: the MLE value cannot be updated in O(1) per
// tuple, so it is recomputed on an adaptive interval. Starting from a
// lower bound l, the interval doubles whenever the value moved by less
// than k (relative) since the last recomputation, up to an upper bound u,
// and resets to l otherwise. MLE, Chooser and ProfileTracker embed the
// one copy of this state, so a revised |T| reaches every schedule.
type cadence struct {
	// scaled bounds are the paper's fractions of |T| and follow it when
	// it is revised; explicit bounds (NewMLEWithInterval, a disabled
	// recompute) stay where they were put.
	scaled       bool
	lower, upper int64
	k            float64
	interval     int64
	sinceRecomp  int64
	cached       float64
	haveCache    bool
	recomputes   atomic.Int64
}

// setBounds fixes explicit bounds l ≤ u and restarts the interval at l.
func (c *cadence) setBounds(lower, upper int64, k float64) {
	c.scaled, c.k = false, k
	c.lower = max(lower, 1)
	c.upper = max(upper, c.lower)
	c.interval = c.lower
}

// setTotal recomputes scaled bounds from the current |T| and clamps the
// running interval into them: an estimator attached with the optimizer's
// |T| = 40 and told the stream is 14 000 long recomputes every 14th
// tuple from then on, not every tuple for the rest of the pass.
func (c *cadence) setTotal(total float64) {
	if !c.scaled {
		return
	}
	c.lower = max(int64(total*DefaultLowerFrac), 1)
	c.upper = max(int64(total*DefaultUpperFrac), c.lower)
	c.interval = min(max(c.interval, c.lower), c.upper)
}

// due counts one observation and reports whether a recomputation is due.
func (c *cadence) due() bool {
	c.sinceRecomp++
	return c.sinceRecomp >= c.interval
}

// record stores a recomputed value and adapts the interval.
func (c *cadence) record(v float64) {
	old := c.cached
	c.cached, c.haveCache, c.sinceRecomp = v, true, 0
	c.recomputes.Add(1)
	if old > 0 && v > 0 {
		if ratio := old / v; ratio > 1-c.k && ratio < 1+c.k {
			c.interval = min(c.interval*2, c.upper)
			return
		}
	}
	c.interval = c.lower
}

// Recomputes returns how many MLE recomputations (Algorithm 3) have run.
func (c *cadence) Recomputes() int64 { return c.recomputes.Load() }

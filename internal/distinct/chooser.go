package distinct

import "qpi/internal/data"

// DefaultTau is the paper's γ² threshold: MLE is used while γ² < 10 and
// GEE otherwise (§5.1.4).
const DefaultTau = 10.0

// Chooser computes both the GEE and MLE estimates over a single shared
// set of counters and selects between them online using the squared
// coefficient of variation γ² of the observed group frequencies (§4.2
// end): low γ² means low skew, where MLE is the better estimator; high γ²
// means high skew, where GEE is.
//
// γ² and the GEE terms update in O(1) per tuple (Algorithm 2) and the MLE
// value is recomputed from the shared frequency profile on the paper's
// adaptive interval (Algorithm 3) — one hash update per tuple in total,
// which is what keeps the chooser lightweight.
type Chooser struct {
	chooserState
	counts counter
}

// NewChooser creates a chooser with threshold tau (use DefaultTau) over a
// stream of (estimated) length total.
func NewChooser(total float64, tau float64) *Chooser {
	c := &Chooser{counts: newCounter()}
	c.init(total, tau)
	return c
}

// Observe implements Estimator.
func (c *Chooser) Observe(v data.Value) { c.observe(c.counts.incr(v)) }

var (
	_ Estimator = (*GEE)(nil)
	_ Estimator = (*MLE)(nil)
	_ Estimator = (*Chooser)(nil)
)

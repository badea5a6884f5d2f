package core

import (
	"qpi/internal/data"
	"qpi/internal/distinct"
	"qpi/internal/exec"
	"qpi/internal/obs"
)

// AggEstimator refines the output-cardinality (number of groups) estimate
// of an aggregation operator online (§4.2). Two modes:
//
//   - Stream mode: the aggregation input is (approximately) randomly
//     ordered; a GEE/MLE chooser observes the grouping key of every input
//     tuple during the aggregation's blocking read.
//   - Push-down mode (§4.2 end): the input is the clustered output of a
//     join on the same attribute as the grouping. Estimation is pushed
//     into the join's probe pass: an output-distribution histogram
//     accumulates, per probe tuple with key v, the N^R_v output tuples
//     that v will produce, and the estimators run over that histogram's
//     frequency profile with |T| = the join's own online size estimate.
type AggEstimator struct {
	agg   exec.Operator // *exec.HashAgg or *exec.SortAgg
	total func() float64

	// Stream mode (SortAgg: the estimator hashes group keys itself).
	chooser *distinct.Chooser
	seen    int64

	// Tracker mode (HashAgg: rides the aggregation's own hash table via
	// the group-count hook — no extra hashing).
	tracker *distinct.ProfileTracker

	// Push-down mode.
	outHist  *FreqHistogram
	joinSize func() float64
	tau      float64

	// Observability: publish boundaries emit EstimateRefined events and
	// SourceTransition events for gee↔mle chooser flips (with the γ² skew
	// measure that crossed τ).
	refineTrace
}

// SetTracer routes the estimator's refinement events into tr (nil
// disables), caching the aggregation's label.
func (a *AggEstimator) SetTracer(tr *obs.Tracer) {
	a.bindTracer(tr, a.agg.Name(), "agg")
}

// newStreamAggEstimator attaches a chooser-based estimator fed by the
// aggregation's own input pass. total returns the current estimate of the
// aggregation input size |T|.
func newStreamAggEstimator(agg exec.Operator, total func() float64) *AggEstimator {
	a := &AggEstimator{agg: agg, total: total}
	a.chooser = distinct.NewChooser(total(), distinct.DefaultTau)
	return a
}

// newTrackerAggEstimator attaches a group-count-transition estimator that
// shares the hash aggregation's own table (§4.2's lightweight
// integration). total returns the current estimate of |T|.
func newTrackerAggEstimator(agg exec.Operator, total func() float64) *AggEstimator {
	a := &AggEstimator{agg: agg, total: total}
	a.tracker = distinct.NewProfileTracker(total(), distinct.DefaultTau)
	return a
}

// ObserveGroupCount processes one input tuple's group-count transition
// (tracker mode). |T| is refreshed before the first transition as well as
// every 1 024th: the estimator was attached with the optimizer's guess,
// and by the time the input pass begins the feeding operator usually
// knows better (a join's once-estimate is exact), so Algorithm 3's bounds
// start from the right total instead of recomputing per tuple until the
// first refresh.
func (a *AggEstimator) ObserveGroupCount(n int64) {
	if a.seen == 0 {
		a.tracker.SetTotal(a.total())
	}
	a.tracker.ObserveCount(n)
	a.seen++
	if a.seen%1024 == 0 {
		a.tracker.SetTotal(a.total())
		a.publish()
	}
}

// ObserveGroupCounts processes a span of group-count transitions — the
// span-at-a-time form of ObserveGroupCount, delivered once per columnar
// input batch. The tracker consumes the span in order and the |T|
// refresh / publish boundaries fall on the same absolute transition
// indexes as the per-transition hook, so estimator state is identical.
func (a *AggEstimator) ObserveGroupCounts(ns []int64) {
	if a.seen == 0 {
		a.tracker.SetTotal(a.total())
	}
	for len(ns) > 0 {
		chunk := 1024 - a.seen%1024
		if chunk > int64(len(ns)) {
			chunk = int64(len(ns))
		}
		a.tracker.ObserveCounts(ns[:chunk])
		a.seen += chunk
		ns = ns[chunk:]
		if a.seen%1024 == 0 {
			a.tracker.SetTotal(a.total())
			a.publish()
		}
	}
}

// newPushdownAggEstimator attaches a histogram-profile estimator over the
// output-distribution histogram hist, which the underlying join pipeline
// fills during its probe pass. joinSize returns the join's current
// output-size estimate.
func newPushdownAggEstimator(agg exec.Operator, hist *FreqHistogram, joinSize func() float64) *AggEstimator {
	return &AggEstimator{
		agg:      agg,
		outHist:  hist,
		joinSize: joinSize,
		tau:      distinct.DefaultTau,
	}
}

// ObserveInput processes one aggregation-input tuple (stream mode).
func (a *AggEstimator) ObserveInput(groupKey data.Value) {
	if a.seen == 0 {
		a.chooser.SetTotal(a.total())
	}
	a.chooser.Observe(groupKey)
	a.seen++
	if a.seen%1024 == 0 {
		a.chooser.SetTotal(a.total())
		a.publish()
	}
}

// pushdownTick is called (from the pipeline's probe pass) to refresh the
// published estimate periodically in push-down mode.
func (a *AggEstimator) pushdownTick() {
	a.seen++
	if a.seen%1024 == 0 {
		a.publish()
	}
}

// MarkInputEnd freezes the estimator when the observed stream ends.
func (a *AggEstimator) MarkInputEnd() {
	if a.chooser != nil {
		a.chooser.MarkExhausted()
	}
	if a.tracker != nil {
		a.tracker.MarkExhausted()
	}
	a.publish()
}

// Estimate returns the current number-of-groups estimate.
func (a *AggEstimator) Estimate() float64 {
	if a.chooser != nil {
		return a.chooser.Estimate()
	}
	if a.tracker != nil {
		return a.tracker.Estimate()
	}
	// Push-down: profile of the estimated output distribution.
	t := a.outHist.Total()
	if t == 0 {
		return a.agg.Stats().Estimate()
	}
	total := a.joinSize()
	if total < float64(t) {
		total = float64(t)
	}
	est, _ := distinct.ChooseFromProfile(a.outHist.Profile(), t, total, a.tau)
	return est
}

// Source describes which estimator currently backs Estimate.
func (a *AggEstimator) Source() string {
	switch {
	case a.chooser != nil:
		if a.chooser.UsingMLE() {
			return "mle"
		}
		return "gee"
	case a.tracker != nil:
		if a.tracker.UsingMLE() {
			return "mle"
		}
		return "gee"
	default:
		return "agg-pushdown"
	}
}

// Gamma2 returns the current skew measure.
func (a *AggEstimator) Gamma2() float64 {
	switch {
	case a.chooser != nil:
		return a.chooser.Gamma2()
	case a.tracker != nil:
		return a.tracker.Gamma2()
	default:
		return distinct.Gamma2FromProfile(a.outHist.Profile(), a.outHist.Total())
	}
}

func (a *AggEstimator) publish() {
	est, src := a.Estimate(), a.Source()
	a.agg.Stats().SetEstimate(est, src)
	var g2 float64
	if a.tr != nil && src != a.lastSrc {
		g2 = a.Gamma2() // only computed when a transition event will carry it
	}
	a.tracePublish(est, src, g2)
}

// Chooser exposes the stream-mode chooser (nil in tracker and push-down
// modes).
func (a *AggEstimator) Chooser() *distinct.Chooser { return a.chooser }

// Tracker exposes the tracker-mode estimator (nil otherwise).
func (a *AggEstimator) Tracker() *distinct.ProfileTracker { return a.tracker }

// OutputHistogram exposes the push-down output-distribution histogram
// (nil in stream mode).
func (a *AggEstimator) OutputHistogram() *FreqHistogram { return a.outHist }

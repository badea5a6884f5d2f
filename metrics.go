package qpi

import (
	"qpi/internal/exec"
)

// Metrics is a point-in-time roll-up of a query's execution counters —
// the numbers a monitoring system scrapes. Counters aggregate over the
// whole plan; the embedded Status carries the live gnm gauges.
type Metrics struct {
	Status
	// Tuples is Σ K_i: getnext() calls satisfied across all operators.
	Tuples int64
	// Batches counts the batches operators emitted (a row operator, such
	// as a merge join, counts none).
	Batches int64
	// SpillFiles counts spilled runs (grace partitions and sort runs);
	// an operator's runs share one temporary file. SpillBytes counts the
	// bytes written to them. Both move only under a memory budget.
	SpillFiles int64
	SpillBytes int64
	// EstimatorRecomputes counts online-estimator publish boundaries:
	// chain republishes (Algorithm 1), aggregate-chooser publishes and
	// MLE recomputations (Algorithm 3), and theta/disjunctive refreshes.
	EstimatorRecomputes int64
	// MLERecomputes is the part of EstimatorRecomputes that the GROUP BY
	// estimators' distinct-value choosers and trackers spent recomputing
	// the MLE (Algorithm 3); a query with no GROUP BY reads 0.
	MLERecomputes int64
	// HistogramProbes counts the join-histogram lookups Algorithm 1
	// specifies for the probe tuples the chain estimators have observed.
	// It is a logical count: the columnar lane kernel gathers once per
	// chain link and shares the lane between levels, and reports the same
	// number a per-row observation does.
	HistogramProbes int64
	// Pipelines carries the per-pipeline C/T gauges.
	Pipelines []PipelineStatus
}

// Metrics returns a live metrics snapshot. Safe to call from any
// goroutine while the query executes: every counter read is atomic.
func (q *Query) Metrics() Metrics {
	rep := q.Report()
	m := Metrics{Status: rep.Status, Pipelines: rep.Pipelines}
	exec.Walk(q.root, func(op exec.Operator) {
		st := op.Stats()
		m.Tuples += st.Emitted.Load()
		m.Batches += st.Batches.Load()
		m.SpillFiles += st.SpillFiles.Load()
		m.SpillBytes += st.SpillBytes.Load()
	})
	if q.att != nil {
		// The MLE share first: the total, read after, cannot be below it
		// on a running query.
		m.MLERecomputes = q.att.MLERecomputes()
		m.EstimatorRecomputes = q.att.Recomputes()
		m.HistogramProbes = q.att.HistogramProbes()
	}
	return m
}

// Package progress implements the getnext() model of query progress
// ("gnm", paper §3) and a monitor that combines it with the online
// estimation framework (§4.4):
//
//	progress = C(Q)/T(Q) = Σ_i K_i / Σ_i N_i
//
// over all operators i of the plan. The plan is decomposed into pipelines;
// completed pipelines contribute exact counts, the running pipeline's
// totals come from the online ("once") estimators, and pipelines yet to
// begin contribute optimizer estimates. The monitor can also be configured
// to ignore the once estimators and use the dne or byte refinement instead
// — the baselines of Figure 8.
package progress

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"qpi/internal/core"
	"qpi/internal/exec"
	"qpi/internal/obs"
	"qpi/internal/plan"
)

// Mode selects how running, unfinished operators' totals are estimated.
type Mode int

// Estimation modes.
const (
	// ModeOnce uses the paper's online framework where attached, with the
	// dne estimate for fallback operators (§4.4).
	ModeOnce Mode = iota
	// ModeDNE uses the driver-node estimator everywhere (the [9]
	// baseline).
	ModeDNE
	// ModeByte uses Luo et al.'s weighted refinement everywhere (the [18]
	// baseline).
	ModeByte
	// ModeRobust blends the online framework with the dne and byte
	// refinements per operator (König et al.-style estimator fusion):
	// exact totals are trusted outright, a live "once" estimate is
	// weighted 0.6 against 0.2 dne + 0.2 byte, and operators without a
	// push-down estimator average the two baselines. The blend bounds
	// the damage when any single estimator is briefly wrong.
	ModeRobust
)

func (m Mode) String() string {
	switch m {
	case ModeOnce:
		return "once"
	case ModeDNE:
		return "dne"
	case ModeRobust:
		return "robust"
	default:
		return "byte"
	}
}

// State is the lifecycle state of a monitored query. It starts as
// StateRunning and becomes terminal when the executor calls Finish, so a
// consumer polling a cancelled or failed query sees an explicit terminal
// state rather than a frozen progress value.
type State int32

// Query lifecycle states.
const (
	StateRunning State = iota
	StateDone
	StateCancelled
	StateFailed
)

func (s State) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateCancelled:
		return "cancelled"
	default:
		return "failed"
	}
}

// Monitor tracks the progress of one executing plan. Its pipelines and
// optimizer estimates are fixed at construction, so snapshots from any
// goroutine read them without a lock.
type Monitor struct {
	root      exec.Operator
	pipelines []*plan.Pipeline
	mode      Mode
	state     atomic.Int32 // State; written by Finish, read by snapshots

	// optimizer estimates captured at construction, per operator, so that
	// the dne/byte baselines always blend against the original optimizer
	// belief even after the online framework overwrote Stats.Estimate().
	optimizer map[exec.Operator]float64

	// att gives access to the chain estimators' confidence intervals
	// (ProgressInterval); nil outside ModeOnce.
	att *core.Attachment

	// trace, when bound, routes pipeline lifecycle events to a tracer. It
	// is published whole through an atomic pointer, so a snapshot racing
	// BindTracer sees either no tracer or a tracer with its flags.
	trace atomic.Pointer[pipelineTrace]
}

// pipelineTrace is a bound tracer with one-shot start/finish flags per
// pipeline; the flags make emission idempotent and safe from any
// goroutine that snapshots the monitor while the query runs.
type pipelineTrace struct {
	tr            *obs.Tracer
	started, done []atomic.Bool
}

// NewMonitor builds a monitor for a plan whose optimizer estimates have
// already been seeded (plan.EstimateCardinalities) and whose estimators
// have been attached (core.Attach) if mode is ModeOnce.
func NewMonitor(root exec.Operator, mode Mode) *Monitor {
	return NewMonitorWith(root, mode, nil)
}

// NewMonitorWith additionally hands the monitor the estimator attachment,
// enabling confidence intervals on the progress estimate.
func NewMonitorWith(root exec.Operator, mode Mode, att *core.Attachment) *Monitor {
	m := &Monitor{
		root:      root,
		pipelines: plan.Decompose(root),
		mode:      mode,
		optimizer: map[exec.Operator]float64{},
		att:       att,
	}
	exec.Walk(root, func(op exec.Operator) {
		m.optimizer[op] = op.Stats().Estimate()
	})
	return m
}

// Pipelines returns the plan's pipelines.
func (m *Monitor) Pipelines() []*plan.Pipeline { return m.pipelines }

// BindTracer routes pipeline lifecycle events (start, finish) into tr.
// Call before execution starts; nil disables.
func (m *Monitor) BindTracer(tr *obs.Tracer) {
	if tr == nil {
		m.trace.Store(nil)
		return
	}
	m.trace.Store(&pipelineTrace{
		tr:      tr,
		started: make([]atomic.Bool, len(m.pipelines)),
		done:    make([]atomic.Bool, len(m.pipelines)),
	})
}

// tracePipelines emits a one-shot Mark event the first time each pipeline
// is observed started and finished. Invoked from snapshots and Finish, so
// a pipeline that starts and completes between two ticks still gets both
// events (in order) at the next observation.
func (m *Monitor) tracePipelines() {
	pt := m.trace.Load()
	if pt == nil {
		return
	}
	for i, p := range m.pipelines {
		label := fmt.Sprintf("pipeline[%d]", p.ID)
		if p.Started() && pt.started[i].CompareAndSwap(false, true) {
			pt.tr.Mark(label, "start", 0, 0)
		}
		if p.Done() && pt.done[i].CompareAndSwap(false, true) {
			var c int64
			for _, op := range p.Ops {
				c += op.Stats().Emitted.Load()
			}
			pt.tr.Mark(label, "finish", c, 0)
		}
	}
}

// OptimizerEstimate returns the optimizer estimate captured for op at
// monitor construction (0 when unknown).
func (m *Monitor) OptimizerEstimate(op exec.Operator) float64 { return m.optimizer[op] }

// Mode returns the estimation mode.
func (m *Monitor) Mode() Mode { return m.mode }

// Finish records the query's terminal state from its execution error:
// nil is done, context cancellation or deadline expiry is cancelled,
// anything else is failed. Safe to call from the execution goroutine
// while other goroutines snapshot the monitor.
func (m *Monitor) Finish(err error) {
	switch {
	case err == nil:
		m.state.Store(int32(StateDone))
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		m.state.Store(int32(StateCancelled))
	default:
		m.state.Store(int32(StateFailed))
	}
	m.tracePipelines()
}

// State returns the query's lifecycle state.
func (m *Monitor) State() State { return State(m.state.Load()) }

// opTotal returns the monitor's belief about one operator's N_i.
func (m *Monitor) opTotal(op exec.Operator, pipelineStarted bool) float64 {
	st := op.Stats()
	if st.IsDone() {
		return float64(st.Emitted.Load())
	}
	if !pipelineStarted {
		// Future pipeline: optimizer estimate refined by propagating the
		// current beliefs about its inputs, with sanity bounds — the
		// [9]-style refinement of §4.4.
		return m.refineFuture(op)
	}
	switch m.mode {
	case ModeDNE:
		return floorAt(core.DNEEstimate(op, m.optimizer[op]), float64(st.Emitted.Load()))
	case ModeByte:
		return floorAt(core.ByteEstimate(op, m.optimizer[op]), float64(st.Emitted.Load()))
	case ModeRobust:
		em := float64(st.Emitted.Load())
		dne := floorAt(core.DNEEstimate(op, m.optimizer[op]), em)
		byt := floorAt(core.ByteEstimate(op, m.optimizer[op]), em)
		src := st.Source()
		switch {
		case src == "once-exact" || src == "exact" || src == "agg-pushdown":
			return st.Total()
		case strings.HasPrefix(src, "once") || src == "gee" || src == "mle":
			return floorAt(0.6*st.Total()+0.2*dne+0.2*byt, em)
		default:
			return (dne + byt) / 2
		}
	default:
		if strings.HasPrefix(st.Source(), "once") || st.Source() == "gee" ||
			st.Source() == "mle" || st.Source() == "agg-pushdown" || st.Source() == "exact" {
			return st.Total()
		}
		// §4.3/§4.4: operators without a push-down estimator use dne.
		return floorAt(core.DNEEstimate(op, m.optimizer[op]), float64(st.Emitted.Load()))
	}
}

// refineFuture estimates the total output of an operator in a pipeline
// that has not started, scaling the original optimizer estimate by how
// much the beliefs about its inputs have moved and clamping to structural
// bounds (a join cannot exceed the product of its refined inputs, a
// unary operator cannot exceed its input where output ≤ input holds).
func (m *Monitor) refineFuture(op exec.Operator) float64 {
	st := op.Stats()
	if st.IsDone() {
		return float64(st.Emitted.Load())
	}
	// An operator that has already produced output (its own pipeline is
	// running or done) carries a live estimate.
	if st.Emitted.Load() > 0 {
		return m.opTotal(op, true)
	}
	// Already refined by an online estimator (e.g. a converged chain
	// below a pending aggregation): trust it.
	if src := st.Source(); src != "optimizer" && src != "" {
		return st.Total()
	}
	children := op.Children()
	if len(children) == 0 {
		return st.Total()
	}
	refined := make([]float64, len(children))
	ratio := 1.0
	for i, c := range children {
		refined[i] = m.refineFuture(c)
		if orig := m.optimizer[c]; orig > 0 {
			ratio *= refined[i] / orig
		}
	}
	est := m.optimizer[op] * ratio
	// Structural bounds.
	switch op.(type) {
	case *exec.HashJoin, *exec.MergeJoin, *exec.NestedLoopsJoin:
		upper := 1.0
		for _, r := range refined {
			upper *= r
		}
		if est > upper {
			est = upper
		}
	case *exec.HashAgg, *exec.SortAgg:
		// An aggregation emits at most its input, and at most its
		// distinct-count belief (which survives input misestimates).
		if hint := st.GroupsHint; hint > 0 && est > hint {
			est = hint
		}
		if est > refined[0] {
			est = refined[0]
		}
	case *exec.Filter, *exec.Limit:
		if est > refined[0] {
			est = refined[0]
		}
	case *exec.Sort, *exec.Project:
		est = refined[0]
	}
	if est < 0 {
		est = 0
	}
	return est
}

// ProgressInterval returns a two-sided α confidence interval around the
// progress estimate, derived from the chain estimators' cardinality
// intervals (only meaningful with ModeOnce and an attachment; otherwise
// it degenerates to the point estimate).
func (m *Monitor) ProgressInterval(alpha float64) (lo, hi float64) {
	c, _ := m.totals()
	var tLo, tHi float64
	for _, p := range m.pipelines {
		started := p.Started()
		for _, op := range p.Ops {
			point := m.opTotal(op, started)
			l, h := point, point
			if m.att != nil && !op.Stats().IsDone() {
				if pe := m.att.ChainOf[op]; pe != nil && pe.ProbeTuplesSeen() > 0 {
					l, h = pe.ConfidenceInterval(m.att.LevelOf[op], alpha)
				}
			}
			if l > point {
				l = point
			}
			if h < point {
				h = point
			}
			tLo += l
			tHi += h
		}
	}
	if tHi <= 0 {
		return 0, 0
	}
	lo = c / tHi
	hi = 1.0
	if tLo > 0 {
		hi = c / tLo
	}
	if hi > 1 {
		hi = 1
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

func floorAt(v, lo float64) float64 {
	if v < lo {
		return lo
	}
	return v
}

// Totals returns C(Q) and the current estimate of T(Q).
func (m *Monitor) Totals() (c float64, t float64) {
	return m.totals()
}

func (m *Monitor) totals() (c float64, t float64) {
	for _, p := range m.pipelines {
		started := p.Started()
		for _, op := range p.Ops {
			c += float64(op.Stats().Emitted.Load())
			t += m.opTotal(op, started)
		}
	}
	return c, t
}

// Progress returns C(Q)/T(Q) in [0,1].
func (m *Monitor) Progress() float64 {
	c, t := m.Totals()
	if t <= 0 {
		return 0
	}
	p := c / t
	if p > 1 {
		p = 1
	}
	return p
}

// PipelineReport summarizes one pipeline for Report.
type PipelineReport struct {
	ID      int
	C       float64
	T       float64
	Started bool
	Done    bool
	Root    string
}

// Report is a point-in-time snapshot of query progress.
type Report struct {
	Progress  float64
	C, T      float64
	Mode      Mode
	State     State
	Pipelines []PipelineReport
}

// Report captures a full snapshot.
func (m *Monitor) Report() Report {
	m.tracePipelines()
	r := Report{Mode: m.mode, State: m.State()}
	for _, p := range m.pipelines {
		started := p.Started()
		pr := PipelineReport{ID: p.ID, Started: started, Done: p.Done(), Root: p.Root.Name()}
		for _, op := range p.Ops {
			pr.C += float64(op.Stats().Emitted.Load())
			pr.T += m.opTotal(op, started)
		}
		r.C += pr.C
		r.T += pr.T
		r.Pipelines = append(r.Pipelines, pr)
	}
	if r.T > 0 {
		r.Progress = r.C / r.T
		if r.Progress > 1 {
			r.Progress = 1
		}
	}
	return r
}

// String renders the report as a one-line progress summary plus one line
// per pipeline.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "progress %5.1f%%  (C=%.0f T=%.0f, mode=%s, %s)\n",
		100*r.Progress, r.C, r.T, r.Mode, r.State)
	for _, p := range r.Pipelines {
		state := "pending"
		if p.Done {
			state = "done"
		} else if p.Started {
			state = "running"
		}
		fmt.Fprintf(&b, "  P%d %-8s C=%-10.0f T=%-10.0f %s\n", p.ID, state, p.C, p.T, p.Root)
	}
	return b.String()
}

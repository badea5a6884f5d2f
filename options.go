package qpi

import (
	"qpi/internal/obs"
)

// Tracer collects the execution event stream — operator phase spans,
// estimator refinements, source transitions and pipeline lifecycle marks
// — when bound to a run with WithTrace. A nil *Tracer is a valid no-op
// sink; the hot path never pays more than a nil check for it.
type Tracer = obs.Tracer

// TraceEvent is one entry of a tracer's event stream.
type TraceEvent = obs.Event

// TraceEventKind discriminates TraceEvent entries (span begin/end, mark,
// estimate refinement, source transition).
type TraceEventKind = obs.EventKind

// Trace event kinds.
const (
	TraceSpanBegin        = obs.SpanBegin
	TraceSpanEnd          = obs.SpanEnd
	TraceMark             = obs.Mark
	TraceEstimateRefined  = obs.EstimateRefined
	TraceSourceTransition = obs.SourceTransition
)

// NewTracer creates an empty tracer whose event timestamps are relative
// to this call.
func NewTracer() *Tracer { return obs.New() }

// RunOption configures one execution (Run or Start). Options compose:
// progress callback, tracing and metrics can all be active at once.
type RunOption func(*runCfg)

type runCfg struct {
	onProgress func(Report)
	every      int64
	everySet   bool
	tracer     *obs.Tracer
	metrics    *Metrics
}

// defaultEvery is the work-based publication interval (tuples moved
// anywhere in the plan) used when no option picks one.
const defaultEvery = 4096

func newRunCfg(opts []RunOption) runCfg {
	cfg := runCfg{every: defaultEvery}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.every < 1 {
		cfg.every = 1
	}
	return cfg
}

// WithProgress invokes onProgress with a progress snapshot approximately
// every `every` units of work (tuples moved anywhere in the plan), at
// most once per batch, plus once with the terminal snapshot when
// execution finishes. The engine moves ~1024-row batches and publishes
// between them, where every operator's counters describe the same
// instant, so an interval below the batch size yields one snapshot per
// batch. every < 1 defaults to every unit of work.
func WithProgress(onProgress func(Report), every int64) RunOption {
	return func(c *runCfg) {
		c.onProgress = onProgress
		if !c.everySet {
			c.every = every
			if c.every < 1 {
				c.every = 1
			}
		}
	}
}

// WithInterval sets the work-based publication interval for Subscribe
// channels and metrics destinations (default 4096 units of work). It
// overrides the interval given to WithProgress.
func WithInterval(every int64) RunOption {
	return func(c *runCfg) {
		c.every = every
		c.everySet = true
	}
}

// WithTrace binds tr to the run: every operator emits phase spans
// (build, probe, partition passes, sort, merge, ...), the online
// estimators emit refinement and source-transition events, and the
// monitor emits pipeline lifecycle marks. A nil tracer disables tracing
// at effectively zero cost.
func WithTrace(tr *Tracer) RunOption {
	return func(c *runCfg) { c.tracer = tr }
}

// WithMetrics updates *dst with a metrics snapshot at every publication
// interval and once more when execution finishes. dst is written on the
// execution goroutine; read it after the run completes (or call
// Query.Metrics(), which is safe at any time, for live values).
func WithMetrics(dst *Metrics) RunOption {
	return func(c *runCfg) { c.metrics = dst }
}

// Package exec implements a pull-based (Open/NextColBatch/Close) query
// executor over column batches: table scans with block-level sampling,
// filters, projections, grace hash joins, sorts, sort-merge joins,
// nested-loops joins and hash/sort aggregation.
//
// Every operator counts the getnext() calls it has satisfied (paper §3's
// gnm work model) in its Stats — a batch of n live rows is n of them —
// and the join/sort/aggregation operators expose per-phase hooks (build
// and probe spans, group-count spans, sort input tuples, sample end) that
// the online estimation framework in internal/core attaches to. The
// executor itself knows nothing about estimation.
package exec

import (
	"context"
	"math"
	"sync/atomic"

	"qpi/internal/data"
	"qpi/internal/obs"
)

// Operator is the executor's one pull contract. NextColBatch returns the
// next batch of output rows, or nil when the stream is exhausted; the
// batch (struct, vectors, selection) is valid until the next NextColBatch
// call on the same operator — see the ColBatch ownership contract in
// internal/data/batch.go. Operators are single-use: Open, drain, Close.
type Operator interface {
	// Open prepares the operator (recursively opening children).
	Open() error
	// NextColBatch returns the next batch of output rows, or nil at end
	// of stream. A returned batch has at least one live row.
	NextColBatch() (*data.ColBatch, error)
	// Close releases resources (recursively closing children).
	Close() error
	// Schema describes the output tuples.
	Schema() *data.Schema
	// Children returns the input operators, left to right.
	Children() []Operator
	// Stats returns the operator's live counters; estimators and the
	// progress monitor read and write it during execution.
	Stats() *Stats
	// Name returns a short EXPLAIN-style label ("HashJoin", "Scan(t)").
	Name() string
}

// Stats carries the live execution counters of one operator.
//
// Emitted is the K_i of the gnm model: the number of getnext() calls this
// operator has satisfied. Every live field is atomic so progress
// monitors, metrics scrapers and the HTTP observability endpoint can
// read Stats from other goroutines while the plan runs, with no locks
// and a quiet race detector. The estimate of N_i — the total number of getnext() calls
// over the operator's lifetime — starts as the optimizer estimate and
// is refined online by the estimators; read it with Estimate/Source.
type Stats struct {
	Emitted atomic.Int64 // K_i: tuples emitted so far

	// Observability counters, incremented on amortized slow paths
	// (per batch, per spill switchover) so tracing them is ~free.
	Batches atomic.Int64 // batches emitted (a row operator counts none)
	// SpillFiles counts spilled runs (grace partitions and sort runs); an
	// operator's runs share one temporary file.
	SpillFiles atomic.Int64
	SpillBytes atomic.Int64 // bytes written to spilled runs

	estBits atomic.Uint64          // math.Float64bits of the N_i estimate
	estSrc  atomic.Pointer[string] // provenance (nil = not yet estimated)
	done    atomic.Bool            // operator exhausted (Emitted is exact N_i)

	// Plan-time fields, written before execution starts and constant
	// afterwards (safe to read concurrently without atomics).
	InputTotal int64 // leaf scans: total rows in the underlying table
	// GroupsHint preserves an aggregation's distinct-count belief before
	// it is capped at the (possibly misestimated) input cardinality, so
	// progress refinement can re-cap when the input belief changes.
	GroupsHint float64
	// BuildKeysHint is the optimizer's distinct count of a hash join's
	// single build key when the catalog knows the key column (ANALYZEd),
	// capped at the build row estimate (0 otherwise); the estimators
	// pre-size the build histogram with it.
	BuildKeysHint float64
	// BuildKeyRange is the catalog's [min, max] of that key when it is an
	// integer column; the estimators count a dense range in a flat lane.
	BuildKeyRange KeyRange
}

// KeyRange bounds an integer key to [Lo, Hi]. The zero value means no
// range is known, which is what a hand-wired plan (never run through the
// optimizer) carries.
type KeyRange struct {
	Lo, Hi int64
	Known  bool
}

// Interned provenance strings so SetEstimate does not allocate for the
// common sources on every estimator publish.
var (
	srcOptimizer = "optimizer"
	srcOnce      = "once"
	srcOnceExact = "once-exact"
	srcDNE       = "dne"
	srcByte      = "byte"
	srcExact     = "exact"
	srcGEE       = "gee"
	srcMLE       = "mle"
)

func internSource(s string) *string {
	switch s {
	case "optimizer":
		return &srcOptimizer
	case "once":
		return &srcOnce
	case "once-exact":
		return &srcOnceExact
	case "dne":
		return &srcDNE
	case "byte":
		return &srcByte
	case "exact":
		return &srcExact
	case "gee":
		return &srcGEE
	case "mle":
		return &srcMLE
	}
	// Copy only here: taking the parameter's own address would make it
	// escape — a 16-byte allocation — on the interned paths too.
	o := s
	return &o
}

// SetEstimate records a refined estimate of the operator's total output.
func (s *Stats) SetEstimate(total float64, source string) {
	s.estBits.Store(math.Float64bits(total))
	s.estSrc.Store(internSource(source))
}

// Estimate returns the current estimate of N_i.
func (s *Stats) Estimate() float64 {
	return math.Float64frombits(s.estBits.Load())
}

// Source returns the estimate's provenance: "optimizer", "once",
// "once-exact", "dne", "byte", "exact", ... ("" before any estimate).
func (s *Stats) Source() string {
	if p := s.estSrc.Load(); p != nil {
		return *p
	}
	return ""
}

// MarkDone records that the operator is exhausted (Emitted is exact N_i).
func (s *Stats) MarkDone() { s.done.Store(true) }

// IsDone reports whether the operator has been exhausted.
func (s *Stats) IsDone() bool { return s.done.Load() }

// Total returns the best current belief about N_i: exact when done,
// the refined estimate otherwise (never below what has already been
// emitted).
func (s *Stats) Total() float64 {
	emitted := float64(s.Emitted.Load())
	if s.done.Load() {
		return emitted
	}
	if est := s.Estimate(); est >= emitted {
		return est
	}
	return emitted
}

// base provides the shared bookkeeping for operators.
type base struct {
	stats  Stats
	schema *data.Schema

	// ctx is the plan's cancellation token, installed by Bind before
	// execution (nil = never cancelled). Operators poll it in their
	// NextColBatch loops and row steps so a cancelled or expired context
	// unwinds the whole plan within a bounded amount of work.
	ctx     context.Context
	ctxTick uint32

	// tr is the plan's tracer, installed by BindTracer before execution
	// (nil = tracing disabled). trLabel caches the operator's Name() at
	// bind time so emission sites never re-render labels.
	tr      *obs.Tracer
	trLabel string
}

func (b *base) Stats() *Stats        { return &b.stats }
func (b *base) Schema() *data.Schema { return b.schema }

// BindContext installs the plan's cancellation context (see Bind).
func (b *base) BindContext(ctx context.Context) { b.ctx = ctx }

// bindTracer installs the plan's tracer and the operator's cached label.
func (b *base) bindTracer(tr *obs.Tracer, label string) {
	b.tr = tr
	b.trLabel = label
}

// traceBegin opens a phase span if tracing is enabled. The nil-check is
// the entire cost of the disabled path at every emission site.
func (b *base) traceBegin(phase string) {
	if b.tr != nil {
		b.tr.Begin(b.trLabel, phase)
	}
}

// traceEnd closes a phase span with the phase's counters.
func (b *base) traceEnd(phase string, tuples, bytes, spills int64) {
	if b.tr != nil {
		b.tr.End(b.trLabel, phase, tuples, bytes, spills)
	}
}

// traceMark records a point event.
func (b *base) traceMark(phase string, tuples, bytes int64) {
	if b.tr != nil {
		b.tr.Mark(b.trLabel, phase, tuples, bytes)
	}
}

// tracing reports whether a tracer is bound (for sites that need to
// assemble counters before emitting).
func (b *base) tracing() bool { return b.tr != nil }

// TraceBinder is implemented by every operator embedding base; BindTracer
// uses it to thread a tracer through a plan.
type TraceBinder interface {
	bindTracer(tr *obs.Tracer, label string)
}

// BindTracer installs tr as the trace sink of every operator in the
// plan, caching each operator's Name() as its span label. Like Bind it
// must be called before Open; a nil tr is a no-op (and leaves the
// executor on its zero-cost untraced path).
func BindTracer(root Operator, tr *obs.Tracer) {
	if tr == nil {
		return
	}
	Walk(root, func(op Operator) {
		if tb, ok := op.(TraceBinder); ok {
			tb.bindTracer(tr, op.Name())
		}
	})
}

// pollCtx is the amortized per-tuple cancellation check: one increment
// and branch per call, a real ctx.Err() every 128th call, so the hot
// loops stay cheap while cancellation is still observed well within one
// batch of work.
func (b *base) pollCtx() error {
	if b.ctx == nil {
		return nil
	}
	if b.ctxTick++; b.ctxTick&127 != 0 {
		return nil
	}
	return b.ctx.Err()
}

// ctxErr checks cancellation directly; used at batch and phase
// boundaries where the check is already amortized over many tuples.
func (b *base) ctxErr() error {
	if b.ctx == nil {
		return nil
	}
	return b.ctx.Err()
}

// ContextBinder is implemented by every operator embedding base; Bind
// uses it to thread a cancellation context through a plan.
type ContextBinder interface {
	BindContext(ctx context.Context)
}

// Bind installs ctx as the cancellation token of every operator in the
// plan. Once bound, a cancelled (or deadline-expired) context makes
// NextColBatch return ctx.Err() within a bounded amount of work; the
// caller then unwinds via Close as with any other execution error, which
// releases spill files and buffered state. Bind must be called before
// Open; a nil ctx is a no-op.
func Bind(root Operator, ctx context.Context) {
	if ctx == nil {
		return
	}
	Walk(root, func(op Operator) {
		if b, ok := op.(ContextBinder); ok {
			b.BindContext(ctx)
		}
	})
}

// emit counts a tuple a row operator's row step produced and returns it.
func (b *base) emit(t data.Tuple) (data.Tuple, error) {
	b.stats.Emitted.Add(1)
	return t, nil
}

// finish marks a row operator done at the end of its row step.
func (b *base) finish() (data.Tuple, error) {
	b.stats.MarkDone()
	return nil, nil
}

// emitColBatch counts a lane operator's emission; nil or empty-selection
// batches mark the operator done.
func (b *base) emitColBatch(cb *data.ColBatch) (*data.ColBatch, error) {
	if cb == nil || cb.Live() == 0 {
		b.stats.MarkDone()
		return nil, nil
	}
	b.stats.Emitted.Add(int64(cb.Live()))
	b.stats.Batches.Add(1)
	return cb, nil
}

// Drain runs an opened operator to exhaustion, returning all live rows as
// tuples (copied out of the reused batches, safe to retain). It is a
// convenience for tests, examples and materializing consumers.
func Drain(op Operator) ([]data.Tuple, error) {
	var out []data.Tuple
	for {
		cb, err := op.NextColBatch()
		if err != nil {
			return out, err
		}
		if cb == nil {
			return out, nil
		}
		out = cb.ToTuples(out)
	}
}

// Run opens, drains and closes an operator, returning the live row count.
// It is the cheapest way to execute a query whose output is not needed:
// no tuples are materialized at the root.
func Run(op Operator) (int64, error) {
	if err := op.Open(); err != nil {
		return 0, err
	}
	var n int64
	for {
		cb, err := op.NextColBatch()
		if err != nil {
			op.Close()
			return n, err
		}
		if cb == nil {
			break
		}
		n += int64(cb.Live())
	}
	return n, op.Close()
}

// RunCol is Run.
//
// Deprecated: every operator is drained batch by batch; use Run.
func RunCol(op Operator) (int64, error) { return Run(op) }

// Walk visits op and all descendants in pre-order.
func Walk(op Operator, visit func(Operator)) {
	visit(op)
	for _, c := range op.Children() {
		Walk(c, visit)
	}
}

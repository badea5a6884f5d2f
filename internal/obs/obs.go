// Package obs is the execution observability layer: a lock-light,
// allocation-conscious event tracer that the executor, the online
// estimators and the progress monitor publish into.
//
// Design constraints (ISSUE 3):
//
//   - A disabled tracer must cost ~0 on the executor hot path. The
//     Tracer is therefore a concrete struct pointer, never an
//     interface: callers guard every emission site with a plain
//     `if tr != nil` nil-check, so the no-trace path is one predictable
//     branch and zero interface/argument allocation. All methods are
//     additionally nil-receiver safe, so cold paths may call them
//     unguarded.
//
//   - Events are appended under a single mutex. Emission sites are
//     deliberately coarse — phase boundaries, estimator publish
//     boundaries (every 64/1024 tuples), spill switchovers — never
//     per-tuple, so the lock is uncontended in practice even with the
//     parallel partition pass running.
//
//   - The event stream is replayable: every event carries a process-wide
//     monotone sequence number and the elapsed time since the tracer was
//     created, so span nesting and estimator convergence (the paper's
//     Figures 3-6 raw material) can be reconstructed offline.
package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// EventKind discriminates trace events.
type EventKind uint8

const (
	// SpanBegin opens an operator phase span ("build", "probe",
	// "partition[2]", "merge", ...).
	SpanBegin EventKind = iota + 1
	// SpanEnd closes the most recent span with the same Op and Phase,
	// carrying the phase's tuple/byte/spill counters.
	SpanEnd
	// Mark is a point event inside or outside any span ("spill",
	// "sample-end", "pipeline-start", ...).
	Mark
	// EstimateRefined records a refreshed cardinality estimate for one
	// operator (Estimate + Source are set).
	EstimateRefined
	// SourceTransition records an estimate-provenance change:
	// optimizer→once, once→once-exact, gee↔mle (Gamma2 set for chooser
	// flips crossing τ).
	SourceTransition
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case SpanBegin:
		return "begin"
	case SpanEnd:
		return "end"
	case Mark:
		return "mark"
	case EstimateRefined:
		return "estimate"
	case SourceTransition:
		return "transition"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one entry of the trace stream. Only the fields relevant to
// the Kind are populated; the zero value of the rest means "absent".
type Event struct {
	Seq     int64         // monotone per-tracer sequence number
	Elapsed time.Duration // since the tracer was created
	Kind    EventKind
	Op      string // operator label, e.g. "HashJoin(o_orderkey = l_orderkey)"
	Phase   string // span/mark name, or the refined level's label

	// Span/mark payload.
	Tuples int64 // tuples moved during the phase (SpanEnd) or at the mark
	Bytes  int64 // bytes moved/spilled during the phase
	Spills int64 // spilled runs produced during the phase

	// Estimator payload.
	Estimate float64 // refined N_i estimate (EstimateRefined)
	From     string  // previous source (SourceTransition)
	To       string  // new source (SourceTransition) or current source (EstimateRefined)
	Gamma2   float64 // squared coefficient of variation at a chooser flip
}

// String renders the event as one replay-log line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6d %12s %-10s %s", e.Seq, e.Elapsed.Round(time.Microsecond), e.Kind, e.Op)
	if e.Phase != "" {
		fmt.Fprintf(&b, " %s", e.Phase)
	}
	switch e.Kind {
	case SpanEnd, Mark:
		if e.Tuples != 0 {
			fmt.Fprintf(&b, " tuples=%d", e.Tuples)
		}
		if e.Bytes != 0 {
			fmt.Fprintf(&b, " bytes=%d", e.Bytes)
		}
		if e.Spills != 0 {
			fmt.Fprintf(&b, " spills=%d", e.Spills)
		}
	case EstimateRefined:
		fmt.Fprintf(&b, " est=%.1f source=%s", e.Estimate, e.To)
	case SourceTransition:
		fmt.Fprintf(&b, " %s->%s", e.From, e.To)
		if e.Gamma2 != 0 {
			fmt.Fprintf(&b, " gamma2=%.3f", e.Gamma2)
		}
	}
	return b.String()
}

// Tracer accumulates the event stream of one query execution. The zero
// value is not usable; construct with New. A nil *Tracer is a valid
// "tracing disabled" value: every method is a no-op on it, and hot
// paths should guard emission with a nil-check before building the
// event at all.
type Tracer struct {
	start time.Time

	mu     sync.Mutex
	seq    int64
	events []Event
}

// New returns an empty tracer whose clock starts now.
func New() *Tracer {
	return &Tracer{start: time.Now()}
}

// record stamps and appends one event.
func (t *Tracer) record(e Event) {
	if t == nil {
		return
	}
	elapsed := time.Since(t.start)
	t.mu.Lock()
	t.seq++
	e.Seq = t.seq
	e.Elapsed = elapsed
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Begin opens a phase span for op.
func (t *Tracer) Begin(op, phase string) {
	t.record(Event{Kind: SpanBegin, Op: op, Phase: phase})
}

// End closes a phase span, attaching the phase's counters.
func (t *Tracer) End(op, phase string, tuples, bytes, spills int64) {
	t.record(Event{Kind: SpanEnd, Op: op, Phase: phase, Tuples: tuples, Bytes: bytes, Spills: spills})
}

// Mark records a point event (spill switchover, sample boundary,
// pipeline start/finish).
func (t *Tracer) Mark(op, phase string, tuples, bytes int64) {
	t.record(Event{Kind: Mark, Op: op, Phase: phase, Tuples: tuples, Bytes: bytes})
}

// Refine records a refreshed cardinality estimate for op.
func (t *Tracer) Refine(op, detail string, estimate float64, source string) {
	t.record(Event{Kind: EstimateRefined, Op: op, Phase: detail, Estimate: estimate, To: source})
}

// Transition records an estimate-source change (optimizer→once,
// once→once-exact, gee↔mle). gamma2 carries the chooser's squared
// coefficient of variation when relevant, else 0.
func (t *Tracer) Transition(op, detail, from, to string, gamma2 float64) {
	t.record(Event{Kind: SourceTransition, Op: op, Phase: detail, From: from, To: to, Gamma2: gamma2})
}

// Events returns a snapshot copy of the stream so far, in emission
// order. Safe to call concurrently with emission.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	t.mu.Unlock()
	return out
}

// Len returns the number of events recorded so far.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	n := len(t.events)
	t.mu.Unlock()
	return n
}

// Dump renders the whole stream as a replay log, one event per line.
func (t *Tracer) Dump() string {
	evs := t.Events()
	var b strings.Builder
	for _, e := range evs {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

package qpi

import (
	"context"
	"sync"
	"time"
)

// Running is a query executing on a background goroutine. It is a thin
// consumer of the query's Subscribe stream: the execution goroutine
// publishes snapshots at work-based intervals into the bounded
// subscription channel, and Progress/Report/ETA drain it on demand,
// retaining the freshest snapshot. Draining on read (rather than on a
// background goroutine) keeps mid-flight progress deterministically
// visible: whatever the executor has published is observable
// immediately, regardless of scheduling.
type Running struct {
	mu      sync.Mutex
	sub     <-chan Report
	subOpen bool
	report  Report
	start   time.Time
	done    chan struct{}
	cancel  context.CancelFunc
	rows    int64
	err     error
}

// Start launches the query on a new goroutine. Options compose exactly
// as in Run: WithProgress, WithInterval, WithTrace, WithMetrics.
// Cancelling ctx (or calling Running.Cancel, which cancels a derived
// context) stops the query within one batch of work; the execution
// goroutine then unwinds every operator via Close — releasing spill
// files and buffered state — publishes a final snapshot whose State is
// "cancelled", and Wait returns context.Canceled (or
// context.DeadlineExceeded on an expired deadline). A Query can be
// started (or run) only once, even under concurrent Start calls. A nil
// ctx means context.Background().
func (q *Query) Start(ctx context.Context, opts ...RunOption) (*Running, error) {
	if err := q.claim(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	r := &Running{
		sub:     q.Subscribe(),
		subOpen: true,
		done:    make(chan struct{}),
		start:   time.Now(),
		cancel:  cancel,
	}
	cfg := newRunCfg(opts)
	go func() {
		defer close(r.done)
		defer cancel() // release the derived context's resources
		// execRun publishes the terminal snapshot to the subscription (and
		// any other subscribers) before done closes, so Wait-then-Report
		// always sees the terminal state.
		rows, err := q.execRun(ctx, &cfg, nil)
		r.mu.Lock()
		r.rows, r.err = rows, err
		r.mu.Unlock()
	}()
	return r, nil
}

// latest drains every snapshot buffered in the subscription and returns
// the freshest one. Caller holds r.mu.
func (r *Running) latest() Report {
	for r.subOpen {
		select {
		case rep, ok := <-r.sub:
			if !ok {
				r.subOpen = false
			} else {
				r.report = rep
			}
		default:
			return r.report
		}
	}
	return r.report
}

// Cancel stops the running query: execution returns context.Canceled
// within one batch of work and all operators unwind via Close. Idempotent
// and safe after completion.
func (r *Running) Cancel() { r.cancel() }

// Progress returns the latest published progress estimate in [0,1].
func (r *Running) Progress() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.latest().Progress
}

// Report returns the latest published snapshot. Once the query finishes,
// the snapshot's State is terminal: "done", "cancelled" or "failed".
func (r *Running) Report() Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.latest()
}

// ETA estimates the remaining execution time by combining the gnm work
// fractions with the observed work rate: remaining = elapsed·(T−C)/C.
// It returns (0, false) until enough work has been observed to
// extrapolate (C > 0), and (0, true) once done.
func (r *Running) ETA() (time.Duration, bool) {
	select {
	case <-r.done:
		return 0, true
	default:
	}
	r.mu.Lock()
	rep := r.latest()
	r.mu.Unlock()
	c, t := rep.C, rep.T
	if c <= 0 || t <= c {
		if c > 0 && t <= c {
			return 0, true
		}
		return 0, false
	}
	elapsed := time.Since(r.start)
	return time.Duration(float64(elapsed) * (t - c) / c), true
}

// Done returns a channel closed when execution finishes and the terminal
// snapshot has been published.
func (r *Running) Done() <-chan struct{} { return r.done }

// Wait blocks until the query completes and returns its row count. A
// cancelled query returns context.Canceled; an expired deadline returns
// context.DeadlineExceeded.
func (r *Running) Wait() (int64, error) {
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rows, r.err
}

package qpi

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"qpi/internal/data"
	"qpi/internal/exec"
)

// Tests for the query-lifecycle contract: single-use claiming is race
// free, Run/Start honour cancellation and deadlines in memory and
// spilling, the monitor lands in the matching terminal state, and nothing
// (goroutines, spill descriptors) leaks.

func bigJoinEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	e.MustCreateSkewedTable("r", 30000, 1, SkewedColumn{Name: "k", Domain: 500, Zipf: 1, PermSeed: 1})
	e.MustCreateSkewedTable("s", 40000, 2, SkewedColumn{Name: "k", Domain: 500, Zipf: 1, PermSeed: 2})
	return e
}

// TestQueryStartRace hammers the single-use claim from many goroutines:
// exactly one Run/Start may win. Run with -race.
func TestQueryStartRace(t *testing.T) {
	q := bigJoinEngine(t).MustQuery("SELECT r.k FROM r JOIN s ON r.k = s.k")
	const racers = 16
	var wg sync.WaitGroup
	wins := make(chan *Running, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r, err := q.Start(nil, WithInterval(1000)); err == nil {
				wins <- r
			}
		}()
	}
	wg.Wait()
	close(wins)
	var winners []*Running
	for r := range wins {
		winners = append(winners, r)
	}
	if len(winners) != 1 {
		t.Fatalf("%d of %d concurrent Starts won the claim, want exactly 1", len(winners), racers)
	}
	if _, err := winners[0].Wait(); err != nil {
		t.Fatal(err)
	}
	// The claim also blocks the synchronous entry points afterwards.
	if _, err := q.Run(nil); err == nil {
		t.Error("Run accepted an already-started query")
	}
	if _, err := q.Rows(); err == nil {
		t.Error("Rows accepted an already-started query")
	}
}

func TestRunExpiredDeadline(t *testing.T) {
	q := bigJoinEngine(t).MustQuery("SELECT r.k FROM r JOIN s ON r.k = s.k")
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := q.Run(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if st := q.Report().State; st != "cancelled" {
		t.Errorf("terminal state = %q, want cancelled", st)
	}
}

func TestRowsContextCancelled(t *testing.T) {
	q := bigJoinEngine(t).MustQuery("SELECT r.k FROM r JOIN s ON r.k = s.k")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := q.RowsContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if st := q.Report().State; st != "cancelled" {
		t.Errorf("terminal state = %q, want cancelled", st)
	}
}

// TestStartCancelMidFlight cancels via Running.Cancel while the join
// runs and checks the full contract: Wait returns context.Canceled, the
// published report has the cancelled terminal state, and the execution
// goroutine exits.
func TestStartCancelMidFlight(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts []CompileOption
	}{
		{"default", nil},
		{"spilling", []CompileOption{WithMemoryBudget(64 * 1024)}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			q := bigJoinEngine(t).MustQuery("SELECT r.k FROM r JOIN s ON r.k = s.k", mode.opts...)
			parked, resume := parkFirstScan(q, 5000)
			r, err := q.Start(context.Background(), WithInterval(500))
			if err != nil {
				t.Fatal(err)
			}
			<-parked
			r.Cancel()
			resume()
			if _, err := r.Wait(); !errors.Is(err, context.Canceled) {
				t.Fatalf("Wait = %v, want context.Canceled", err)
			}
			if st := r.Report().State; st != "cancelled" {
				t.Errorf("published terminal state = %q, want cancelled", st)
			}
			r.Cancel() // idempotent after completion
			deadline := time.Now().Add(3 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("goroutine leak: %d before, %d after", before, n)
			}
		})
	}
}

// parkFirstScan makes the plan's first scan block at its n-th tuple until
// resume is called; parked is closed when the scan reaches the gate.
func parkFirstScan(q *Query, n int) (parked chan struct{}, resume func()) {
	parked = make(chan struct{})
	gate := make(chan struct{})
	count := 0
	installed := false
	exec.Walk(q.root, func(op exec.Operator) {
		sc, ok := op.(*exec.Scan)
		if !ok || installed {
			return
		}
		installed = true
		prev := sc.OnTuple
		sc.OnTuple = func(tu data.Tuple) {
			if prev != nil {
				prev(tu)
			}
			if count++; count == n {
				close(parked)
				<-gate
			}
		}
	})
	var once sync.Once
	return parked, func() { once.Do(func() { close(gate) }) }
}

// TestStartProgressPublishes: a Running's published Progress must advance
// mid-flight (observed deterministically at a parked scan, strictly
// inside (0,1) in state running) and reach the terminal done state.
func TestStartProgressPublishes(t *testing.T) {
	q := bigJoinEngine(t).MustQuery("SELECT r.k FROM r JOIN s ON r.k = s.k")
	parked, resume := parkFirstScan(q, 20000)
	r, err := q.Start(context.Background(), WithInterval(500))
	if err != nil {
		t.Fatal(err)
	}
	<-parked
	if p := r.Progress(); p <= 0 || p >= 1 {
		t.Errorf("mid-flight progress = %g, want in (0,1)", p)
	}
	if st := r.Report().State; st != "running" {
		t.Errorf("mid-flight state = %q, want running", st)
	}
	resume()
	n, err := r.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("join produced no rows")
	}
	rep := r.Report()
	if rep.State != "done" {
		t.Errorf("terminal state = %q, want done", rep.State)
	}
	if rep.Progress < 0.999 {
		t.Errorf("final progress = %g, want ~1", rep.Progress)
	}
}

// TestDashboardShowsCancelled: a cancelled query's dashboard row reports
// the cancelled state, distinguishable from a stalled one.
func TestDashboardShowsCancelled(t *testing.T) {
	e := bigJoinEngine(t)
	q := e.MustQuery("SELECT r.k FROM r JOIN s ON r.k = s.k")
	d := NewDashboard()
	if err := d.Register("victim", q); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := q.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	snap := d.Snapshot()
	if len(snap) != 1 || snap[0].State != "cancelled" {
		t.Fatalf("dashboard snapshot = %+v, want one cancelled row", snap)
	}
}

package qpi

import (
	"context"
	"fmt"
	"math"
	"testing"
)

// Progress on the default (columnar) path is published at span
// boundaries, where every counter describes the same instant. These tests
// hold the public consumers — WithProgress, Subscribe, WithMetrics, which
// share one ticker — to the invariants that follow, on the TPC-H PK-FK
// join whose totals the optimizer knows exactly: work done and progress
// never fall, the total stays where it started, the last snapshot is
// exactly 1 in state "done", and a batch is published at most once.

const (
	pkfkSQL = "SELECT o.orderkey FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey"
	// pkfkTotal is T(Q) at SF 0.01: 15 000 orders + 60 000 lineitems
	// scanned, 60 000 rows joined, 60 000 projected.
	pkfkTotal = 195000
)

func pkfkEngine(t testing.TB) *Engine {
	t.Helper()
	e := New()
	e.MustLoadTPCH(TPCHConfig{SF: 0.01, Seed: 1, Tables: []string{"orders", "lineitem"}})
	return e
}

// checkProgressCurve checks one run's snapshots, terminal one last.
// batches is the number of batches the plan's operators emitted.
func checkProgressCurve(t *testing.T, snaps []Status, batches int64) {
	t.Helper()
	if len(snaps) < 2 {
		t.Fatalf("%d snapshots, want progress ticks and a terminal one", len(snaps))
	}
	if int64(len(snaps)) > batches+1 {
		t.Errorf("%d snapshots for %d batches: a batch was published more than once", len(snaps), batches)
	}
	var prev Status
	for i, s := range snaps {
		last := i == len(snaps)-1
		switch {
		case s.C < prev.C, !last && s.C == prev.C:
			t.Fatalf("snapshot %d: C = %v after %v", i, s.C, prev.C)
		case s.Progress < prev.Progress:
			t.Fatalf("snapshot %d: progress fell from %v to %v", i, prev.Progress, s.Progress)
		case math.Abs(s.T-pkfkTotal) > 0.01*pkfkTotal:
			t.Fatalf("snapshot %d: T = %v, want within 1%% of %d (C = %v)", i, s.T, pkfkTotal, s.C)
		case !last && s.State != "running":
			t.Fatalf("snapshot %d: state %q before the terminal snapshot", i, s.State)
		}
		prev = s
	}
	if prev.Progress != 1 || prev.State != "done" {
		t.Errorf("terminal snapshot: progress %v in state %q, want exactly 1 in \"done\"", prev.Progress, prev.State)
	}
}

func TestDefaultPathProgressConsistent(t *testing.T) {
	e := pkfkEngine(t)
	for _, est := range []struct {
		name string
		opts []CompileOption
	}{
		{"estimators", nil},
		{"no-estimators", []CompileOption{WithoutEstimators()}},
	} {
		for _, every := range []int64{4096, 5} {
			name := fmt.Sprintf("%s/every=%d", est.name, every)
			newQuery := func(t *testing.T) *Query {
				t.Helper()
				q, err := e.Query(pkfkSQL, est.opts...)
				if err != nil {
					t.Fatal(err)
				}
				return q
			}

			t.Run(name+"/WithProgress", func(t *testing.T) {
				q := newQuery(t)
				var snaps []Status
				n, err := q.Run(context.Background(), WithProgress(func(r Report) {
					snaps = append(snaps, r.Status)
				}, every))
				if err != nil || n != 60000 {
					t.Fatalf("Run = %d, %v", n, err)
				}
				checkProgressCurve(t, snaps, q.Metrics().Batches)
			})

			t.Run(name+"/Subscribe", func(t *testing.T) {
				q := newQuery(t)
				sub := q.Subscribe()
				done := make(chan error, 1)
				go func() {
					_, err := q.Run(context.Background(), WithInterval(every))
					done <- err
				}()
				// A slow reader loses the oldest snapshots, never the order.
				var snaps []Status
				for r := range sub {
					snaps = append(snaps, r.Status)
				}
				if err := <-done; err != nil {
					t.Fatal(err)
				}
				checkProgressCurve(t, snaps, q.Metrics().Batches)
			})

			t.Run(name+"/WithMetrics", func(t *testing.T) {
				q := newQuery(t)
				var m Metrics
				var snaps []Status
				// The destination is written after the callback returns, so
				// each callback reads the metrics of the tick before it.
				_, err := q.Run(context.Background(), WithMetrics(&m), WithProgress(func(Report) {
					if m.State != "" {
						snaps = append(snaps, m.Status)
					}
				}, every))
				if err != nil {
					t.Fatal(err)
				}
				snaps = append(snaps, m.Status)
				if m.Tuples != int64(m.C) {
					t.Errorf("terminal metrics: Tuples = %d, C = %v", m.Tuples, m.C)
				}
				checkProgressCurve(t, snaps, m.Batches)
			})
		}
	}
}

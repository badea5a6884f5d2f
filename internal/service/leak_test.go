package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qpi"
	"qpi/internal/vfs"
)

// TestChurnNoGoroutineOrFDLeaks drives the server with concurrent mixed
// traffic — completing queries, deadline-cancelled queries mid-spill,
// rejected statements — under a spill budget small enough that joins hit
// the disk, then asserts the service unwinds completely: every spill
// descriptor closed (via the FaultFS seam) and the goroutine count back
// at its baseline.
func TestChurnNoGoroutineOrFDLeaks(t *testing.T) {
	eng := qpi.New()
	eng.MustCreateSkewedTable("r", 12000, 1, qpi.SkewedColumn{Name: "k", Domain: 500, Zipf: 1, PermSeed: 1})
	eng.MustCreateSkewedTable("s", 12000, 2, qpi.SkewedColumn{Name: "k", Domain: 500, Zipf: 1, PermSeed: 2})

	// The deadline-bound requests self-join r on its Zipf key: the hot
	// keys line up, so the output runs to millions of rows and the
	// query is reliably still running when its 10 ms deadline hits. A
	// join of r and s, whose hot keys differ, can finish in less.
	const selfJoinSQL = "SELECT a.k FROM r a JOIN r b ON a.k = b.k"

	fault := vfs.NewFaultFS(nil)
	svc := newService(t, Config{
		Engine:       eng,
		GlobalBudget: 2 << 20,
		QueryBudget:  128 << 10, // small enough that the join spills
		MaxQueued:    64,
		QueueTimeout: time.Minute,
		SpillFS:      fault,
	})
	ts := httptest.NewServer(svc.Handler())

	baseline := runtime.NumGoroutine()

	const workers = 12
	const perWorker = 5
	var ok2xx, rejected atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var req queryRequest
				switch (w + i) % 3 {
				case 0: // completes, spilling
					req = queryRequest{SQL: joinSQL}
				case 1: // cancelled mid-execution by its deadline
					req = queryRequest{SQL: selfJoinSQL, DeadlineMs: 10}
				default: // quick aggregate, plan-cache traffic
					req = queryRequest{SQL: quickSQL, WantRows: true}
				}
				resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/query", req)
				switch {
				case resp.StatusCode == http.StatusOK:
					ok2xx.Add(1)
				case resp.StatusCode == http.StatusTooManyRequests:
					rejected.Add(1)
				default:
					t.Errorf("unexpected status %d", resp.StatusCode)
				}
			}
		}(w)
	}
	wg.Wait()

	st := svc.Stats()
	if got := st.Completed + st.Cancelled + st.Failed; got != ok2xx.Load() {
		t.Errorf("finished sessions = %d, want %d (200 responses)", got, ok2xx.Load())
	}
	if st.Failed != 0 {
		t.Errorf("failed sessions = %d, want 0", st.Failed)
	}
	if st.Cancelled == 0 {
		t.Error("no cancelled sessions — the deadline path was not exercised")
	}
	if st.SpillBytes == 0 || fault.Count(vfs.OpCreate) == 0 {
		t.Error("no spill traffic — the budget was not small enough to exercise spill cleanup")
	}
	if st.Admission.PeakGranted > st.Admission.Budget {
		t.Errorf("PeakGranted %d exceeded budget %d", st.Admission.PeakGranted, st.Admission.Budget)
	}

	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	ts.Client().CloseIdleConnections()

	if open := fault.OpenFiles(); open != 0 {
		t.Errorf("%d spill files still open after shutdown (of %d created)", open, fault.Count(vfs.OpCreate))
	}

	// Goroutines unwind asynchronously after connection close; poll with
	// a deadline before declaring a leak.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: baseline %d, now %d\n%s", baseline, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
	_ = rejected.Load() // 429s are acceptable under saturation; counted for the invariant above
}

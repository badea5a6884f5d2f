package service

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"qpi"
)

// testEngine builds a small two-table engine. With domain 500 the r ⋈ s
// join output is rows²/500 — large enough to take visible wall time at
// rows ≳ 30000, so cancellation and deadline tests have a window.
func testEngine(t testing.TB, rows int) *qpi.Engine {
	t.Helper()
	eng := qpi.New()
	eng.MustCreateSkewedTable("r", rows, 1, qpi.SkewedColumn{Name: "k", Domain: 500, Zipf: 1, PermSeed: 1})
	eng.MustCreateSkewedTable("s", rows, 2, qpi.SkewedColumn{Name: "k", Domain: 500, Zipf: 1, PermSeed: 2})
	return eng
}

func newService(t testing.TB, cfg Config) *Service {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

const quickSQL = "SELECT COUNT(*) c FROM r WHERE r.k < 50"
const joinSQL = "SELECT r.k FROM r JOIN s ON r.k = s.k"

// slowJoinRows sizes testEngine for the tests that need joinSQL to still
// be running when a 15-20 ms deadline or forced shutdown hits: its output
// grows with the square of the rows (14 M rows here), so it outlives them
// several times over however fast the join phase gets.
const slowJoinRows = 100000

func TestExecuteReturnsRows(t *testing.T) {
	svc := newService(t, Config{Engine: testEngine(t, 2000)})
	res, err := svc.Execute(context.Background(), ExecRequest{SQL: quickSQL, WantRows: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != "done" || res.Error != "" {
		t.Fatalf("state = %q (err %q), want done", res.State, res.Error)
	}
	if res.Rows != 1 || len(res.Data) != 1 {
		t.Fatalf("rows = %d, data = %v, want one aggregate row", res.Rows, res.Data)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "c" {
		t.Fatalf("columns = %v, want [c]", res.Columns)
	}
	if n, ok := res.Data[0][0].(int64); !ok || n <= 0 {
		t.Fatalf("count = %v, want positive int64", res.Data[0][0])
	}
	st := svc.Stats()
	if st.Completed != 1 || st.ActiveSessions != 0 {
		t.Errorf("stats = %+v, want 1 completed, 0 active", st)
	}
}

func TestExecuteParseErrorIsNotCached(t *testing.T) {
	svc := newService(t, Config{Engine: testEngine(t, 100)})
	for i := 0; i < 2; i++ {
		if _, err := svc.Execute(context.Background(), ExecRequest{SQL: "SELEKT nope"}); err == nil {
			t.Fatal("parse error not surfaced")
		}
	}
	cs := svc.Stats().PlanCache
	if cs.Size != 0 || cs.Misses != 2 {
		t.Errorf("cache stats after parse errors = %+v, want size 0, 2 misses", cs)
	}
}

func TestPlanCacheHitAndInvalidation(t *testing.T) {
	eng := testEngine(t, 2000)
	svc := newService(t, Config{Engine: eng})
	ctx := context.Background()

	if _, err := svc.Execute(ctx, ExecRequest{SQL: quickSQL}); err != nil {
		t.Fatal(err)
	}
	res, err := svc.Execute(ctx, ExecRequest{SQL: quickSQL})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("second execution of identical SQL missed the plan cache")
	}

	// Any catalog mutation — here a re-ANALYZE, the same bump CreateTable
	// and Insert issue — must invalidate the cached plan.
	if err := eng.Analyze("r"); err != nil {
		t.Fatal(err)
	}
	res, err = svc.Execute(ctx, ExecRequest{SQL: quickSQL})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("execution after catalog change still hit the stale plan")
	}
	cs := svc.Stats().PlanCache
	if cs.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", cs.Invalidations)
	}
	if cs.Hits != 1 || cs.Misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 1/2", cs.Hits, cs.Misses)
	}
}

func TestPlanCacheInvalidationOnCreateTableAndInsert(t *testing.T) {
	eng := testEngine(t, 500)
	svc := newService(t, Config{Engine: eng})
	ctx := context.Background()

	run := func() *ExecResult {
		t.Helper()
		res, err := svc.Execute(ctx, ExecRequest{SQL: quickSQL})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	run()
	if !run().CacheHit {
		t.Fatal("warm-up did not populate the cache")
	}

	tab, err := eng.CreateTable("extra", qpi.ColumnDef{Name: "x", Type: "int"})
	if err != nil {
		t.Fatal(err)
	}
	if run().CacheHit {
		t.Error("CreateTable did not invalidate the plan cache")
	}
	if !run().CacheHit {
		t.Fatal("cache not repopulated")
	}

	if err := tab.Insert(1); err != nil {
		t.Fatal(err)
	}
	if run().CacheHit {
		t.Error("Insert did not invalidate the plan cache")
	}
}

func TestDeadlineExpiresQuery(t *testing.T) {
	svc := newService(t, Config{Engine: testEngine(t, slowJoinRows)})
	res, err := svc.Execute(context.Background(), ExecRequest{SQL: joinSQL, Deadline: 15 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != "cancelled" {
		t.Fatalf("state = %q, want cancelled (deadline)", res.State)
	}
	if !strings.Contains(res.Error, "deadline") {
		t.Errorf("error = %q, want deadline exceeded", res.Error)
	}
	if st := svc.Stats(); st.Cancelled != 1 {
		t.Errorf("cancelled count = %d, want 1", st.Cancelled)
	}
}

func TestCancelRunningSession(t *testing.T) {
	svc := newService(t, Config{Engine: testEngine(t, 60000)})
	type outcome struct {
		res *ExecResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := svc.Execute(context.Background(), ExecRequest{SQL: joinSQL, Label: "victim"})
		done <- outcome{res, err}
	}()

	// Wait for the session to appear in the fleet view, then cancel it.
	var id string
	deadline := time.Now().Add(10 * time.Second)
	for id == "" {
		if time.Now().After(deadline) {
			t.Fatal("session never became active")
		}
		for _, info := range svc.Sessions() {
			if info.Active {
				id = info.ID
			}
		}
		time.Sleep(time.Millisecond)
	}
	if err := svc.Cancel(id); err != nil {
		t.Fatal(err)
	}
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.State != "cancelled" {
		t.Fatalf("state = %q, want cancelled", out.res.State)
	}
	if !strings.Contains(out.res.Error, "cancel") {
		t.Errorf("error = %q, want context canceled", out.res.Error)
	}

	// The retired session stays visible in the recent ring, inactive.
	found := false
	for _, info := range svc.Sessions() {
		if info.ID == id {
			found = true
			if info.Active {
				t.Error("finished session still marked active")
			}
			if info.State != "cancelled" {
				t.Errorf("recent session state = %q, want cancelled", info.State)
			}
			if info.Label != "victim" {
				t.Errorf("recent session label = %q, want victim", info.Label)
			}
		}
	}
	if !found {
		t.Error("finished session missing from the fleet view")
	}
	if err := svc.Cancel(id); !errors.Is(err, ErrSessionNotFound) {
		t.Errorf("cancelling a finished session: %v, want ErrSessionNotFound", err)
	}
}

func TestShutdownDrainsAndRejects(t *testing.T) {
	svc := newService(t, Config{Engine: testEngine(t, 2000)})
	ctx := context.Background()
	if _, err := svc.Execute(ctx, ExecRequest{SQL: quickSQL}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Execute(ctx, ExecRequest{SQL: quickSQL}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Execute after Shutdown = %v, want ErrShuttingDown", err)
	}
	if _, err := svc.Prepare(quickSQL); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Prepare after Shutdown = %v, want ErrShuttingDown", err)
	}
}

func TestShutdownForcedCancelsActive(t *testing.T) {
	svc := newService(t, Config{Engine: testEngine(t, slowJoinRows)})
	started := make(chan struct{})
	done := make(chan *ExecResult, 1)
	go func() {
		close(started)
		res, err := svc.Execute(context.Background(), ExecRequest{SQL: joinSQL})
		if err != nil {
			done <- nil
			return
		}
		done <- res
	}()
	<-started
	for len(svc.Sessions()) == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := svc.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced Shutdown = %v, want DeadlineExceeded", err)
	}
	res := <-done
	if res == nil {
		t.Fatal("in-flight query returned a pre-execution error")
	}
	if res.State != "cancelled" {
		t.Errorf("in-flight query state after forced shutdown = %q, want cancelled", res.State)
	}
}

package qpi

import (
	"strings"
	"sync"
	"testing"

	"qpi/internal/vfs"
)

func TestPrepareValidatesAndDescribes(t *testing.T) {
	e := testEngine(t)
	prep, err := e.Prepare("SELECT r.k FROM r JOIN s ON r.k = s.k WHERE r.k < 10")
	if err != nil {
		t.Fatal(err)
	}
	if got := prep.Columns(); len(got) != 1 || got[0] != "k" {
		t.Errorf("Columns() = %v, want [k]", got)
	}
	if !strings.Contains(prep.Explain(), "HashJoin") {
		t.Errorf("Explain() = %q, want a HashJoin plan", prep.Explain())
	}
	// It shows the plan that runs: pruned, the join narrowed to r.k.
	q, err := prep.NewQuery()
	if err != nil {
		t.Fatal(err)
	}
	if prep.Explain() != q.Explain() {
		t.Errorf("Explain() = %q, the compiled plan is %q", prep.Explain(), q.Explain())
	}
	if prep.SQL() == "" || !strings.Contains(prep.String(), "catalog v") {
		t.Errorf("SQL/String = %q / %q", prep.SQL(), prep.String())
	}

	// Errors surface at prepare time, not first execution.
	if _, err := e.Prepare("SELECT nope FROM r"); err == nil {
		t.Error("unknown column not caught at prepare time")
	}
	if _, err := e.Prepare("FROM WHERE"); err == nil {
		t.Error("parse error not caught at prepare time")
	}
}

func TestPreparedQueriesAreIndependent(t *testing.T) {
	e := testEngine(t)
	prep, err := e.Prepare("SELECT COUNT(*) c FROM r JOIN s ON r.k = s.k")
	if err != nil {
		t.Fatal(err)
	}
	// Each NewQuery is a fresh single-use execution; results agree and
	// concurrent executions of one handle are safe.
	var want int64 = -1
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q, err := prep.NewQuery()
			if err != nil {
				t.Error(err)
				return
			}
			rows, err := q.RowsContext(nil)
			if err != nil {
				t.Error(err)
				return
			}
			got := rows[0][0].(int64)
			mu.Lock()
			defer mu.Unlock()
			if want == -1 {
				want = got
			} else if got != want {
				t.Errorf("count = %d, earlier execution said %d", got, want)
			}
		}()
	}
	wg.Wait()
}

func TestPreparedStalenessTracksCatalog(t *testing.T) {
	e := testEngine(t)
	prep, err := e.Prepare("SELECT COUNT(*) c FROM r")
	if err != nil {
		t.Fatal(err)
	}
	if prep.Stale() {
		t.Fatal("fresh handle reports stale")
	}
	v0 := e.CatalogVersion()
	if prep.CatalogVersion() != v0 {
		t.Fatalf("prepared at v%d, engine at v%d", prep.CatalogVersion(), v0)
	}

	// Each mutation kind bumps the version exactly once.
	if err := e.Analyze("r"); err != nil {
		t.Fatal(err)
	}
	if e.CatalogVersion() != v0+1 {
		t.Errorf("Analyze: version %d, want %d", e.CatalogVersion(), v0+1)
	}
	tab, err := e.CreateTable("t", ColumnDef{Name: "x", Type: "int"})
	if err != nil {
		t.Fatal(err)
	}
	if e.CatalogVersion() != v0+2 {
		t.Errorf("CreateTable: version %d, want %d", e.CatalogVersion(), v0+2)
	}
	if err := tab.Insert(7); err != nil {
		t.Fatal(err)
	}
	if e.CatalogVersion() != v0+3 {
		t.Errorf("Insert: version %d, want %d", e.CatalogVersion(), v0+3)
	}
	if !prep.Stale() {
		t.Error("handle not stale after catalog changes")
	}

	// Stale handles still execute (against the current catalog).
	q, err := prep.NewQuery()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Run(nil); err != nil {
		t.Fatal(err)
	}
}

func TestWithSpillFSRoutesSpillIO(t *testing.T) {
	e := testEngine(t)
	fault := vfs.NewFaultFS(nil)
	q := e.MustQuery("SELECT r.k FROM r JOIN s ON r.k = s.k ORDER BY k",
		WithMemoryBudget(8*1024), WithSpillFS(fault))
	n, err := q.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("join returned no rows")
	}
	if fault.Count(vfs.OpCreate) == 0 {
		t.Fatal("spill I/O did not go through the injected FS")
	}
	if open := fault.OpenFiles(); open != 0 {
		t.Errorf("%d spill files still open after completion", open)
	}
}

package qpi

import (
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestSnapshotsWhileDraining reads a running query from a second
// goroutine — Report, Estimates, EstimateOf and Explain in a loop — while
// a three-join SQL query compiled through Engine.Compile (pruned,
// columnar) drains with a tracer bound. The join links, the monitor's
// pipelines and its optimizer estimates are written only at compile time,
// so these reads take no lock; under -race this is the witness that none
// is needed. Every snapshot must carry the labels the plan had before the
// run.
func TestSnapshotsWhileDraining(t *testing.T) {
	e := New()
	for i, name := range []string{"a", "b", "c", "d"} {
		e.MustCreateSkewedTable(name, 3000, int64(i+1),
			SkewedColumn{Name: "k", Domain: 300, Zipf: 1, PermSeed: int64(i + 1)},
			SkewedColumn{Name: "pad", Domain: 50, PermSeed: int64(i + 11)})
	}
	q := e.MustQuery("SELECT a.pad FROM a JOIN b ON a.k = b.k JOIN c ON a.k = c.k JOIN d ON a.k = d.k")
	if !strings.Contains(q.Explain(), "Scan(b)  (est=3000 cols=1 ") {
		t.Fatalf("scan of b not pruned to its join key:\n%s", q.Explain())
	}
	labelsOf := func(ests []OperatorEstimate) []string {
		out := make([]string, len(ests))
		for i, est := range ests {
			out[i] = est.Operator
		}
		return out
	}
	labels := labelsOf(q.Estimates())
	var joins []string
	for _, l := range labels {
		if strings.HasPrefix(l, "HashJoin(") {
			joins = append(joins, l)
		}
	}
	if len(joins) != 3 {
		t.Fatalf("want three joins, plan labels %v", labels)
	}

	// The first progress tick holds the executor until the reader has
	// taken one snapshot, so the reader is known to overlap the drain.
	read, stop := make(chan struct{}), make(chan struct{})
	var readOnce sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer readOnce.Do(func() { close(read) }) // never leave the executor waiting
		for {
			q.Report()
			if got := labelsOf(q.Estimates()); !slices.Equal(got, labels) {
				t.Errorf("labels changed mid-run: %v, want %v", got, labels)
				return
			}
			for _, l := range joins {
				if _, ok := q.EstimateOf(l); !ok {
					t.Errorf("EstimateOf(%q) unresolved mid-run", l)
					return
				}
			}
			q.Explain()
			readOnce.Do(func() { close(read) })
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var ticked sync.Once
	n, err := q.Run(nil, WithTrace(NewTracer()), WithProgress(func(Report) {
		ticked.Do(func() { <-read })
	}, 500))
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("query returned no rows")
	}
	if rep := q.Report(); rep.State != "done" || rep.Progress != 1 {
		t.Errorf("terminal report = %+v, want done at progress 1", rep.Status)
	}
	if got := labelsOf(q.Estimates()); !slices.Equal(got, labels) {
		t.Errorf("labels after the run %v, want %v", got, labels)
	}
}

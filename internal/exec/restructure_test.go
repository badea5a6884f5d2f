package exec

import (
	"sync"
	"testing"
)

// TestHashJoinLinksReadableDuringRestructure is the -race witness for the
// link lock: a monitor goroutine walks an unstarted chain — children,
// labels, schemas — while the executor's side swaps, relinks and replaces
// probes, as the re-optimizer does at a join's first pull. Every label
// read must be one the join actually had (rendered from a consistent set
// of links), and the join must end labelled for its final links.
func TestHashJoinLinksReadableDuringRestructure(t *testing.T) {
	a := NewScan(makeTable("a", []int64{1, 2, 3}), "")
	b := NewScan(makeTable("b", []int64{1, 2}), "")
	c := NewScan(makeTable("c", []int64{2, 3}), "")
	inner := NewHashJoinOn(a, b, "a", "k", "b", "k")
	top := NewHashJoin(c, inner, 0, 0)
	valid := map[string]bool{
		"HashJoin(a.k = b.k)": true, "HashJoin(b.k = a.k)": true,
		"HashJoin(c.k = a.k)": true,
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			Walk(top, func(op Operator) {
				if _, ok := op.(*HashJoin); ok && !valid[op.Name()] {
					t.Errorf("read label %q mid-restructure", op.Name())
				}
				if op.Schema().Len() == 0 {
					t.Errorf("%s: empty schema", op.Name())
				}
			})
		}
	}()
	for i := 0; i < 200; i++ {
		inner.SwapSides() // schema a,b <-> b,a: top's probe key moves
		top.Relink(inner, []int{i%2 ^ 1})
		top.ReplaceProbe(NewReorder(inner, []int{0, 1}))
		top.ReplaceProbe(inner)
	}
	close(stop)
	wg.Wait()
	if got, want := inner.Name(), "HashJoin(a.k = b.k)"; got != want {
		t.Errorf("inner join ends labelled %q, want %q", got, want)
	}
	if got, want := top.Name(), "HashJoin(c.k = a.k)"; got != want {
		t.Errorf("top join ends labelled %q, want %q", got, want)
	}
	if n, err := Run(top); err != nil || n != 1 {
		t.Errorf("restructured chain returned %d rows, %v; want the one row a, b and c share", n, err)
	}
}

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

// TestReorderProjects: a Reorder emits the child columns it names, in its
// order, on both pull contracts; it may leave child columns out, and
// panics on an index out of range or named twice.
func TestReorderProjects(t *testing.T) {
	mk := func() Operator {
		a := NewScan(makeTable("a", []int64{1, 2, 3}), "")
		b := NewScan(makeTable("b", []int64{2, 3, 4}), "")
		return NewHashJoinOn(a, b, "a", "k", "b", "k")
	}
	for _, columnar := range []bool{false, true} {
		r := NewReorder(mk(), []int{1})
		if got := r.Schema().String(); got != "(b.k BIGINT)" {
			t.Fatalf("projected schema %s", got)
		}
		if columnar {
			markColumnar(r)
		}
		rows := drainMode(t, r, columnar)
		if len(rows) != 2 || len(rows[0]) != 1 || rows[0][0].I+rows[1][0].I != 5 {
			t.Errorf("columnar %v: rows %v, want [2] and [3]", columnar, rows)
		}
	}
	for _, perm := range [][]int{{2}, {-1}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewReorder(%v) over two columns did not panic", perm)
				}
			}()
			NewReorder(mk(), perm)
		}()
	}
}

// TestRestructureNarrowedJoin: SwapSides resets a narrowed join to its
// whole output, and the parent takes a Reorder back to the probe schema it
// was pruned against — and refuses the full-width join itself.
func TestRestructureNarrowedJoin(t *testing.T) {
	a := NewScan(makeTable("a", []int64{1, 2, 3}), "")
	b := NewScan(makeTable("b", []int64{2, 3}), "")
	c := NewScan(makeTable("c", []int64{3, 4}), "")
	inner := NewHashJoinOn(a, b, "a", "k", "b", "k")
	top := NewHashJoin(c, inner, 0, 0)
	root := NewHashAgg(top, nil, []AggSpec{{Func: CountStar, Name: "n"}})
	Prune(root)
	if inner.Schema().Len() != 1 || top.Schema().Len() != 1 {
		t.Fatalf("pruned widths %d and %d, want 1 and 1", inner.Schema().Len(), top.Schema().Len())
	}
	inner.SwapSides()
	if got := inner.Schema().String(); got != "(b.k BIGINT, a.k BIGINT)" {
		t.Fatalf("swapped schema %s, want the whole b ⧺ a", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ReplaceProbe took a probe wider than the one the join was pruned against")
			}
		}()
		top.ReplaceProbe(inner)
	}()
	top.ReplaceProbe(NewReorder(inner, []int{1}))
	rows := drainMode(t, root, false)
	if len(rows) != 1 || rows[0][0].I != 1 {
		t.Errorf("restructured chain counted %v, want the one row a, b and c share", rows)
	}
}

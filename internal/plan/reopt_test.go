package plan

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"qpi/internal/core"
	"qpi/internal/exec"
	"qpi/internal/storage"
)

// Tests for mid-query re-optimization: the boundary hook re-orders and
// side-swaps unstarted join segments without changing a single output
// row, respects the started/unstarted barrier, and skips honestly when
// the shape is outside what the scout can cost.

// repTable builds a single-column table with keys 1..domain, each
// repeated per times.
func repTable(name string, domain, per int64) *storage.Table {
	var vals []int64
	for k := int64(1); k <= domain; k++ {
		for i := int64(0); i < per; i++ {
			vals = append(vals, k)
		}
	}
	return makeTable(name, vals)
}

// reoptTables is one fixture: a 200-row bottom stream, a 300-row
// high-multiplicity build (the expensive join), a 50-row selective
// build, and a small anchor build. Joining b1 below b0 streams 600
// intermediate rows; the other order streams 100.
type reoptTables struct {
	a0, b0, b1, b2 *storage.Table
}

func newReoptTables() reoptTables {
	return reoptTables{
		a0: repTable("a0", 100, 2), // bottom: 200 rows
		b0: repTable("b0", 10, 30), // hot build: 300 rows, 600 pairs vs a0
		b1: repTable("b1", 50, 1),  // selective build: 50 rows, 100 pairs
		b2: repTable("b2", 20, 1),  // anchor build
	}
}

// chain3 assembles b2 ⋈ (b1 ⋈ (b0 ⋈ a0)), all keyed on a0.k: the top
// join anchors the chain, [b1-join, b0-join] is the restructurable
// segment, and the b0 join sits in the worst position.
func chain3(tb reoptTables) (top, mid, low *exec.HashJoin) {
	c := exec.NewScan(tb.a0, "a0")
	low = exec.NewHashJoinOn(exec.NewScan(tb.b0, "b0"), c, "b0", "k", "a0", "k")
	mid = exec.NewHashJoinOn(exec.NewScan(tb.b1, "b1"), low, "b1", "k", "a0", "k")
	top = exec.NewHashJoinOn(exec.NewScan(tb.b2, "b2"), mid, "b2", "k", "a0", "k")
	return top, mid, low
}

func runSorted(t *testing.T, op exec.Operator) []string {
	t.Helper()
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

func rowsEq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// installReopt wires estimators, sketches and a Reoptimizer onto root.
func installReopt(root exec.Operator, cfg ReoptConfig) *Reoptimizer {
	att := core.Attach(root)
	sk := core.AttachSketches(root)
	r := NewReoptimizer(cfg, att)
	r.SetSketches(sk)
	r.Install(root)
	return r
}

func TestReoptForceReordersSegment(t *testing.T) {
	tb := newReoptTables()
	plain, _, _ := chain3(tb)
	want := runSorted(t, plain)
	if len(want) == 0 {
		t.Fatal("degenerate fixture: empty join output")
	}

	top, _, _ := chain3(tb)
	r := installReopt(top, ReoptConfig{Force: true, MaxPerms: 4})
	got := runSorted(t, top)

	if !rowsEq(got, want) {
		t.Fatalf("restructured plan rows differ: %d vs %d", len(got), len(want))
	}
	st := r.Stats()
	if st.Applied != 1 {
		t.Fatalf("Applied = %d, want 1 (stats %+v)", st.Applied, st)
	}
	ch := r.Changes()
	if len(ch) != 1 {
		t.Fatalf("Changes = %d entries", len(ch))
	}
	c := ch[0]
	if c.Swapped {
		t.Error("unexpected side swap")
	}
	if !c.AllUnstarted {
		t.Error("barrier witness false on an applied change")
	}
	if len(c.OldOrder) != 2 || c.OldOrder[0] != "b1" || c.OldOrder[1] != "b0" {
		t.Errorf("OldOrder = %v, want [b1 b0]", c.OldOrder)
	}
	if len(c.NewOrder) != 2 || c.NewOrder[0] != "b0" || c.NewOrder[1] != "b1" {
		t.Errorf("NewOrder = %v, want [b0 b1] (selective join pushed down)", c.NewOrder)
	}
	if c.Gain <= 0 {
		t.Errorf("Gain = %g, want > 0", c.Gain)
	}
	// The anchor's probe must now be the order-restoring wrapper.
	if _, ok := top.Probe().(*exec.Reorder); !ok {
		t.Errorf("anchor probe is %T, want *exec.Reorder", top.Probe())
	}
	// Deeper boundaries fired too and were refused by the level gate.
	if st.SkippedStarted == 0 {
		t.Error("no deep boundary was level-gated; hook wiring suspect")
	}
}

func TestReoptForceSwapsBuildSide(t *testing.T) {
	tb := newReoptTables()
	// Two-join chain: the segment is just the b0 join, whose 300-row
	// build outweighs the 200-row bottom stream — only a swap applies.
	mk := func() *exec.HashJoin {
		c := exec.NewScan(tb.a0, "a0")
		low := exec.NewHashJoinOn(exec.NewScan(tb.b0, "b0"), c, "b0", "k", "a0", "k")
		return exec.NewHashJoinOn(exec.NewScan(tb.b2, "b2"), low, "b2", "k", "a0", "k")
	}
	want := runSorted(t, mk())

	top := mk()
	r := installReopt(top, ReoptConfig{Force: true, MaxPerms: 4})
	got := runSorted(t, top)

	if !rowsEq(got, want) {
		t.Fatalf("swapped plan rows differ: %d vs %d", len(got), len(want))
	}
	ch := r.Changes()
	if len(ch) != 1 || !ch[0].Swapped {
		t.Fatalf("Changes = %+v, want one side swap", ch)
	}
	if !ch[0].AllUnstarted {
		t.Error("barrier witness false on an applied change")
	}
	reorder, ok := top.Probe().(*exec.Reorder)
	if !ok {
		t.Fatalf("anchor probe is %T, want *exec.Reorder", top.Probe())
	}
	// After the swap the segment's raw schema is a0-first; the wrapper
	// must restore b0-first for the anchor.
	if cols := reorder.Schema().Cols; cols[0].Table != "b0" {
		t.Errorf("restored schema starts at %s.%s, want b0.k", cols[0].Table, cols[0].Name)
	}
}

func TestReoptNormalModeNeedsTrigger(t *testing.T) {
	tb := newReoptTables()
	// Without a request or convergence signal, normal mode never even
	// evaluates: scouting is not free.
	top, _, _ := chain3(tb)
	r := installReopt(top, ReoptConfig{MinGain: 0.05, MaxPerms: 4})
	runSorted(t, top)
	if st := r.Stats(); st.Considered != 0 || st.Applied != 0 {
		t.Errorf("untriggered normal mode evaluated: %+v", st)
	}

	// An explicit request lands at the next boundary — the chain anchor.
	plain, _, _ := chain3(tb)
	want := runSorted(t, plain)
	top2, _, _ := chain3(tb)
	r2 := installReopt(top2, ReoptConfig{MinGain: 0.05, MaxPerms: 4})
	r2.RequestReopt()
	got := runSorted(t, top2)
	if !rowsEq(got, want) {
		t.Fatalf("requested-reopt rows differ: %d vs %d", len(got), len(want))
	}
	ch := r2.Changes()
	if len(ch) != 1 {
		t.Fatalf("Changes = %d entries, want 1", len(ch))
	}
	if ch[0].Trigger != "requested" {
		t.Errorf("Trigger = %q, want requested", ch[0].Trigger)
	}
	if ch[0].Gain < 0.05 {
		t.Errorf("Gain = %g below MinGain yet applied", ch[0].Gain)
	}
}

func TestReoptBarrierRefusesStartedSubtree(t *testing.T) {
	tb := newReoptTables()
	top, mid, _ := chain3(tb)
	r := installReopt(top, ReoptConfig{Force: true, MaxPerms: 4})

	// Start an operator inside the anchor's probe subtree, then fire the
	// boundary by hand: the barrier must refuse wholesale.
	if _, err := exec.Run(mid.Build()); err != nil {
		t.Fatal(err)
	}
	r.atBoundary(top)
	st := r.Stats()
	if st.Applied != 0 || len(r.Changes()) != 0 {
		t.Fatalf("restructured over a started subtree: %+v", st)
	}
	if st.SkippedStarted == 0 {
		t.Error("started subtree not counted as SkippedStarted")
	}
}

func TestReoptLevelGateRefusesDeepAnchors(t *testing.T) {
	tb := newReoptTables()
	top, mid, low := chain3(tb)
	r := installReopt(top, ReoptConfig{Force: true, MaxPerms: 4})
	r.atBoundary(mid)
	r.atBoundary(low)
	st := r.Stats()
	if st.Applied != 0 {
		t.Fatalf("deep boundary restructured: %+v", st)
	}
	if st.SkippedStarted != 2 {
		t.Errorf("SkippedStarted = %d, want 2 (both deep anchors)", st.SkippedStarted)
	}
}

func TestReoptScoutLimitSkipsHonestly(t *testing.T) {
	tb := newReoptTables()
	plain, _, _ := chain3(tb)
	want := runSorted(t, plain)

	top, _, _ := chain3(tb)
	r := installReopt(top, ReoptConfig{Force: true, MaxPerms: 4, ScoutRowLimit: 10})
	got := runSorted(t, top)
	if !rowsEq(got, want) {
		t.Fatalf("scout-limited plan rows differ")
	}
	st := r.Stats()
	if st.Applied != 0 || len(r.Changes()) != 0 {
		t.Fatalf("restructured despite un-scoutable inputs: %+v", st)
	}
	if st.SkippedUnresolvable == 0 {
		t.Error("oversized scout input not counted as SkippedUnresolvable")
	}
	if st.Scouts != 0 {
		t.Errorf("Scouts = %d, want 0 (limit refuses before reading)", st.Scouts)
	}
}

func TestReoptScoutCacheReusesPasses(t *testing.T) {
	tb := newReoptTables()
	top, _, _ := chain3(tb)
	r := installReopt(top, ReoptConfig{Force: true, MaxPerms: 4})
	runSorted(t, top)
	st := r.Stats()
	// Segment evaluation scouts b0, b1 and the bottom stream once each;
	// the post-restructure boundary re-evaluations must hit the cache.
	if st.Scouts != 3 {
		t.Errorf("Scouts = %d, want 3 (one pass per distinct source/column)", st.Scouts)
	}
	if st.Considered < 2 {
		t.Errorf("Considered = %d, want at least the anchor plus the new segment top", st.Considered)
	}
}

// TestReoptConcurrentRequests hammers RequestReopt from racing
// goroutines while a columnar plan runs with forced boundary
// evaluation: output rows must stay byte-identical, and every applied
// change must carry the barrier witness. Run under -race this is the
// adversarial timing test for the started/unstarted barrier.
func TestReoptConcurrentRequests(t *testing.T) {
	tb := newReoptTables()
	plain, _, _ := chain3(tb)
	want := runSorted(t, plain)

	for trial := 0; trial < 5; trial++ {
		top, mid, low := chain3(tb)
		for _, j := range []*exec.HashJoin{top, mid, low} {
			j.SetColumnar(true)
		}
		r := installReopt(top, ReoptConfig{Force: true, MaxPerms: 4})

		done := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
						r.RequestReopt()
					}
				}
			}()
		}
		if err := top.Open(); err != nil {
			t.Fatal(err)
		}
		rows, err := exec.DrainCol(exec.AsColOperator(top))
		if err != nil {
			t.Fatal(err)
		}
		if err := top.Close(); err != nil {
			t.Fatal(err)
		}
		close(done)
		wg.Wait()

		got := make([]string, len(rows))
		for i, row := range rows {
			got[i] = fmt.Sprint(row)
		}
		sort.Strings(got)
		if !rowsEq(got, want) {
			t.Fatalf("trial %d: rows differ under concurrent reopt requests: %d vs %d",
				trial, len(got), len(want))
		}
		for _, c := range r.Changes() {
			if !c.AllUnstarted {
				t.Fatalf("trial %d: change without barrier witness: %+v", trial, c)
			}
		}
	}
}

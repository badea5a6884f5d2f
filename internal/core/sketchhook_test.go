package core

import (
	"math"
	"testing"

	"qpi/internal/data"
	"qpi/internal/exec"
	"qpi/internal/qgen"
	"qpi/internal/sketch"
	"qpi/internal/storage"
)

// Tests for the ride-along sketch construction: every hash join's
// partition passes feed one build-key and one probe-key ColumnSketch,
// in every execution mode, and the sketches dot into join-size estimates
// within the Fast-AGMS error bound.

// agmsBound returns a ~8-sigma pairwise error bound from the sketches'
// own second-moment estimates (the true F2s are close at these sizes).
func agmsBound(a, b *sketch.FastAGMS, buckets int) float64 {
	return 8*math.Sqrt(a.SelfJoinSize()*b.SelfJoinSize()/float64(buckets)) + 1
}

func TestSketchRideAlongPairwiseAccuracy(t *testing.T) {
	shapes := []struct {
		name string
		mk   func() *exec.HashJoin
	}{
		{"fig3-binary", func() *exec.HashJoin { return fig3Plan(60) }},
		{"fig5-same-attr", func() *exec.HashJoin { return fig5Plan(61) }},
		{"fig6-case1", func() *exec.HashJoin { return fig6Plan(62, false) }},
		{"fig6-case2", func() *exec.HashJoin { return fig6Plan(63, true) }},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			top := sh.mk()
			s := AttachSketches(top)
			if _, err := exec.Run(top); err != nil {
				t.Fatal(err)
			}
			for _, j := range chainJoins(top) {
				js := s.Of(j)
				if js == nil {
					t.Fatalf("no sketches attached to %s", j.Name())
				}
				if got, want := js.Build.Rows, j.Build().Stats().Emitted.Load(); got != want {
					t.Errorf("%s: build sketch saw %d rows, pass emitted %d", j.Name(), got, want)
				}
				if got, want := js.Probe.Rows, j.Probe().Stats().Emitted.Load(); got != want {
					t.Errorf("%s: probe sketch saw %d rows, pass emitted %d", j.Name(), got, want)
				}
				est, err := s.JoinSizeEstimate(j)
				if err != nil {
					t.Fatal(err)
				}
				truth := float64(j.Stats().Emitted.Load())
				if bound := agmsBound(js.Build.AGMS, js.Probe.AGMS, s.cfg.Buckets); math.Abs(est-truth) > bound {
					t.Errorf("%s: estimate %g vs true %g differs by more than %g",
						j.Name(), est, truth, bound)
				}
			}
		})
	}
}

// TestSketchModesBitIdentical asserts the mode independence of the
// ride-along sketches: tuple and columnar partition passes produce
// bit-identical counters, because both sketch the same keys and counter
// updates are integer additions.
func TestSketchModesBitIdentical(t *testing.T) {
	type snapshot struct {
		buildCells, probeCells []int64
		buildRows, probeRows   int64
	}
	run := func(columnar bool) []snapshot {
		top := fig6Plan(64, true)
		if columnar {
			columnarize(top)
		}
		s := AttachSketches(top)
		if columnar {
			drainColPlan(t, top)
		} else if _, err := exec.Run(top); err != nil {
			t.Fatal(err)
		}
		var snaps []snapshot
		for _, j := range chainJoins(top) {
			js := s.Of(j)
			snaps = append(snaps, snapshot{
				buildCells: append(js.Build.AGMS.Cells(), js.Build.CM.Cells()...),
				probeCells: append(js.Probe.AGMS.Cells(), js.Probe.CM.Cells()...),
				buildRows:  js.Build.Rows,
				probeRows:  js.Probe.Rows,
			})
		}
		return snaps
	}
	want, got := run(false), run(true)
	if len(got) != len(want) {
		t.Fatalf("columnar: %d joins, want %d", len(got), len(want))
	}
	for i := range want {
		if !cellsEq(got[i].buildCells, want[i].buildCells) {
			t.Errorf("columnar join %d: build sketch cells differ from tuple mode", i)
		}
		if !cellsEq(got[i].probeCells, want[i].probeCells) {
			t.Errorf("columnar join %d: probe sketch cells differ from tuple mode", i)
		}
		if got[i].buildRows != want[i].buildRows || got[i].probeRows != want[i].probeRows {
			t.Errorf("columnar join %d: row tallies (%d,%d) differ from tuple mode (%d,%d)",
				i, got[i].buildRows, got[i].probeRows, want[i].buildRows, want[i].probeRows)
		}
	}
}

func cellsEq(a, b []int64) bool {
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

// TestSketchSetMultiwayEstimate checks the chain form on the Figure 5
// same-attribute shape, where the multi-way dot is meaningful:
// JoinSizeEstimate(lower, upper) estimates |A ⋈x B ⋈x C|.
func TestSketchSetMultiwayEstimate(t *testing.T) {
	top := fig5Plan(65)
	lower := top.Probe().(*exec.HashJoin)
	s := AttachSketches(top)
	if _, err := exec.Run(top); err != nil {
		t.Fatal(err)
	}
	est, err := s.JoinSizeEstimate(lower, top)
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(top.Stats().Emitted.Load())
	if truth == 0 {
		t.Fatal("degenerate shape: empty three-way join")
	}
	if rel := math.Abs(est-truth) / truth; rel > 0.15 {
		t.Errorf("three-way estimate %g vs true %g: relative error %g > 0.15", est, truth, rel)
	}

	if _, err := s.JoinSizeEstimate(); err == nil {
		t.Error("JoinSizeEstimate with no joins succeeded")
	}
	other := fig3Plan(66)
	if _, err := s.JoinSizeEstimate(other); err == nil {
		t.Error("JoinSizeEstimate over an unattached join succeeded")
	}
}

// TestSketchNullKeysSkipped joins two NULL-bearing qgen tables and
// checks the hooks tally NULL keys without sketching them: the
// pairwise estimate tracks the exact NULL-skipping join size.
func TestSketchNullKeysSkipped(t *testing.T) {
	c := qgen.Generate(99, qgen.DefaultOptions())
	if len(c.Tables) < 2 {
		t.Fatal("qgen produced fewer than two tables")
	}
	const keyCol = 1 // qgen's k column
	ta, tb := c.Tables[0], c.Tables[1]
	j := exec.NewHashJoinOn(exec.NewScan(ta, "ra"), exec.NewScan(tb, "rb"),
		"ra", "k", "rb", "k")
	s := AttachSketches(j)
	if _, err := exec.Run(j); err != nil {
		t.Fatal(err)
	}
	counts := func(tb *storage.Table) (map[data.Value]int64, int64) {
		m := map[data.Value]int64{}
		var nulls int64
		it := tb.SequentialOrder()
		for tup := it.Next(); tup != nil; tup = it.Next() {
			if tup[keyCol].IsNull() {
				nulls++
				continue
			}
			m[tup[keyCol]]++
		}
		return m, nulls
	}
	ca, nullsA := counts(ta)
	cb, nullsB := counts(tb)
	js := s.Of(j)
	if js.Build.Nulls != nullsA {
		t.Errorf("build sketch counted %d NULL keys, table has %d", js.Build.Nulls, nullsA)
	}
	if js.Probe.Nulls != nullsB {
		t.Errorf("probe sketch counted %d NULL keys, table has %d", js.Probe.Nulls, nullsB)
	}
	var truth float64
	for v, n := range ca {
		truth += float64(n) * float64(cb[v])
	}
	est, err := s.JoinSizeEstimate(j)
	if err != nil {
		t.Fatal(err)
	}
	if bound := agmsBound(js.Build.AGMS, js.Probe.AGMS, s.cfg.Buckets); math.Abs(est-truth) > bound {
		t.Errorf("estimate %g vs exact NULL-skipping join size %g differs by more than %g", est, truth, bound)
	}
}

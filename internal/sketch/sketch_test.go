package sketch_test

import (
	"math"
	"math/rand"
	"testing"

	"qpi/internal/data"
	"qpi/internal/qgen"
	"qpi/internal/sketch"
	"qpi/internal/storage"
)

func cellsEqual(a, b []int64) bool {
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

// TestCountMinOverestimateOnly asserts the count-min contract: every
// point estimate is >= the true count, and within the standard
// 2N/Buckets accuracy band (generous slack for the small widths).
func TestCountMinOverestimateOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		cfg := sketch.Config{Rows: 1 + rng.Intn(5), Buckets: 16 << rng.Intn(4), Seed: sketch.DefaultSeed}
		cm := sketch.NewCountMin(cfg)
		truth := map[uint64]int64{}
		n := 1 + rng.Intn(2000)
		for i := 0; i < n; i++ {
			// Zipf-ish: low items are hot.
			it := uint64(rng.Intn(1 + rng.Intn(200)))
			cm.Add(it)
			truth[it]++
		}
		var maxTrue int64
		for it, want := range truth {
			got := cm.Estimate(it)
			if got < want {
				t.Fatalf("trial %d: Estimate(%d)=%d underestimates true count %d", trial, it, got, want)
			}
			if slack := got - want; slack > 8*int64(n)/int64(cfg.Buckets)+1 {
				t.Fatalf("trial %d: Estimate(%d)=%d exceeds true %d by %d (> 8N/w)", trial, it, got, want, slack)
			}
			if want > maxTrue {
				maxTrue = want
			}
		}
		if cm.MaxEst() < maxTrue {
			t.Fatalf("trial %d: MaxEst %d below the true hottest frequency %d", trial, cm.MaxEst(), maxTrue)
		}
		if cm.Count() != int64(n) {
			t.Fatalf("trial %d: Count %d != %d", trial, cm.Count(), n)
		}
	}
}

// keyCounts tallies the non-NULL join keys of one qgen table column.
func keyCounts(tb *storage.Table, col int) (map[data.Value]int64, int64) {
	counts := map[data.Value]int64{}
	var nulls int64
	it := tb.SequentialOrder()
	for t := it.Next(); t != nil; t = it.Next() {
		v := t[col]
		if v.IsNull() {
			nulls++
			continue
		}
		counts[v]++
	}
	return counts, nulls
}

// TestFastAGMSAccuracyOnQgenTables builds ColumnSketches over the join
// keys of generated Zipf/correlated/NULL-heavy tables and checks the
// pairwise join-size estimate against the exact join size, within the
// documented Fast-AGMS error bound: |est - true| <= 6·sqrt(F2(R)·F2(S)/w)
// (the per-row standard error is sqrt(F2(R)·F2(S)/w); the median of 5
// rows at 6 sigma leaves no realistic failure mass, and the seeds are
// fixed so the test is deterministic).
func TestFastAGMSAccuracyOnQgenTables(t *testing.T) {
	const keyCol = 1 // qgen's k column
	cfg := sketch.DefaultConfig()
	for seed := int64(1); seed <= 25; seed++ {
		c := qgen.Generate(seed, qgen.DefaultOptions())
		for i := 0; i < len(c.Tables); i++ {
			for j := i + 1; j < len(c.Tables); j++ {
				sketches := make([]*sketch.ColumnSketch, 2)
				counts := make([]map[data.Value]int64, 2)
				for si, ti := range []int{i, j} {
					cs := sketch.NewColumnSketch(cfg)
					it := c.Tables[ti].SequentialOrder()
					for tup := it.Next(); tup != nil; tup = it.Next() {
						cs.Observe(tup[keyCol])
					}
					sketches[si] = cs
					counts[si], _ = keyCounts(c.Tables[ti], keyCol)
				}
				var truth, f2a, f2b float64
				for v, ca := range counts[0] {
					truth += float64(ca) * float64(counts[1][v])
				}
				for _, ca := range counts[0] {
					f2a += float64(ca) * float64(ca)
				}
				for _, cb := range counts[1] {
					f2b += float64(cb) * float64(cb)
				}
				est, err := sketch.JoinSizeEstimate(sketches[0].AGMS, sketches[1].AGMS)
				if err != nil {
					t.Fatal(err)
				}
				bound := 6*math.Sqrt(f2a*f2b/float64(cfg.Buckets)) + 1e-9
				if diff := math.Abs(est - truth); diff > bound {
					t.Fatalf("seed %d tables %d,%d: estimate %g vs true %g differs by %g > bound %g",
						seed, i, j, est, truth, diff, bound)
				}
			}
		}
	}
}

// TestValueItemJoinEquality pins the kind-tagged hashing to the
// executor's join-key equality: equal keys hash equal, keys of
// different kinds (Int(2) vs Float(2.0)) do not join and must not
// collide by construction.
func TestValueItemJoinEquality(t *testing.T) {
	if sketch.ValueItem(data.Int(2)) != sketch.ValueItem(data.Int(2)) {
		t.Fatal("equal int keys produced different items")
	}
	if sketch.ValueItem(data.Str("ab")) != sketch.ValueItem(data.Str("ab")) {
		t.Fatal("equal string keys produced different items")
	}
	if sketch.ValueItem(data.Int(2)) == sketch.ValueItem(data.Float(2.0)) {
		t.Fatal("Int(2) and Float(2.0) mapped to the same item, but they never join")
	}
	if sketch.IntItem(7) != sketch.ValueItem(data.Int(7)) {
		t.Fatal("IntItem disagrees with ValueItem on the same integer")
	}
}

// TestJoinSizeEstimateConfigMismatch asserts sketches of different
// families refuse to dot, and that a dot needs two sketches.
func TestJoinSizeEstimateConfigMismatch(t *testing.T) {
	a := sketch.NewFastAGMS(sketch.Config{Rows: 3, Buckets: 64, Seed: 1})
	b := sketch.NewFastAGMS(sketch.Config{Rows: 3, Buckets: 128, Seed: 1})
	if _, err := sketch.JoinSizeEstimate(a, b); err == nil {
		t.Fatal("JoinSizeEstimate across configs succeeded")
	}
	if _, err := sketch.JoinSizeEstimate(a); err == nil {
		t.Fatal("JoinSizeEstimate of one sketch succeeded")
	}
}

// TestCloneIndependence asserts Clone detaches the counters.
func TestCloneIndependence(t *testing.T) {
	cfg := sketch.Config{Rows: 2, Buckets: 16, Seed: sketch.DefaultSeed}
	a := sketch.NewFastAGMS(cfg)
	a.Add(1)
	cl := a.Clone()
	a.Add(2)
	if cl.Count() != 1 {
		t.Fatalf("clone count %d, want 1", cl.Count())
	}
	if cellsEqual(a.Cells(), cl.Cells()) {
		t.Fatal("clone shares state with original")
	}
}

package qpi

import (
	"runtime"
	"slices"
	"testing"

	"qpi/internal/data"
	"qpi/internal/exec"
	"qpi/internal/tpch"
)

// TestSkewedJoinsDoNotGrowTheHeap runs the same skewed columnar join ten
// times. Under Zipf(2) one grace partition holds most of lineitem, here
// on the probe side. When a partition was one buffer, the ColBatch pool
// handed the hot one to whichever partition asked next, and a pool that
// kept every buffer at the capacity it grew to ended with all of them
// sized for the hot partition — tens of megabytes more after every query
// (the tenth query left twice the third's heap). A probe partition is now
// a list of chunks of one size, so whatever the pool hands out fits
// whoever asks, and the heap that survives a collection stays where the
// third query left it.
func TestSkewedJoinsDoNotGrowTheHeap(t *testing.T) {
	e := New()
	e.MustLoadTPCH(TPCHConfig{SF: 0.02, Seed: 7, Skew: 2, Tables: []string{"orders", "lineitem", "part"}})
	const sql = "SELECT o.orderkey, l.partkey FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey JOIN part p ON p.partkey = l.partkey"
	heapStaysLevel(t, func() (int64, error) { return e.MustQuery(sql).Run(nil) })
}

// TestSkewedBuildSideDoesNotGrowTheHeap is the same check with the skewed
// relation on the build side, which is what still needs the pool's
// retention bound: probe partitions are lists of equal chunks, but a
// build partition is one batch that grows to its partition's size (the
// join table indexes one batch), and under Zipf(2) one of them is the
// size of the table. Without the bound this ran 41 -> 141 MB.
func TestSkewedBuildSideDoesNotGrowTheHeap(t *testing.T) {
	cat, err := tpch.Generate(tpch.Config{SF: 0.02, Seed: 7, Skew: 2, Tables: []string{"orders", "lineitem", "part"}})
	if err != nil {
		t.Fatal(err)
	}
	scan := func(name string) *exec.Scan { return exec.NewScan(cat.MustLookup(name).Table, "") }
	heapStaysLevel(t, func() (int64, error) {
		l, o, p := scan("lineitem"), scan("orders"), scan("part")
		lo := exec.NewHashJoin(l, o,
			l.Schema().MustResolve("lineitem", "orderkey"),
			o.Schema().MustResolve("orders", "orderkey")).SetColumnar(true)
		return exec.RunCol(exec.NewHashJoin(lo, p,
			lo.Schema().MustResolve("lineitem", "partkey"),
			p.Schema().MustResolve("part", "partkey")).SetColumnar(true))
	})
}

// heapStaysLevel runs the query ten times and holds the heap that
// survives a collection after the last three to 1.2x the heap after
// queries 3-5. The process-wide sync.Pools make the live heap alternate
// between two levels, by when GC last ran rather than by what the
// queries leave (one full run read 18.5 ... 21.4, 24.6 MB), so one query
// against one query failed whenever the two landed on different levels.
// Growth moves every later query: the lowest of the last three must still
// stay within bounds of the highest of the early ones.
func heapStaysLevel(t *testing.T, query func() (int64, error)) {
	t.Helper()
	if raceEnabled {
		t.Skip("under -race sync.Pool drops puts at random, so the live heap swings 36-58 MB from run to run at any commit; the plain run holds the bound")
	}
	live := make([]float64, 10)
	for i := range live {
		n, err := query()
		if err != nil || n == 0 {
			t.Fatalf("query %d: %d rows, %v", i+1, n, err)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		live[i] = float64(ms.HeapAlloc) / (1 << 20)
	}
	t.Logf("live heap after each query (MB): %.1f", live)
	if early, late := slices.Max(live[2:5]), slices.Min(live[7:]); late > 1.2*early {
		t.Errorf("live heap grew from at most %.1f MB after queries 3-5 to at least %.1f MB after queries 8-10", early, late)
	}
}

// TestSkewedJoinAllocatesLikeUniform pins what the chunked probe
// partitions bought: the same two-join query over the same number of rows
// allocates about as much per warm run whether the keys are uniform or
// Zipf(2). While a probe partition was one buffer grown by doubling, the
// hot partition outgrew what the pool would keep and was reallocated —
// lane by lane, doubling by doubling — in most queries: ten times the
// uniform run's bytes. Chunks all have the capacity the pool hands out,
// so the skewed run reuses them like the uniform one. Every pooled batch
// must also be back by the time Run returns.
func TestSkewedJoinAllocatesLikeUniform(t *testing.T) {
	const sql = "SELECT o.orderkey, l.partkey FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey JOIN part p ON p.partkey = l.partkey"
	perRun := func(skew float64) float64 {
		e := New()
		e.MustLoadTPCH(TPCHConfig{SF: 0.02, Seed: 7, Skew: skew, Tables: []string{"orders", "lineitem", "part"}})
		run := func() {
			pooled := data.ColBatchesOut()
			if n, err := e.MustQuery(sql).Run(nil); err != nil || n == 0 {
				t.Fatalf("skew %g: %d rows, %v", skew, n, err)
			}
			if out := data.ColBatchesOut(); out != pooled {
				t.Fatalf("skew %g: pooled batches held: %d before the query, %d after", skew, pooled, out)
			}
		}
		for i := 0; i < 3; i++ { // warm the pool
			run()
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs / (1 << 20)
	}
	uniform, skewed := perRun(0), perRun(2)
	t.Logf("allocated per warm run: uniform %.2f MB, Zipf(2) %.2f MB", uniform, skewed)
	if skewed > 1.5*uniform {
		t.Errorf("the skewed join allocates %.2f MB per warm run, the uniform one %.2f MB", skewed, uniform)
	}
}

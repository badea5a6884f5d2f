package qpi

import (
	"runtime"
	"testing"
)

// TestSkewedJoinsDoNotGrowTheHeap runs the same skewed columnar join ten
// times. Under Zipf(2) one grace partition holds most of lineitem; the
// ColBatch pool hands its buffer to whichever partition asks next, and a
// pool that kept every buffer at the capacity it grew to would end with
// all of them sized for the hot partition — tens of megabytes more after
// every query (the tenth query left twice the third's heap). With
// retention bounded by what a buffer's last user filled, the heap that
// survives a collection stays where the third query left it, give or
// take the hot partition's own buffers waiting in the pool.
func TestSkewedJoinsDoNotGrowTheHeap(t *testing.T) {
	e := New()
	e.MustLoadTPCH(TPCHConfig{SF: 0.02, Seed: 7, Skew: 2, Tables: []string{"orders", "lineitem", "part"}})
	const sql = "SELECT o.orderkey, l.partkey FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey JOIN part p ON p.partkey = l.partkey"
	live := make([]float64, 10)
	for i := range live {
		n, err := e.MustQuery(sql).Run(nil)
		if err != nil || n == 0 {
			t.Fatalf("query %d: %d rows, %v", i+1, n, err)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		live[i] = float64(ms.HeapAlloc) / (1 << 20)
	}
	t.Logf("live heap after each query (MB): %.1f", live)
	if third, tenth := live[2], live[9]; tenth > 1.2*third {
		t.Errorf("live heap grew from %.1f MB after the third query to %.1f MB after the tenth", third, tenth)
	}
}

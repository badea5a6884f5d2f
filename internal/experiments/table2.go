package experiments

import (
	"qpi/internal/core"
	"qpi/internal/data"
)

// Table2 reproduces Table 2: the memory footprint of the exact frequency
// histograms as a function of entry count. The paper stores 8 payload
// bytes per entry inside PostgreSQL's generic hash table and observes
// ~20 B/entry of structure overhead; we report the same payload
// accounting plus the allocation of the open-addressing table, and of the
// flat lane a histogram counts in when the catalog bounds its keys to a
// dense range (here [0, n), as TPC-H surrogate keys are).
func Table2(cfg Config) (*Table, error) {
	t := &Table{
		Title:   "Table 2: memory overheads of histograms",
		Headers: []string{"#Values", "Mem. Used", "Mem. Alloc.", "Dense Alloc."},
	}
	sizes := []int64{1000, 10000, 100000, 1000000}
	if cfg.Rows < 150000 {
		// Scaled-down runs keep the largest size affordable.
		sizes = []int64{1000, 10000, 100000}
	}
	for _, n := range sizes {
		h, dense := core.NewFreqHistogram(), core.NewFreqHistogram()
		dense.ReserveRange(int(n), 0, n-1)
		for i := int64(0); i < n; i++ {
			h.Add(data.Int(i))
			dense.Add(data.Int(i))
		}
		t.AddRow(itoa(n), humanBytes(h.MemoryUsed()), humanBytes(h.MemoryAllocated()), humanBytes(dense.MemoryAllocated()))
	}
	return t, nil
}

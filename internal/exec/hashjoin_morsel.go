package exec

import (
	"sync"

	"qpi/internal/data"
)

// This file implements morsel-driven parallel scans for the columnar
// grace partition passes (HyPer-style, after Leis et al.): when a pass's
// child is a plain sequential Scan, the pass skips the single-reader
// pipeline entirely — Workers() scan workers claim fixed-size block-range
// morsels from an atomic counter (storage.MorselSource), scatter their
// batches into worker-private lane partitions, and merge at the pass
// barrier. A pass whose child is not an eligible scan falls back to the
// serial columnar pass, so a join can run its build pass morselized and
// its probe pass not. It is the engine's only intra-query parallelism.
//
// Hook contract under concurrent scans. The worker-indexed span hooks
// (OnBuildColBatch/OnProbeColBatch) fire lock-free on the worker that
// owns the batch — the estimation framework backs them with per-worker
// shards merged at the barrier, and the merge order is fixed (worker
// 0..K-1), so estimator state is bit-identical to the serial pass:
// histogram counts are integers and the probe moment sums accumulate
// integer-valued float64 deltas, both order-independent. Per-tuple hooks
// (Scan.OnTuple, OnBuildTuple/OnProbeTuple — the progress monitors'
// sampling tickers) and the serial span hooks fire under a per-pass
// mutex: exclusive but order-nondeterministic, which is sound because
// those consumers only bump counters and read atomic Stats snapshots. The
// worker join (WaitGroup) is the happens-before edge to everything the
// coordinator does after the pass.
//
// The scan's punctuation contract stays trivially safe: only sequential
// scans are morselable, so OnSampleEnd can never fire, and MarkDone plus
// the trace span end fire exactly once on the coordinator after the
// barrier (Scan.finishMorselPass).

// SetMorselWorkers makes the columnar partition passes (SetColumnar)
// morsel-driven with k scan workers; k < 2 restores the serial passes. It
// has no effect under a memory budget (spill accounting stays
// single-threaded), and passes whose child is not a sequential Scan fall
// back to the serial pass individually.
func (j *HashJoin) SetMorselWorkers(k int) *HashJoin {
	j.workers = k
	return j
}

// Morseled reports whether morsel-driven scans are requested.
func (j *HashJoin) Morseled() bool { return j.workers > 1 }

// SetMorselBlocks overrides the number of blocks per morsel claim
// (≤ 0 restores storage.DefaultMorselBlocks). Tests use single-block
// morsels to force many claims on small tables.
func (j *HashJoin) SetMorselBlocks(n int) *HashJoin {
	j.morselBlocks = n
	return j
}

// morselScanOf returns the pass child as a morsel-eligible scan, or nil
// when the pass must run serially: fewer than two workers (none asked
// for, or a memory budget forcing serial scatter), a non-Scan child, or
// a sampled scan (whose global sample-prefix order is inherently serial).
func (j *HashJoin) morselScanOf(child Operator) *Scan {
	if j.Workers() < 2 {
		return nil
	}
	s, ok := child.(*Scan)
	if !ok || !s.morselable() {
		return nil
	}
	return s
}

// colMorselPassState carries the per-worker lane accumulators of one
// columnar morsel pass: each worker scatters into private partitions,
// folded into the shared ones at the barrier.
type colMorselPassState struct {
	locals [][]colPart
	rows   []int64
	errs   []error
	hookMu sync.Mutex
	wg     sync.WaitGroup
}

func newColMorselPassState(workers, parts int) *colMorselPassState {
	st := &colMorselPassState{
		locals: make([][]colPart, workers),
		rows:   make([]int64, workers),
		errs:   make([]error, workers),
	}
	for w := range st.locals {
		st.locals[w] = make([]colPart, parts)
	}
	return st
}

// mergeColLocals folds the worker-private partitions into the shared
// ones, in fixed worker order so the merged row order is deterministic.
// Chunk lists concatenate without copying a row; a single-batch side
// adopts the first worker's batch and appends the others' rows
// lane-to-lane before their batches return to the pool.
func (j *HashJoin) mergeColLocals(cfg *colPassConfig, locals [][]colPart) {
	parts := cfg.colParts
	for p := range parts {
		for w := range locals {
			l := locals[w][p]
			locals[w][p] = nil
			if cfg.chunked || len(parts[p]) == 0 {
				parts[p] = append(parts[p], l...)
				continue
			}
			for _, cb := range l {
				parts[p][0].AppendBatchFrom(cb)
				data.PutColBatch(cb)
			}
		}
	}
}

// partitionPassColMorsel is the columnar morsel pass: each worker pivots
// its batches into a worker-private ColBatch, fires the worker-indexed
// columnar hook lock-free, and runs the same scatter as the serial pass
// into worker-private partitions.
func (j *HashJoin) partitionPassColMorsel(cfg *colPassConfig, sc *Scan) error {
	workers := j.Workers()
	src := sc.beginMorselPass(j.morselBlocks)
	st := newColMorselPassState(workers, j.parts)
	for w := 0; w < workers; w++ {
		st.wg.Add(1)
		go func(w int) {
			defer st.wg.Done()
			var cb data.ColBatch
			var scat colScatter
			st.errs[w] = sc.drainMorsels(src, func(b data.Batch) error {
				st.rows[w] += int64(len(b))
				if sc.OnTuple != nil || cfg.tupleHook != nil {
					st.hookMu.Lock()
					if sc.OnTuple != nil {
						for _, t := range b {
							sc.OnTuple(t)
						}
					}
					if cfg.tupleHook != nil {
						for _, t := range b {
							cfg.tupleHook(t)
						}
					}
					st.hookMu.Unlock()
				}
				cb.SetRows(b, cfg.width)
				if cfg.colHook != nil {
					// Serial span hook on a concurrent pass (mixed chain):
					// exclusive, order-free — histogram increments commute.
					st.hookMu.Lock()
					cfg.colHook(&cb)
					st.hookMu.Unlock()
				}
				if cfg.colBatchHook != nil {
					cfg.colBatchHook(w, &cb)
				}
				return j.scatterColBatch(cfg, &scat, st.locals[w], &cb)
			})
		}(w)
	}
	st.wg.Wait()
	// Merge before looking at errors: a cancelled pass hands its batches
	// to the shared partitions too, where Close returns them to the pool.
	j.mergeColLocals(cfg, st.locals)
	for _, err := range st.errs {
		if err != nil {
			return err
		}
	}
	sc.finishMorselPass()
	for _, n := range st.rows {
		cfg.rows.Add(n)
	}
	return nil
}

package exec

import (
	"sync"
	"sync/atomic"

	"qpi/internal/data"
)

// This file implements morsel-driven parallel scans for the grace
// partition passes (HyPer-style, after Leis et al.): when a pass's child
// is a plain sequential Scan, the pass skips the single-reader pipeline
// entirely — Workers() scan workers claim fixed-size block-range morsels
// from an atomic counter (storage.MorselSource), hash/scatter their
// tuples into worker-private partition buffers, and merge at the pass
// barrier. Both the row and the columnar partition passes morselize; a
// pass whose child is not an eligible scan falls back per pass to the
// existing single-reader parallel scatter (row) or serial columnar pass,
// so a join can run its build pass morselized and its probe pass not.
//
// Hook contract under concurrent scans. Worker-indexed hooks
// (OnBuildBatch/OnProbeBatch and OnBuildColBatch/OnProbeColBatch) fire
// lock-free on the worker that owns the batch — the estimation framework
// backs them with per-worker shards merged at the barrier, and the merge
// order is fixed (worker 0..K-1), so estimator state is bit-identical to
// the serial pass: histogram counts are integers and the probe moment
// sums accumulate integer-valued float64 deltas, both order-independent.
// Legacy per-tuple hooks (Scan.OnTuple, OnBuildTuple/OnProbeTuple — the
// progress monitors' sampling tickers) fire under a per-pass mutex:
// exclusive but order-nondeterministic, which is sound because those
// consumers only bump counters and read atomic Stats snapshots. The
// worker join (WaitGroup) is the happens-before edge to everything the
// coordinator does after the pass.
//
// The scan's punctuation contract stays trivially safe: only sequential
// scans are morselable, so OnSampleEnd can never fire, and MarkDone plus
// the trace span end fire exactly once on the coordinator after the
// barrier (Scan.finishMorselPass).

// SetMorsel enables morsel-driven parallel scans for the partition
// passes. It takes effect when SetParallelism(k ≥ 2) is also set and no
// memory budget is configured (spill accounting stays single-threaded);
// passes whose child is not a sequential Scan fall back individually.
func (j *HashJoin) SetMorsel(on bool) *HashJoin {
	j.morsel = on
	return j
}

// Morseled reports whether morsel-driven scans are enabled.
func (j *HashJoin) Morseled() bool { return j.morsel }

// SetMorselBlocks overrides the number of blocks per morsel claim
// (≤ 0 restores storage.DefaultMorselBlocks). Tests use single-block
// morsels to force many claims on small tables.
func (j *HashJoin) SetMorselBlocks(n int) *HashJoin {
	j.morselBlocks = n
	return j
}

// morselScanOf returns the pass child as a morsel-eligible scan, or nil
// when the pass must fall back: morsel mode off, a memory budget forcing
// serial scatter, fewer than two workers, a non-Scan child, or a sampled
// scan (whose global sample-prefix order is inherently serial).
func (j *HashJoin) morselScanOf(child Operator) *Scan {
	if !j.morsel || j.memBudget > 0 || j.Workers() < 2 {
		return nil
	}
	s, ok := child.(*Scan)
	if !ok || !s.morselable() {
		return nil
	}
	return s
}

// scatterBatchLocal hashes one batch's join keys and appends the tuples
// to worker-local partition buffers — the lock-free scatter kernel
// shared by the morsel and single-reader parallel passes.
func (j *HashJoin) scatterBatchLocal(local [][]data.Tuple, b data.Batch, keys []int, keepNull bool) {
	for _, t := range b {
		k := JoinKeyOf(t, keys)
		p := 0
		if k.IsNull() {
			if !keepNull {
				continue
			}
		} else {
			p = partitionOf(hashValue(k), j.parts)
		}
		local[p] = append(local[p], t)
	}
}

// mergeLocals concatenates the worker-private partition buffers onto the
// shared partition buffers, in worker order, at a pass barrier.
func (j *HashJoin) mergeLocals(parts [][]data.Tuple, locals [][][]data.Tuple) {
	for p := 0; p < j.parts; p++ {
		n := len(parts[p])
		for w := range locals {
			n += len(locals[w][p])
		}
		if n == 0 {
			continue
		}
		merged := make([]data.Tuple, 0, n)
		merged = append(merged, parts[p]...)
		for w := range locals {
			merged = append(merged, locals[w][p]...)
		}
		parts[p] = merged
	}
}

// morselPassState carries the per-worker accumulators of one morsel pass.
type morselPassState struct {
	locals [][][]data.Tuple
	rows   []int64
	errs   []error
	hookMu sync.Mutex
	wg     sync.WaitGroup
}

func newMorselPassState(workers, parts int) *morselPassState {
	st := &morselPassState{
		locals: make([][][]data.Tuple, workers),
		rows:   make([]int64, workers),
		errs:   make([]error, workers),
	}
	for w := range st.locals {
		st.locals[w] = make([][]data.Tuple, parts)
	}
	return st
}

// finish joins the workers and folds the pass results into the shared
// partition state; it returns the first worker error (context expiry).
func (j *HashJoin) finishMorselPass(st *morselPassState, sc *Scan, rows *atomic.Int64, parts [][]data.Tuple) error {
	st.wg.Wait()
	for _, err := range st.errs {
		if err != nil {
			return err
		}
	}
	sc.finishMorselPass()
	for _, n := range st.rows {
		rows.Add(n)
	}
	j.mergeLocals(parts, st.locals)
	return nil
}

// partitionPassMorsel runs one row partition pass with Workers() scan
// workers draining the child scan's morsels concurrently.
func (j *HashJoin) partitionPassMorsel(cfg *passConfig, sc *Scan) error {
	workers := j.Workers()
	src := sc.beginMorselPass(j.morselBlocks)
	st := newMorselPassState(workers, j.parts)
	for w := 0; w < workers; w++ {
		st.wg.Add(1)
		go func(w int) {
			defer st.wg.Done()
			local := st.locals[w]
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
				if cfg.batchHook != nil {
					cfg.batchHook(w, b)
				}
				j.scatterBatchLocal(local, b, cfg.keys, cfg.keepNull)
				return nil
			})
		}(w)
	}
	return j.finishMorselPass(st, sc, cfg.rows, cfg.parts)
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

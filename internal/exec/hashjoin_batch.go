package exec

import (
	"sync"
	"sync/atomic"

	"qpi/internal/data"
)

// This file implements the batch-at-a-time grace partition passes,
// including the parallel scatter: K workers consume input batches, hash
// the join keys and scatter tuples into per-worker partition buffers that
// are concatenated (in worker order) at the pass barrier. The reader
// goroutine keeps firing the per-tuple hooks, so monitors and composed
// user hooks never see concurrency; workers fire only the batch hooks
// (OnBuildBatch/OnProbeBatch), which the estimation framework backs with
// per-worker histogram shards merged at the barrier.

// passConfig describes one partition pass (build or probe side).
type passConfig struct {
	child     Operator
	keys      []int
	tupleHook func(data.Tuple)
	batchHook func(worker int, b data.Batch)
	parts     [][]data.Tuple
	spill     []*spillFile
	bytes     []int64
	width     int
	rows      *atomic.Int64
	// keepNull routes NULL-key tuples to partition 0 instead of dropping
	// them (probe side of the probe-preserving join types).
	keepNull bool
}

// partitionPhasesBatched is partitionPhases driven batch-at-a-time, with
// the scatter work fanned out to Workers() goroutines when no memory
// budget forces serial spill accounting.
func (j *HashJoin) partitionPhasesBatched() error {
	j.initPartitions()
	build := passConfig{
		child:     j.build,
		keys:      j.buildKeys,
		tupleHook: j.OnBuildTuple,
		batchHook: j.OnBuildBatch,
		parts:     j.buildParts,
		spill:     j.buildSpill,
		bytes:     j.buildBytes,
		width:     j.build.Schema().Len(),
		rows:      &j.buildRows,
	}
	j.traceBegin("build")
	if err := j.partitionPassBatched(&build); err != nil {
		return err
	}
	j.traceEnd("build", j.buildRows.Load(), 0, int64(j.spilled))
	if j.OnBuildEnd != nil {
		j.OnBuildEnd()
	}
	probe := passConfig{
		child:     j.probe,
		keys:      j.probeKeys,
		tupleHook: j.OnProbeTuple,
		batchHook: j.OnProbeBatch,
		parts:     j.probeParts,
		spill:     j.probeSpill,
		bytes:     j.probeBytes,
		width:     j.probe.Schema().Len(),
		rows:      &j.probeRows,
		keepNull:  j.joinType == ProbeOuterJoin || j.joinType == AntiJoin,
	}
	j.traceBegin("probe")
	if err := j.partitionPassBatched(&probe); err != nil {
		return err
	}
	j.traceEnd("probe", j.probeRows.Load(), 0, int64(j.spilled))
	if j.OnProbeEnd != nil {
		j.OnProbeEnd()
	}
	return j.beginJoinPhase()
}

// partitionPassBatched runs one partition pass over whole batches:
// morsel-driven when the child is an eligible scan, single-reader
// parallel scatter when workers are configured, serial otherwise.
func (j *HashJoin) partitionPassBatched(cfg *passConfig) error {
	if sc := j.morselScanOf(cfg.child); sc != nil {
		return j.partitionPassMorsel(cfg, sc)
	}
	if j.Workers() > 1 {
		return j.partitionPassParallel(cfg)
	}
	in := AsBatch(cfg.child)
	for {
		if err := j.ctxErr(); err != nil {
			return err
		}
		b, err := in.NextBatch()
		if err != nil {
			return err
		}
		if len(b) == 0 {
			return nil
		}
		cfg.rows.Add(int64(len(b)))
		if cfg.tupleHook != nil {
			for _, t := range b {
				cfg.tupleHook(t)
			}
		}
		if cfg.batchHook != nil {
			cfg.batchHook(0, b)
		}
		for _, t := range b {
			k := JoinKeyOf(t, cfg.keys)
			p := 0
			if k.IsNull() {
				if !cfg.keepNull {
					continue
				}
			} else {
				p = partitionOf(hashValue(k), j.parts)
			}
			if err := j.partitionAppend(cfg.parts, cfg.spill, cfg.bytes, p, t, cfg.width); err != nil {
				return err
			}
		}
	}
}

// partitionPassParallel fans the hash/scatter work of one pass out to
// Workers() goroutines. The reader pulls batches, fires the per-tuple
// hooks, and hands each batch (copied out of the producer's reused
// buffer) to a worker; each worker fires the batch hook and scatters into
// its private per-partition buffers. At the barrier the private buffers
// are concatenated in worker order. Only reachable with no memory budget,
// so scatter never spills and workers cannot fail.
func (j *HashJoin) partitionPassParallel(cfg *passConfig) error {
	workers := j.Workers()
	locals := make([][][]data.Tuple, workers)
	work := make(chan data.Batch, workers)
	free := make(chan data.Batch, workers+1)
	for i := 0; i < workers+1; i++ {
		free <- make(data.Batch, 0, data.BatchSize())
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := make([][]data.Tuple, j.parts)
			for b := range work {
				if cfg.batchHook != nil {
					cfg.batchHook(w, b)
				}
				j.scatterBatchLocal(local, b, cfg.keys, cfg.keepNull)
				free <- b[:0]
			}
			locals[w] = local
		}(w)
	}
	in := AsBatch(cfg.child)
	var readErr error
	for {
		// The reader is the single cancellation point of the parallel
		// pass: on ctx expiry it stops pulling and closes the work
		// channel, so the scatter workers finish their in-flight batch
		// and exit — no leaked goroutines, at most one extra batch of
		// work per worker.
		if readErr = j.ctxErr(); readErr != nil {
			break
		}
		b, err := in.NextBatch()
		if err != nil {
			readErr = err
			break
		}
		if len(b) == 0 {
			break
		}
		cfg.rows.Add(int64(len(b)))
		if cfg.tupleHook != nil {
			for _, t := range b {
				cfg.tupleHook(t)
			}
		}
		buf := <-free
		work <- append(buf, b...)
	}
	close(work)
	wg.Wait()
	if readErr != nil {
		return readErr
	}
	j.mergeLocals(cfg.parts, locals)
	return nil
}

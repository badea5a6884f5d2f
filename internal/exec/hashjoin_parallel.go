package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"qpi/internal/data"
)

// This file implements the partition-parallel join (second) phase of the
// grace hash join. After the partition passes the P partitions are fully
// independent, so JoinWorkers() goroutines claim contiguous partition
// ranges in ascending order from an atomic counter (see
// joinAffinitySpan); each worker builds its partitions' hash tables
// (reusing one worker-private joinTable across the partitions it
// processes), streams each partition's probe rows — from the in-memory
// buffer or back from its spill file — and emits output batches into a
// bounded per-partition queue. Next/NextBatch drain the queues strictly
// in partition order, so the output is byte-for-byte the serial join's
// clustered output, and all hooks (OnOutput), Stats writes and trace
// spans still fire on the single consumer goroutine.
//
// Why this cannot deadlock: ranges are claimed in ascending order, a
// worker processes its range's partitions in ascending order, and the
// consumer drains in ascending partition order. If the consumer is
// blocked on partition p's queue, every queue before p has been drained
// to close. Either p's range is claimed — its owner finished everything
// before p in the range (those queues closed), so it is producing into
// p's queue or about to close it (progress) — or p's range is unclaimed,
// in which case no later range is claimed either, and a worker mid-way
// through an earlier range would contradict those queues being closed;
// so some worker is finishing its claim loop and will claim the next
// range ≤ p's (progress).
//
// Cancellation and teardown: workers poll the plan context and a stop
// channel on an amortized tick and on every (blocking) queue send; the
// consumer polls the context per batch. Close (and any error return)
// closes the stop channel and waits for the workers, so spill-file
// cleanup happens-after all worker I/O and no goroutine outlives the
// operator — the leakcheck suite runs these paths under -race.

// joinQueueDepth bounds each partition's output queue (in batches). Two
// in-flight batches per partition keep workers ahead of the consumer
// without buffering whole partitions in memory.
const joinQueueDepth = 2

// batchPool recycles output batch buffers between the join-phase workers
// and the consumer: a worker fills a pooled batch, the consumer hands it
// to the caller, and recycles it on the caller's next pull (matching the
// data.Batch reuse contract).
var batchPool = sync.Pool{
	New: func() any {
		b := make(data.Batch, 0, data.BatchSize())
		return &b
	},
}

func getBatch() data.Batch {
	return (*batchPool.Get().(*data.Batch))[:0]
}

func putBatch(b data.Batch) {
	// Drop buffers whose capacity no longer matches the active batch size
	// (a bench sweep may change it between runs), so the pool never serves
	// stale-sized buffers.
	if cap(b) == 0 || cap(b) != data.BatchSize() {
		return
	}
	b = b[:0]
	batchPool.Put(&b)
}

// partStream is one partition's output queue. err and probes are written
// by the owning worker before it closes ch; the channel close is the
// happens-before edge that lets the consumer read them without atomics.
type partStream struct {
	ch     chan data.Batch
	err    error
	probes int64 // probe tuples consumed by this partition's join
}

// parallelJoinState carries the join-phase workers and the consumer-side
// drain cursor.
type parallelJoinState struct {
	res  []partStream
	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	// Consumer state (single goroutine).
	cur    int        // partition being drained
	opened bool       // trace span for cur is open
	batch  data.Batch // current batch served tuple-at-a-time
	pos    int
	prev   data.Batch // last batch handed to a NextBatch caller
}

// shutdown stops the workers (idempotent) and waits for them.
func (st *parallelJoinState) shutdown() {
	st.once.Do(func() { close(st.stop) })
	st.wg.Wait()
}

// joinAffinitySpan is the number of contiguous partitions one join-phase
// claim covers: per-core partition affinity. Claiming ranges instead of
// interleaved singles keeps one worker's consecutive partitions — their
// build tables and probe buffers — streaming through the same core's
// cache instead of ping-ponging claim order across cores. Two ranges per
// worker (rather than one) leaves the tail balanced when partitions are
// skewed: a worker that drew cheap partitions picks up a second range.
func (j *HashJoin) joinAffinitySpan(workers int) int {
	span := j.parts / (2 * workers)
	if span < 1 {
		span = 1
	}
	return span
}

// startParallelJoin launches the join-phase workers. It cannot fail;
// worker errors surface on the partition they occurred in, in partition
// order, from nextParallelBatch.
func (j *HashJoin) startParallelJoin() {
	st := &parallelJoinState{
		res:  make([]partStream, j.parts),
		stop: make(chan struct{}),
	}
	for p := range st.res {
		st.res[p].ch = make(chan data.Batch, joinQueueDepth)
	}
	j.joinPar = st
	workers := j.JoinWorkers()
	span := j.joinAffinitySpan(workers)
	nRanges := (j.parts + span - 1) / span
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		st.wg.Add(1)
		go func() {
			defer st.wg.Done()
			var jt joinTable
			var arena []data.Value
			for {
				r := int(next.Add(1) - 1)
				if r >= nRanges {
					return
				}
				hi := (r + 1) * span
				if hi > j.parts {
					hi = j.parts
				}
				for p := r * span; p < hi; p++ {
					out := &st.res[p]
					out.err = j.joinOnePartition(p, &jt, &arena, out, st.stop)
					close(out.ch)
					if out.err != nil {
						// The consumer will stop at this partition; stop
						// claiming so later queues close promptly too.
						return
					}
				}
			}
		}()
	}
}

// joinOnePartition builds partition p's table and streams its probe rows
// through it, sending output batches on out.ch. Runs on a worker
// goroutine: it touches only partition-p state (buildParts[p],
// probeParts[p], the two spill slots) plus worker-private jt/arena, and
// reports probe consumption via out.probes.
func (j *HashJoin) joinOnePartition(p int, jt *joinTable, arena *[]data.Value,
	out *partStream, stop <-chan struct{}) error {
	var buildTuples []data.Tuple
	if j.colMode {
		// Lane-native partitions: materialize the partition's lanes into
		// row tuples for the row-oriented parallel drain (a difftest-only
		// crossing — the perf-gated columnar path runs the serial join
		// phase's lane-to-lane gather).
		buildTuples = drainColPart(&j.buildColParts[p])
	} else {
		buildTuples = j.buildParts[p]
	}
	if f := j.buildSpill[p]; f != nil {
		var err error
		buildTuples, err = f.readAll()
		j.buildSpill[p] = nil
		cerr := f.close()
		if err != nil {
			return err
		}
		if cerr != nil {
			return cerr
		}
	}
	jt.build(buildTuples, j.buildKeys)
	var memProbe []data.Tuple
	if j.colMode {
		memProbe = drainColPart(&j.probeColParts[p])
	} else {
		j.buildParts[p] = nil
		memProbe = j.probeParts[p]
	}
	var pf *spillFile
	if f := j.probeSpill[p]; f != nil {
		if err := f.startRead(); err != nil {
			j.probeSpill[p] = nil
			f.close()
			return err
		}
		pf = f
	}
	closeProbe := func() error {
		if pf == nil {
			return nil
		}
		j.probeSpill[p] = nil
		return pf.close()
	}

	batch := getBatch()
	emit := func(t data.Tuple) bool {
		batch = append(batch, t)
		if len(batch) < cap(batch) {
			return true
		}
		select {
		case out.ch <- batch:
			batch = getBatch()
			return true
		case <-stop:
			return false
		}
	}
	concat := func(a, b data.Tuple) data.Tuple {
		n := len(a) + len(b)
		if len(*arena) < n {
			*arena = make([]data.Value, n*data.BatchSize())
		}
		o := (*arena)[:n:n]
		*arena = (*arena)[n:]
		copy(o, a)
		copy(o[len(a):], b)
		return data.Tuple(o)
	}

	var tick uint32
	cursor := 0
	for {
		// Amortized cancellation/stop poll, mirroring base.pollCtx but on
		// worker-private state.
		if tick++; tick&127 == 0 {
			select {
			case <-stop:
				closeProbe()
				return nil // torn down; the consumer already has its error
			default:
			}
			if j.ctx != nil {
				if err := j.ctx.Err(); err != nil {
					closeProbe()
					return err
				}
			}
		}
		var t data.Tuple
		if pf != nil {
			var err error
			t, err = pf.next()
			if err != nil {
				closeProbe()
				return err
			}
		} else if cursor < len(memProbe) {
			t = memProbe[cursor]
			cursor++
		}
		if t == nil {
			break
		}
		out.probes++
		key := JoinKeyOf(t, j.probeKeys)
		var matches []data.Tuple
		if !key.IsNull() {
			matches = jt.lookup(key)
		}
		switch j.joinType {
		case SemiJoin:
			if len(matches) > 0 && !emit(t) {
				closeProbe()
				return nil
			}
		case AntiJoin:
			if len(matches) == 0 && !emit(t) {
				closeProbe()
				return nil
			}
		case ProbeOuterJoin:
			if len(matches) == 0 {
				if !emit(concat(j.nullBuild, t)) {
					closeProbe()
					return nil
				}
				continue
			}
			fallthrough
		default:
			for _, m := range matches {
				if !emit(concat(m, t)) {
					closeProbe()
					return nil
				}
			}
		}
	}
	if err := closeProbe(); err != nil {
		return err
	}
	if !j.colMode {
		j.probeParts[p] = nil
	}
	if len(batch) > 0 {
		select {
		case out.ch <- batch:
		case <-stop:
		}
	} else {
		putBatch(batch)
	}
	return nil
}

// drainColPart materializes a lane partition's rows as tuples and returns
// its batches to the pool.
func drainColPart(part *colPart) []data.Tuple {
	var out []data.Tuple
	for _, cb := range *part {
		out = cb.ToTuples(out)
		data.PutColBatch(cb)
	}
	*part = nil
	return out
}

// nextParallelBatch returns the next non-empty output batch in partition
// order, or nil at end of join. It runs on the consumer goroutine and
// owns the partition cursor, per-partition trace spans and the
// joinedProbes roll-up.
func (j *HashJoin) nextParallelBatch() (data.Batch, error) {
	st := j.joinPar
	for j.state == hjJoin {
		if err := j.ctxErr(); err != nil {
			st.shutdown()
			return nil, err
		}
		if st.cur >= j.parts {
			j.state = hjDone
			j.done.Store(true)
			break
		}
		out := &st.res[st.cur]
		if !st.opened {
			st.opened = true
			j.traceBegin(fmt.Sprintf("join[%d]", st.cur))
		}
		b, ok := <-out.ch
		if ok {
			return b, nil
		}
		// Partition finished: the close is the happens-before edge for
		// err/probes.
		if out.err != nil {
			st.shutdown()
			return nil, out.err
		}
		j.joinedProbes.Add(out.probes)
		j.traceEnd(fmt.Sprintf("join[%d]", st.cur), out.probes, 0, 0)
		st.cur++
		st.opened = false
	}
	// All partitions drained: reap the workers so no goroutine outlives
	// the join.
	st.wg.Wait()
	return nil, nil
}

// nextParallel serves the parallel join phase tuple-at-a-time; the Next
// caller sees exactly the serial emission order.
func (j *HashJoin) nextParallel() (data.Tuple, error) {
	st := j.joinPar
	for {
		if st.pos < len(st.batch) {
			t := st.batch[st.pos]
			st.pos++
			return t, nil
		}
		if st.batch != nil {
			putBatch(st.batch)
			st.batch = nil
		}
		b, err := j.nextParallelBatch()
		if err != nil || b == nil {
			return nil, err
		}
		st.batch, st.pos = b, 0
	}
}

// nextParallelOutBatch is the NextBatch drain of the parallel join
// phase: worker batches pass straight through to the caller (recycled on
// the caller's next pull), with OnOutput and the emission counters fired
// here on the consumer goroutine.
func (j *HashJoin) nextParallelOutBatch() (data.Batch, error) {
	st := j.joinPar
	if st.prev != nil {
		putBatch(st.prev)
		st.prev = nil
	}
	b, err := j.nextParallelBatch()
	if err != nil {
		return nil, err
	}
	if j.OnOutput != nil {
		for _, t := range b {
			j.OnOutput(t)
		}
	}
	st.prev = b
	return j.emitBatch(b)
}

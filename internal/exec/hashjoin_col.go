package exec

import (
	"fmt"
	"io"
	"sync/atomic"

	"qpi/internal/data"
)

// This file implements the passes of the grace hash join: the partition
// passes scatter input rows lane-to-lane into per-partition ColBatch
// buffers (no row-major partition buffers, no per-row tuple references),
// the join table indexes rows of the build partition's lanes straight off
// its key lane, and the join (second) phase gathers output lane-to-lane
// through (build row, probe row) pair buffers. Spilled partitions write
// columnar frames directly from the lanes and stream back as lane chunks —
// no FromTuples/ToTuples pivot anywhere.
//
// The scatter is a radix-style pass: per input batch, one sweep over the
// key lane groups the live row indexes by partition (colScatter.group),
// then each partition's group moves a column at a time through one typed
// copy (data.ColBatch.AppendRowsFrom). Partition assignment goes through
// hashValue/partitionOf (hashInt off a flat int lane), so a partition
// holds its rows in arrival order and the join's output order is fixed by
// the keys, the inputs' order and the process's hash seed: partitions in
// index order, probe rows in arrival order within one, a probe row's
// matches in build arrival order. The span hooks fire on the input
// batches before the scatter.
//
// The join phase runs a probe chunk at a time: fillColPairs sweeps the
// current chunk (sweepColChunk), appending each probe row's pairs by join
// type until the buffer is full or the chunk ends, with one loop per
// probe shape. A NULL-free int key lane over the row directory takes the
// directory kernel (colJoinTable.sweepDirectory: a bounds check and one
// load per row); every other shape takes the general sweep (sweepRows),
// which looks each row's span up — once per run of equal int keys. Both
// start and stop at the same rows, and three rules keep them exact:
//
//   - Resume cursor. A span that overruns the buffer leaves its rest and
//     its probe row (colSpanRest, colSpanRow); the next fill emits them
//     before starting another row.
//   - Stop at a source switch. Buffered pairs all address one
//     (colGatherB, colGatherP) pair, so a fill holding pairs stops as soon
//     as the cursor moves to the next chunk, spill frame or partition, and
//     the caller gathers them before the sources are read again.
//   - joinedProbes advances once per sweep, by the probe rows it started;
//     a sweep starts no row once the buffer is full, so a full output
//     batch leaves the counter at the probe row of its last pair, which is
//     what JoinedProbeFraction and the estimators read.
//
// Cancellation is checked before every fill of an output batch and at
// every chunk switch. The row path (Next) runs the same kernel a pair at
// a time, checking cancellation every 128th pair (pollCtx).

// colPart is one side of one grace partition in memory: pooled lane
// batches holding the partition's rows in arrival order. The probe side
// of an unbudgeted join is a list of chunks of at most BatchSize() rows —
// a full chunk is never grown, the next rows start a fresh one — so every
// chunk has the capacity the pool hands out and goes back to it intact,
// however skewed the partition. The build side, and both sides under a
// memory budget, keep a single batch that grows: the join table indexes
// one batch, and spill accounting dumps one.
type colPart []*data.ColBatch

// SetColumnar does nothing and returns j.
//
// Deprecated: every hash join runs the columnar partition passes.
func (j *HashJoin) SetColumnar(bool) *HashJoin { return j }

// colPassConfig describes one columnar partition pass (build or probe
// side).
type colPassConfig struct {
	child    Operator
	keys     []int
	colHook  func(cb *data.ColBatch)
	colParts []colPart
	spill    []*spillFile
	bytes    []int64
	width    int
	rows     *atomic.Int64
	// kept counts the rows the scatter keeps (nil: not counted).
	kept *atomic.Int64
	// keepNull routes NULL-key tuples to partition 0 instead of dropping
	// them (probe side of the probe-preserving join types).
	keepNull bool
	// chunked makes the side's partitions chunk lists (see colPart): the
	// probe side of a join without a memory budget.
	chunked bool
}

// partitionPhases runs the build and the probe partition pass, then loads
// the first partition of the join phase.
func (j *HashJoin) partitionPhases() error {
	j.initPartitions()
	build := colPassConfig{
		child:    j.build,
		keys:     j.buildKeys,
		colHook:  j.OnBuildCol,
		colParts: j.buildColParts,
		spill:    j.buildSpill,
		bytes:    j.buildBytes,
		width:    j.build.Schema().Len(),
		rows:     &j.buildRows,
	}
	j.traceBegin("build")
	if err := j.partitionPass(&build); err != nil {
		return err
	}
	j.traceEnd("build", j.buildRows.Load(), 0, int64(j.spilled))
	if j.OnBuildEnd != nil {
		j.OnBuildEnd()
	}
	probe := colPassConfig{
		child:    j.probe,
		keys:     j.probeKeys,
		colHook:  j.OnProbeCol,
		colParts: j.probeColParts,
		spill:    j.probeSpill,
		bytes:    j.probeBytes,
		width:    j.probe.Schema().Len(),
		rows:     &j.probeRows,
		kept:     &j.probeKept,
		keepNull: j.joinType == ProbeOuterJoin || j.joinType == AntiJoin,
		chunked:  j.memBudget <= 0,
	}
	j.traceBegin("probe")
	if err := j.partitionPass(&probe); err != nil {
		return err
	}
	j.traceEnd("probe", j.probeRows.Load(), 0, int64(j.spilled))
	if j.OnProbeEnd != nil {
		j.OnProbeEnd()
	}
	j.curPart = 0
	return j.loadColPartition(0)
}

// partitionPass runs one partition pass over whole ColBatches, firing the
// side's span hook on each batch before scattering it.
func (j *HashJoin) partitionPass(cfg *colPassConfig) error {
	in := AsColOperator(cfg.child)
	for {
		if err := j.ctxErr(); err != nil {
			return err
		}
		cb, err := in.NextColBatch()
		if err != nil {
			return err
		}
		if cb == nil {
			return nil
		}
		cfg.rows.Add(int64(cb.Live()))
		if cfg.colHook != nil {
			cfg.colHook(cb)
		}
		if err := j.scatterColBatch(cfg, cb); err != nil {
			return err
		}
	}
}

// colScatter is the scratch of the radix scatter, reused from batch to
// batch.
type colScatter struct {
	rows [][]int32  // rows[p]: the current batch's live row indexes bound for partition p, ascending
	key  data.Tuple // multi-column key staging for colJoinKeyAt
}

// group sorts cb's live row indexes into s.rows by partition. A NULL-free
// single integer key partitions straight off the flat lane; every other
// key shape extracts the key per row. NULL keys are dropped, or sent to
// partition 0 under keepNull.
func (s *colScatter) group(cb *data.ColBatch, keys []int, keepNull bool, parts int) {
	if len(s.rows) != parts {
		// One backing array with room for twice an even share each; only a
		// skewed batch's hot partition outgrows its window and reallocates.
		s.rows = make([][]int32, parts)
		room := 2*data.BatchSize()/parts + 1
		buf := make([]int32, parts*room)
		for p := range s.rows {
			s.rows[p] = buf[p*room : p*room : (p+1)*room]
		}
	}
	rows := s.rows
	for p := range rows {
		rows[p] = rows[p][:0]
	}
	if kv := intKeyLane(cb, keys); kv != nil && !kv.Nulls.Any() {
		if cb.Sel == nil {
			for i, k := range kv.Ints[:cb.NRows] {
				p := partitionOf(hashInt(k), parts)
				rows[p] = append(rows[p], int32(i))
			}
			return
		}
		for _, i := range cb.Sel {
			p := partitionOf(hashInt(kv.Ints[i]), parts)
			rows[p] = append(rows[p], i)
		}
		return
	}
	cb.EachLive(func(i int) {
		p := 0
		if k := colJoinKeyAt(cb, keys, i, &s.key); !k.IsNull() {
			p = partitionOf(hashValue(k), parts)
		} else if !keepNull {
			return
		}
		rows[p] = append(rows[p], int32(i))
	})
}

// scatterColBatch partitions one batch's live rows into the side's
// partitions: grouped by partition, then each group appended a column at
// a time — under a memory budget through colPartitionAppendGroup, which
// checks the partition's budget share after every group.
func (j *HashJoin) scatterColBatch(cfg *colPassConfig, cb *data.ColBatch) error {
	j.colScat.group(cb, cfg.keys, cfg.keepNull, j.parts)
	kept := 0
	for p, idx := range j.colScat.rows {
		kept += len(idx)
		if j.memBudget <= 0 {
			cfg.colParts[p] = appendColRows(cfg.colParts[p], cb, idx, cfg.width, cfg.chunked)
		} else if len(idx) > 0 {
			if err := j.colPartitionAppendGroup(cfg, p, cb, idx); err != nil {
				return err
			}
		}
	}
	if cfg.kept != nil {
		cfg.kept.Add(int64(kept))
	}
	return nil
}

// appendColRows appends src's rows idx to a partition and returns it. A
// chunked partition fills its last chunk to BatchSize() rows and carries
// on in fresh ones; otherwise its single batch grows.
func appendColRows(part colPart, src *data.ColBatch, idx []int32, width int, chunked bool) colPart {
	limit := data.BatchSize()
	for len(idx) > 0 {
		n := len(part)
		if n == 0 || chunked && part[n-1].NRows >= limit {
			dst := data.GetColBatch()
			dst.BeginBuild(width)
			part = append(part, dst)
			n++
		}
		dst, take := part[n-1], len(idx)
		if chunked {
			take = min(take, limit-dst.NRows)
		}
		dst.AppendRowsFrom(src, idx[:take])
		idx = idx[take:]
	}
	return part
}

// colPartitionAppendGroup appends src's rows idx — one batch's group for
// partition p — to that partition of a join under a memory budget,
// spilling the partition's lanes when they exceed their budget share.
func (j *HashJoin) colPartitionAppendGroup(cfg *colPassConfig, p int, src *data.ColBatch, idx []int32) error {
	bytes := src.RowsBytes(idx)
	if f := cfg.spill[p]; f != nil {
		j.stats.SpillBytes.Add(bytes)
		return f.appendColRows(src, idx)
	}
	cfg.colParts[p] = appendColRows(cfg.colParts[p], src, idx, cfg.width, false)
	cfg.bytes[p] += bytes
	if cfg.bytes[p] <= j.memBudget/int64(2*j.parts) {
		return nil
	}
	// Overflow: dump this partition's lanes frame-at-a-time and switch it
	// to disk.
	dst := cfg.colParts[p][0]
	f, err := j.arena.newRun(cfg.width)
	if err != nil {
		return err
	}
	if err := f.appendColAll(dst); err != nil {
		f.close()
		return err
	}
	j.stats.SpillFiles.Add(1)
	j.stats.SpillBytes.Add(cfg.bytes[p])
	j.traceMark("spill", int64(dst.NRows), cfg.bytes[p])
	data.PutColBatch(dst)
	cfg.colParts[p] = nil
	cfg.spill[p] = f
	j.spilled++
	return nil
}

// Pair markers for the build side of a (build row, probe row) pair.
const (
	colPairProbeOnly int32 = -2 // semi/anti: the output row is the probe row alone
	colPairNullBuild int32 = -1 // outer miss: NULL-padded build columns
)

// loadColPartition builds the lane-native hash table for one partition
// (reading spilled build frames back into lanes) and positions the probe
// cursor on the partition's lanes or its spill frame stream. Before the
// first partition, a join without a memory budget tries the row
// directory over its whole resident build; when it is taken, no
// partition builds a table.
func (j *HashJoin) loadColPartition(p int) error {
	if err := j.ctxErr(); err != nil {
		return err
	}
	if j.tracing() {
		j.traceBegin(fmt.Sprintf("join[%d]", p))
		j.partProbes = j.joinedProbes.Load()
	}
	if p == 0 && j.memBudget <= 0 {
		if n, ok := j.colTab.buildDirectory(j.buildColParts, j.buildKeys); ok {
			j.traceMark("directory", int64(n), int64(len(j.colTab.rowOf)))
		}
	}
	var cp *data.ColBatch
	if bp := j.buildColParts[p]; len(bp) > 0 {
		cp = bp[0]
	}
	j.buildColParts[p] = nil
	if f := j.buildSpill[p]; f != nil {
		cp = data.GetColBatch()
		err := f.readAllCol(cp)
		j.buildSpill[p] = nil
		cerr := f.close()
		if err == nil {
			err = cerr
		}
		if err != nil {
			data.PutColBatch(cp)
			return err
		}
	}
	if j.colTab.rowOf == nil {
		j.colTab.build(cp, j.buildKeys, &j.colScat.key)
	}
	j.colBuild = cp
	j.probeFile = nil
	j.colProbePart = nil
	j.colProbe = nil
	j.colProbeRow = 0
	j.colProbeKey = nil
	j.colSpanRest = nil
	if f := j.probeSpill[p]; f != nil {
		if err := f.startRead(); err != nil {
			return err
		}
		j.probeFile = f
		return nil
	}
	j.colProbeRest = j.probeColParts[p]
	j.probeColParts[p] = nil
	j.nextProbeChunk()
	return nil
}

// nextProbeChunk retires the in-memory probe chunk just served (it stays
// gatherable until the next pair fill) and moves the cursor to the
// partition's next one, reporting whether there was one.
func (j *HashJoin) nextProbeChunk() bool {
	if j.colProbePart != nil {
		j.colRetire = append(j.colRetire, j.colProbePart)
		j.colProbePart = nil
	}
	if len(j.colProbeRest) == 0 {
		return false
	}
	j.colProbePart, j.colProbeRest = j.colProbeRest[0], j.colProbeRest[1:]
	j.setColProbeChunk(j.colProbePart)
	return true
}

// setColProbeChunk points the probe cursor at a new chunk (partition
// lanes or a decoded spill frame) and caches its int key lane when the
// single-integer-key fast path applies, with the lane's NULL bitmap only
// if it holds a NULL, so no sweep rescans the bitmap.
func (j *HashJoin) setColProbeChunk(cb *data.ColBatch) {
	j.colProbe = cb
	j.colProbeRow = 0
	j.colProbeKey, j.colProbeNulls = intKeyLane(cb, j.probeKeys), nil
	if kv := j.colProbeKey; kv != nil && kv.Nulls.Any() {
		j.colProbeNulls = kv.Nulls
	}
}

// nextProbeFrame decodes the next spilled probe frame into the decode
// buffer not currently being gathered from (double-buffered, so pairs
// buffered against the previous frame stay valid), returning nil at end
// of partition.
func (j *HashJoin) nextProbeFrame() (*data.ColBatch, error) {
	if j.colDecA == nil {
		j.colDecA = data.GetColBatch()
		j.colDecB = data.GetColBatch()
	}
	// Pick the decode buffer no live reference pins. Buffered (ungathered)
	// pairs pin their gather source — which survives partition
	// boundaries, where colProbe has already been reset — otherwise the
	// current chunk is the only hot buffer. At most one buffer is ever
	// pinned: a fill that holds pairs stops right after the source switch,
	// before the next decode, so the other buffer is free by construction.
	dst := j.colDecA
	if len(j.colPairB) > 0 {
		if j.colGatherP == j.colDecA {
			dst = j.colDecB
		}
	} else if j.colProbe == j.colDecA {
		dst = j.colDecB
	}
	err := j.probeFile.nextColFrame(dst)
	if err == io.EOF {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// endColPartition closes out the current partition: the finished
// partition's lanes move to the retire queue (they stay gatherable until
// the next pair fill) and the next partition loads.
func (j *HashJoin) endColPartition() error {
	if j.probeFile != nil {
		err := j.probeFile.close()
		j.probeSpill[j.curPart] = nil
		j.probeFile = nil
		if err != nil {
			return err
		}
	}
	if j.tracing() {
		j.traceEnd(fmt.Sprintf("join[%d]", j.curPart), j.joinedProbes.Load()-j.partProbes, 0, 0)
	}
	if j.colBuild != nil {
		j.colRetire = append(j.colRetire, j.colBuild)
		j.colBuild = nil
	}
	if j.colProbePart != nil {
		j.colRetire = append(j.colRetire, j.colProbePart)
		j.colProbePart = nil
	}
	j.colProbe = nil
	j.colProbeKey, j.colProbeNulls = nil, nil
	j.curPart++
	if j.curPart >= j.parts {
		j.state = hjDone
		j.done.Store(true)
		return nil
	}
	return j.loadColPartition(j.curPart)
}

// nextColChunk moves the probe cursor past an exhausted chunk: to the
// partition's next in-memory chunk or spill frame, else to the next
// partition. It is the join phase's per-chunk cancellation check.
func (j *HashJoin) nextColChunk() error {
	if err := j.ctxErr(); err != nil {
		return err
	}
	if j.probeFile != nil {
		next, err := j.nextProbeFrame()
		if err != nil {
			return err
		}
		if next != nil {
			j.setColProbeChunk(next)
			return nil
		}
	} else if j.nextProbeChunk() {
		return nil
	}
	return j.endColPartition()
}

// drainColRetire returns retired partition lanes to the pool. Called at
// the top of each fill, when the previous fill's pairs have been
// gathered and nothing references them.
func (j *HashJoin) drainColRetire() {
	for i, cb := range j.colRetire {
		data.PutColBatch(cb)
		j.colRetire[i] = nil
	}
	j.colRetire = j.colRetire[:0]
}

// fillColPairs is the join phase's one driver: it fills the pair
// buffers with up to max output rows, sweeping probe chunks with
// sweepColChunk and moving past each exhausted one. All buffered pairs
// address one (colGatherB, colGatherP) source pair, so a fill that holds
// pairs stops at the first source switch — the caller gathers them
// before the next fill reads the new sources. Returns 0 only when the
// join is exhausted. Its callers check cancellation before each fill;
// nextColChunk checks it at every chunk switch.
func (j *HashJoin) fillColPairs(max int) (int, error) {
	j.drainColRetire()
	j.colPairB, j.colPairP = j.colPairB[:0], j.colPairP[:0]
	for j.state == hjJoin {
		if cb := j.colProbe; cb != nil && (len(j.colSpanRest) > 0 || j.colProbeRow < cb.NRows) {
			if len(j.colPairB) == 0 {
				j.colGatherB, j.colGatherP = j.colBuild, cb
			}
			if j.sweepColChunk(max) {
				break
			}
		}
		if err := j.nextColChunk(); err != nil {
			return 0, err
		}
		if len(j.colPairB) > 0 {
			break
		}
	}
	return len(j.colPairB), nil
}

// sweepColChunk is the join kernel. It first drains the resume cursor (a
// span an earlier fill could not take whole), then starts colProbe's rows
// in order, each row's pairs appended by join type (inner: every match;
// outer: colPairNullBuild on a miss; semi: colPairProbeOnly on a hit;
// anti: colPairProbeOnly on a miss). It stops before starting a row once
// the buffer holds max pairs, and inside a span that overruns the
// buffer, leaving the rest as the resume cursor. joinedProbes advances
// once, by the rows started. Reports whether the buffer is full; if not,
// the chunk is exhausted.
//
// The rows are swept by one loop per probe shape: sweepDirectory when the
// build took the row directory and the chunk's key is a NULL-free int
// lane, sweepRows otherwise. Both start and stop at the same rows.
func (j *HashJoin) sweepColChunk(max int) bool {
	pb, pp := j.colPairB, j.colPairP
	if rest := j.colSpanRest; len(rest) > 0 {
		take := min(len(rest), max-len(pb))
		pb, pp = appendSpan(pb, pp, rest[:take], j.colSpanRow)
		j.colSpanRest = rest[take:]
		if len(pb) >= max { // the row path's usual fill inside a long span
			j.colPairB, j.colPairP = pb, pp
			return true
		}
	}
	start, i := j.colProbeRow, j.colProbeRow
	if kv := j.colProbeKey; kv != nil && j.colProbeNulls == nil && j.colTab.rowOf != nil {
		pb, pp, i = j.colTab.sweepDirectory(j.joinType, kv.Ints[:j.colProbe.NRows], i, pb, pp, max)
	} else {
		pb, pp, i = j.sweepRows(i, pb, pp, max)
	}
	if i > start {
		j.joinedProbes.Add(int64(i - start))
	}
	j.colProbeRow = i
	j.colPairB, j.colPairP = pb, pp
	return len(pb) >= max
}

// sweepRows is the general sweep: from row i of colProbe, each row's span
// is looked up — once per run of equal keys on an int key lane, its NULL
// bitmap tested per row — and appended by join type. It returns the pair
// buffers and the first row it did not start.
func (j *HashJoin) sweepRows(i int, pb, pp []int32, max int) ([]int32, []int32, int) {
	cb, jt := j.colProbe, j.joinType
	// Key shape: a flat int lane (its NULL bitmap nil when it has none)
	// or, with ints nil, generic keys extracted per row.
	var ints []int64
	if kv := j.colProbeKey; kv != nil {
		ints = kv.Ints
	}
	nulls := j.colProbeNulls
	var prevKey int64
	var prevSpan []int32
	havePrev := false
	for ; i < cb.NRows && len(pb) < max; i++ {
		var span []int32
		if ints != nil {
			if !nulls.Get(i) {
				if k := ints[i]; !havePrev || k != prevKey {
					prevKey, prevSpan, havePrev = k, j.colTab.lookupInt(k), true
				}
				span = prevSpan
			}
		} else if k := colJoinKeyAt(cb, j.probeKeys, i, &j.colScat.key); !k.IsNull() {
			span = j.colTab.lookup(k)
		}
		r := int32(i)
		switch jt {
		case SemiJoin, AntiJoin:
			if (len(span) > 0) == (jt == SemiJoin) {
				pb, pp = append(pb, colPairProbeOnly), append(pp, r)
			}
			continue
		case ProbeOuterJoin:
			if len(span) == 0 {
				pb, pp = append(pb, colPairNullBuild), append(pp, r)
				continue
			}
		}
		if len(span) == 1 { // a PK-FK probe's usual case: no copy loop
			pb, pp = append(pb, span[0]), append(pp, r)
			continue
		}
		take := min(len(span), max-len(pb))
		pb, pp = appendSpan(pb, pp, span[:take], r)
		if take < len(span) { // the buffer is full: keep the rest
			j.colSpanRest, j.colSpanRow = span[take:], r
		}
	}
	return pb, pp, i
}

// appendSpan appends one pair per build row of span, all with probe row r.
func appendSpan(pb, pp, span []int32, r int32) ([]int32, []int32) {
	pb = append(pb, span...)
	for range span {
		pp = append(pp, r)
	}
	return pb, pp
}

// gatherPairs appends the buffered pairs' output rows to out, one typed
// lane copy per column of the output map — no intermediate tuple
// materialization. Semi and anti joins map no build column, so their
// probe-only pair markers are never read.
func (j *HashJoin) gatherPairs(out *data.ColBatch) {
	n := len(j.colPairB)
	if n == 0 {
		return
	}
	base := out.NRows
	for i, c := range j.out.Build {
		var src *data.ColVec
		if j.colGatherB != nil {
			src = j.colGatherB.Col(c)
		}
		out.OwnCol(i).GatherFrom(src, j.colPairB, base)
	}
	w := len(j.out.Build)
	for i, c := range j.out.Probe {
		out.OwnCol(w+i).GatherFrom(j.colGatherP.Col(c), j.colPairP, base)
	}
	out.NRows = base + n
	j.colPairB = j.colPairB[:0]
	j.colPairP = j.colPairP[:0]
}

// advanceColRow is the row-output driver over the join phase (Next, which
// is also what the NextColBatch row fallback pulls): the same kernel one
// pair at a time, materialized into the row arena, with the amortized
// per-row cancellation check.
func (j *HashJoin) advanceColRow() (data.Tuple, error) {
	if err := j.pollCtx(); err != nil {
		return nil, err
	}
	if n, err := j.fillColPairs(1); n == 0 || err != nil {
		return nil, err
	}
	return j.materializeColRow(j.colPairB[0], j.colPairP[0]), nil
}

// materializeColRow builds the output tuple for one pair out of the
// gather sources through the output map, bump-allocated from the row
// arena.
func (j *HashJoin) materializeColRow(br, pr int32) data.Tuple {
	w := len(j.out.Build)
	out := j.colRowAlloc(w + len(j.out.Probe))
	for i, c := range j.out.Build {
		if br < 0 {
			out[i] = data.Value{} // an outer join's NULL-padded build side
		} else {
			out[i] = j.colGatherB.Value(c, int(br))
		}
	}
	for i, c := range j.out.Probe {
		out[w+i] = j.colGatherP.Value(c, int(pr))
	}
	return out
}

// colRowAlloc carves one output tuple from the columnar row arena.
func (j *HashJoin) colRowAlloc(n int) data.Tuple {
	if len(j.colRowArena) < n {
		j.colRowArena = make([]data.Value, n*data.BatchSize())
	}
	out := j.colRowArena[:n:n]
	j.colRowArena = j.colRowArena[n:]
	return data.Tuple(out)
}

// releaseColParts returns every columnar partition buffer and decode
// buffer to the pool (Close path; also safe mid-join).
func (j *HashJoin) releaseColParts() {
	for _, side := range [][]colPart{j.buildColParts, j.probeColParts, {j.colProbeRest}} {
		for _, part := range side {
			for _, cb := range part {
				data.PutColBatch(cb)
			}
		}
	}
	j.buildColParts, j.probeColParts, j.colProbeRest = nil, nil, nil
	for _, cb := range []**data.ColBatch{&j.colBuild, &j.colProbePart, &j.colDecA, &j.colDecB} {
		if *cb != nil {
			data.PutColBatch(*cb)
			*cb = nil
		}
	}
	j.drainColRetire()
	j.colProbe, j.colProbeKey, j.colProbeNulls = nil, nil, nil
	j.colGatherB, j.colGatherP = nil, nil
	j.colTab.clear()
	j.colSpanRest = nil
}

// NextColBatch implements ColOperator: the join (second) pass gathers
// output values directly into reused column lanes, one typed copy per
// column per pair buffer. A join that carries a per-tuple output hook is
// served like any row-major operator instead: rows pulled through Next —
// the hook sees materialized tuples — and re-exposed columnar without
// copying.
func (j *HashJoin) NextColBatch() (*data.ColBatch, error) {
	if j.OnOutput != nil {
		if j.rowOut == nil {
			j.rowOut = &colAdapter{Operator: j}
		}
		return j.rowOut.NextColBatch()
	}
	if err := j.ensurePartitioned(); err != nil {
		return nil, err
	}
	out := &j.colOut
	out.BeginBuild(j.schema.Len())
	limit := data.BatchSize()
	// A fill never buffers more than limit pairs, so the pair buffers are
	// sized for that once: grown by append, their final size (and what
	// the join allocates) would depend on the span lengths that happened
	// to arrive at each growth, and with them on the partition layout.
	if cap(j.colPairB) < limit {
		j.colPairB, j.colPairP = make([]int32, 0, limit), make([]int32, 0, limit)
	}
	for out.NRows < limit {
		if err := j.ctxErr(); err != nil {
			return nil, err
		}
		n, err := j.fillColPairs(limit - out.NRows)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			break
		}
		j.gatherPairs(out)
	}
	return j.emitColBatch(out)
}

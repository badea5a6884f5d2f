package exec

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"sync/atomic"

	"qpi/internal/data"
	"qpi/internal/hashtab"
	"qpi/internal/vfs"
)

// hashSeed is the process-wide seed for partitioning hashes; intSeed is
// the same seed in the form hashInt folds into integer keys.
var (
	hashSeed = maphash.MakeSeed()
	intSeed  = maphash.Comparable(hashSeed, uint64(0))
)

// hashValue hashes a join key for partitioning. Integer keys — the
// dominant case — mix the bare int64 (hashInt), so the passes that read a
// flat key lane never box a Value; everything else hashes the Value
// struct with maphash.Comparable. Every pass of every mode goes through
// this one function (or hashInt directly), which is what keeps partition
// layouts, and with them the join's partition-clustered output order,
// identical across modes.
func hashValue(v data.Value) uint64 {
	if v.Kind == data.KindInt {
		return hashInt(v.I)
	}
	return maphash.Comparable(hashSeed, v)
}

// hashInt is the seeded 64-bit mixer behind integer join keys (the
// murmur3 finalizer). It shares neither constants nor seed with the
// splitmix64 inside hashtab.I64Map, and partitionOf reads its high bits
// where the map reads low ones: the keys of one partition must still
// spread over the whole of that partition's join table and histogram.
func hashInt(k int64) uint64 {
	x := uint64(k) ^ intSeed
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// partitionOf maps a key hash to one of parts grace partitions by
// scaling its high 32 bits — no division, and no bit shared with a
// low-bits table index.
func partitionOf(h uint64, parts int) int {
	return int((h >> 32) * uint64(parts) >> 32)
}

// HashJoin is a grace hash join: it fully partitions the build input, then
// fully partitions the probe input, then joins partition by partition.
//
// The explicit probe partition pass matters for two reasons. First, the
// online estimator attaches there (OnProbeTuple) and converges to the
// exact join cardinality before any output is produced (§4.1.1). Second,
// the join output is clustered by partition, which is exactly the
// reordering that makes the dne and byte estimators fluctuate on skewed
// data (§5.1.2 / Figure 4).
type HashJoin struct {
	base
	// The child links, key lists, output map, schema and label are written
	// only by the constructor and by Prune, both before the join runs, so
	// a monitor goroutine walking the plan (Children, Name, Schema) reads
	// them without a lock.
	build, probe         Operator
	buildKeys, probeKeys []int
	out                  OutMap // which build and probe columns the join emits
	name                 string
	parts                int

	// Observer hooks of the two partition passes. One ordering contract
	// holds on both the tuple pass and the columnar pass:
	//
	//   - for one input batch the per-tuple hooks fire first, in row order,
	//     then the span hook (the tuple pass fires only the per-tuple hooks —
	//     it has no batches);
	//   - OnBuildEnd fires once between the passes, after the last build
	//     hook and before the first probe input is pulled;
	//   - OnProbeEnd fires once after the last probe hook;
	//   - all of the above happen before any join output is produced.
	//
	// OnBuildTuple / OnProbeTuple fire for every input tuple of the build /
	// probe partition pass. The online estimator attaches to the probe pass
	// and has converged to the exact join cardinality by OnProbeEnd
	// (§4.1.1).
	OnBuildTuple func(data.Tuple)
	OnProbeTuple func(data.Tuple)
	OnBuildEnd   func()
	OnProbeEnd   func()
	// OnOutput fires for every emitted join tuple (the second pass),
	// letting progress monitors sample during long emission phases. A
	// columnar join that carries it emits through materialized rows.
	OnOutput func(data.Tuple)

	// Span hooks of a columnar partition pass: OnBuildCol / OnProbeCol fire
	// once per input ColBatch, on the executor goroutine like every other
	// hook. The batch is only valid for the duration of the call (see the
	// ColBatch ownership contract in internal/data).
	OnBuildCol func(cb *data.ColBatch)
	OnProbeCol func(cb *data.ColBatch)

	// colMode selects the columnar partition passes (vectorized key hashing
	// off flat int64 lanes), lane-native partitions, the columnar spill
	// frame format and the lane-to-lane join phase; see SetColumnar.
	colMode bool

	state      hjState
	buildParts [][]data.Tuple
	probeParts [][]data.Tuple
	// buildRows/probeRows and done are read by monitor goroutines
	// (Report/Metrics via BuildRows/ProbeRows/JoinedProbeFraction) while
	// the executor advances, so they are atomics; state itself stays an
	// executor-private field.
	buildRows atomic.Int64
	probeRows atomic.Int64
	done      atomic.Bool

	// Memory-budgeted (spilling) mode: when memBudget > 0, partitions
	// whose buffered bytes exceed the per-partition share spill as runs
	// of one temporary file (the arena) — the grace hash join's actual
	// on-disk behaviour. The hash table for the partition being joined is
	// still built in memory.
	memBudget  int64
	arena      spillArena // both passes' spilled partitions
	buildSpill []*spillFile
	probeSpill []*spillFile
	buildBytes []int64
	probeBytes []int64
	probeFile  *spillFile // reader for the current spilled probe partition
	spilled    int        // partition buffers that went to disk

	curPart  int
	ht       joinTable
	curProbe int
	matches  []data.Tuple
	matchPos int
	probeTup data.Tuple

	// Lane-native columnar partition state (colMode): per-partition pooled
	// ColBatch lane buffers replace the row-major buffers end-to-end — the
	// passes scatter lane-to-lane, the join table indexes rows of the
	// partition's lanes, and the join phase gathers output lane-to-lane.
	// See hashjoin_col.go.
	buildColParts []colPart
	probeColParts []colPart
	colScat       colScatter // scatter scratch of the partition passes; its key tuple also serves the join phase
	colTab        colJoinTable
	colBuild      *data.ColBatch // current partition's build lanes (gather source)
	colProbe      *data.ColBatch // current probe chunk (partition lanes or a decoded spill frame)
	colProbePart  *data.ColBatch // the in-memory probe chunk being served (owned)
	colProbeRest  colPart        // the current partition's in-memory chunks still to serve (owned)
	colProbeRow   int            // next probe row of colProbe the sweep starts
	colProbeKey   *data.ColVec   // cached int key lane of the current probe chunk (nil = generic keys)
	colProbeNulls data.Bitmap    // colProbeKey's NULL bitmap, nil when the lane has no NULLs
	colSpanRest   []int32        // resume cursor: the unemitted rest of a span that overran the pair buffer
	colSpanRow    int32          // the probe row colSpanRest belongs to
	colDecA       *data.ColBatch // double-buffered spilled-probe frames: the
	colDecB       *data.ColBatch // previous frame stays gatherable while the next decodes
	colRetire     []*data.ColBatch
	colPairB      []int32
	colPairP      []int32
	colGatherB    *data.ColBatch // gather sources of the buffered pairs, set when
	colGatherP    *data.ColBatch // the first pair of a fill appends
	colRowArena   []data.Value
	// joinedProbes counts probe tuples consumed in the join (second)
	// pass. Atomic: monitor goroutines read it through
	// JoinedProbeFraction while the executor advances.
	joinedProbes atomic.Int64
	partProbes   int64 // joinedProbes at the current partition's start (trace counters)

	// Columnar output state: colOut is the reused output ColBatch, rowOut
	// the adapter over the join's own Next that NextColBatch falls back to.
	colOut data.ColBatch
	rowOut *colAdapter

	joinType JoinType
}

// OutMap is a join's output column map: output column i is build column
// Build[i] while i < len(Build), then probe column Probe[i-len(Build)].
// Each list is in input order.
type OutMap struct{ Build, Probe []int }

// FullOutMap is the map of a join that emits build ⧺ probe whole.
func FullOutMap(buildWidth, probeWidth int) OutMap {
	return OutMap{Build: identity(buildWidth), Probe: identity(probeWidth)}
}

// Source returns the input column output column i reads and whether the
// build side holds it.
func (m OutMap) Source(i int) (col int, build bool) {
	if i < len(m.Build) {
		return m.Build[i], true
	}
	return m.Probe[i-len(m.Build)], false
}

// joinTable is the per-partition build hash table. Integer join keys —
// the dominant case — index an open-addressing hashtab.I64Map whose
// values are spans into one flat tuple arena: building is two passes
// (count per key, then fill), so a partition's table costs a handful of
// allocations regardless of its distinct-key count, and probing touches
// a flat int64 key array instead of chasing map buckets. Non-integer
// keys fall back to a Value-keyed map. A joinTable is reusable across
// partitions (build resets it, retaining capacity).
type joinTable struct {
	ints hashtab.I64Map[tupleSpan]
	flat []data.Tuple
	// other holds non-integer-keyed rows (strings, floats); appended
	// incrementally during the count pass since the fast layout does not
	// apply.
	other map[data.Value][]data.Tuple
}

// tupleSpan is one key's region of the flat arena.
type tupleSpan struct {
	off, n int32
}

// build (re)constructs the table from a partition's build tuples. NULL
// keys never reach here (the partition passes drop them), but a guard
// keeps the table correct if one does.
func (jt *joinTable) build(tuples []data.Tuple, keys []int) {
	jt.ints.Reset()
	jt.other = nil
	nInt := 0
	for _, t := range tuples {
		k := JoinKeyOf(t, keys)
		switch {
		case k.Kind == data.KindInt:
			jt.ints.Ref(k.I).n++
			nInt++
		case k.IsNull():
			// dropped
		default:
			if jt.other == nil {
				jt.other = make(map[data.Value][]data.Tuple)
			}
			jt.other[k] = append(jt.other[k], t)
		}
	}
	if cap(jt.flat) < nInt {
		jt.flat = make([]data.Tuple, nInt)
	} else {
		jt.flat = jt.flat[:nInt]
	}
	// Counts become offsets; n doubles as the fill cursor and converges
	// back to the key's count.
	var off int32
	jt.ints.EachRef(func(_ int64, sp *tupleSpan) bool {
		sp.off = off
		off += sp.n
		sp.n = 0
		return true
	})
	for _, t := range tuples {
		k := JoinKeyOf(t, keys)
		if k.Kind == data.KindInt {
			sp := jt.ints.Ref(k.I)
			jt.flat[sp.off+sp.n] = t
			sp.n++
		}
	}
}

func (jt *joinTable) lookup(k data.Value) []data.Tuple {
	if k.Kind == data.KindInt {
		sp, ok := jt.ints.Get(k.I)
		if !ok {
			return nil
		}
		return jt.flat[sp.off : sp.off+sp.n]
	}
	if jt.other == nil {
		return nil
	}
	return jt.other[k]
}

func (jt *joinTable) clear() {
	jt.ints.Reset()
	jt.flat, jt.other = nil, nil
}

// colJoinTable is the lane-native per-partition build table: the same
// two-pass count/fill layout as joinTable, but the spans index rows of
// the partition's ColBatch lanes (int32 row numbers) instead of holding
// tuple references — building reads the flat key lane, probing returns
// row indexes for the lane-to-lane gather, and no build tuple is ever
// materialized.
//
// A dense primary-key build skips the per-partition tables: the whole
// build is indexed once by a flat row directory (buildDirectory), and
// lookupInt reads it. The directory is taken only by a join without a
// memory budget (memBudget <= 0), where every build partition is
// resident: its 4·span bytes are not charged to a governor's grant, so a
// budgeted join keeps the per-partition tables its budget accounts for.
type colJoinTable struct {
	ints hashtab.I64Map[tupleSpan]
	flat []int32
	// other holds non-integer-keyed row indexes (strings, floats).
	other map[data.Value][]int32
	// slots holds each row's I64Map slot from the count pass of a flat
	// int key lane, so the fill pass reaches its span without hashing
	// the key again (valid only if the count pass did not grow the map).
	slots []int32
	// rowOf is the row directory, nil when the build did not take it:
	// rowOf[k-lo] is key k's row in its own partition's lanes, -1 when no
	// build row has key k. A key's rows all live in one partition, so one
	// directory answers the probes of every partition.
	rowOf []int32
	lo    int64
}

// build (re)constructs the table over cb's rows. NULL keys never reach a
// build partition (the scatter drops them), but the generic path guards
// anyway, matching joinTable.
func (jt *colJoinTable) build(cb *data.ColBatch, keys []int, scratch *data.Tuple) {
	jt.ints.Reset()
	jt.other = nil
	if cb == nil || cb.NRows == 0 {
		jt.flat = jt.flat[:0]
		return
	}
	n := cb.NRows
	nInt := 0
	kv := intKeyLane(cb, keys)
	if kv != nil && kv.Nulls.Any() {
		kv = nil
	}
	grew := false
	if kv != nil {
		jt.slots = resizeRows(jt.slots, n)
		slots, before := jt.slots, jt.ints.Slots()
		for i, k := range kv.Ints[:n] {
			s := jt.ints.Slot(k)
			jt.ints.At(s).n++
			slots[i] = s
		}
		grew = jt.ints.Slots() != before
		nInt = n
	} else {
		for i := 0; i < n; i++ {
			k := colJoinKeyAt(cb, keys, i, scratch)
			switch {
			case k.Kind == data.KindInt:
				jt.ints.Ref(k.I).n++
				nInt++
			case k.IsNull():
				// dropped
			default:
				if jt.other == nil {
					jt.other = make(map[data.Value][]int32)
				}
				jt.other[k] = append(jt.other[k], int32(i))
			}
		}
	}
	jt.flat = resizeRows(jt.flat, nInt)
	var off int32
	jt.ints.EachRef(func(_ int64, sp *tupleSpan) bool {
		sp.off = off
		off += sp.n
		sp.n = 0
		return true
	})
	if kv != nil {
		slots := jt.slots
		if grew {
			// Growth moved the keys the early rows recorded: slot again (every
			// key is present, so nothing inserts and the map cannot grow).
			for i, k := range kv.Ints[:n] {
				slots[i] = jt.ints.Slot(k)
			}
		}
		for i, s := range slots {
			sp := jt.ints.At(s)
			jt.flat[sp.off+sp.n] = int32(i)
			sp.n++
		}
		return
	}
	for i := 0; i < n; i++ {
		k := colJoinKeyAt(cb, keys, i, scratch)
		if k.Kind == data.KindInt {
			sp := jt.ints.Ref(k.I)
			jt.flat[sp.off+sp.n] = int32(i)
			sp.n++
		}
	}
}

// buildDirectory indexes the resident build partitions (one lane batch
// each, as an unbudgeted join's build side keeps them) in the row
// directory, and reports the build rows n and whether it did. It does so
// only when every non-empty partition's key is a NULL-free homogeneous
// int lane, the key span hi-lo+1 lies in [n, 5n/4] — a smaller span is a
// certain repeated key, so nothing is allocated — and the fill finds no
// repeated key; otherwise the per-partition tables serve the join.
func (jt *colJoinTable) buildDirectory(parts []colPart, keys []int) (n int, ok bool) {
	jt.rowOf = nil
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, part := range parts {
		if len(part) == 0 || part[0].NRows == 0 {
			continue
		}
		cb := part[0]
		kv := intKeyLane(cb, keys)
		if kv == nil || kv.Nulls.Any() {
			return 0, false
		}
		for _, k := range kv.Ints[:cb.NRows] {
			lo, hi = min(lo, k), max(hi, k)
		}
		n += cb.NRows
	}
	if n == 0 {
		return 0, false
	}
	// The span less one, in uint64: hi-lo of keys at both ends of the
	// int64 domain wraps as an int64 but not here, and the span is bounded
	// before the +1 can overflow.
	d := uint64(hi) - uint64(lo)
	if d < uint64(n-1) || d >= uint64(5*n) || 4*(d+1) > uint64(5*n) {
		return 0, false
	}
	rowOf := make([]int32, d+1)
	for i := range rowOf {
		rowOf[i] = -1
	}
	for _, part := range parts {
		if len(part) == 0 || part[0].NRows == 0 {
			continue
		}
		cb := part[0]
		for i, k := range cb.Col(keys[0]).Ints[:cb.NRows] {
			r := &rowOf[uint64(k)-uint64(lo)]
			if *r >= 0 {
				return 0, false // a repeated key: not a primary key
			}
			*r = int32(i)
		}
	}
	jt.rowOf, jt.lo = rowOf, lo
	return n, true
}

// resizeRows returns s resized to n rows, reallocating with a quarter's
// headroom: a join's build partitions differ in size by a few percent,
// so the first partition's buffer usually serves them all.
func resizeRows(s []int32, n int) []int32 {
	if cap(s) < n {
		s = make([]int32, n, n+n/4)
	}
	return s[:n]
}

// lookupInt returns the build row indexes matching an int key — the hot
// probe path, fed straight from the probe partition's key lane. With the
// row directory it is an unsigned bounds check and one load.
func (jt *colJoinTable) lookupInt(k int64) []int32 {
	if jt.rowOf != nil {
		d := uint64(k) - uint64(jt.lo)
		if d >= uint64(len(jt.rowOf)) || jt.rowOf[d] < 0 {
			return nil
		}
		return jt.rowOf[d : d+1]
	}
	sp, ok := jt.ints.Get(k)
	if !ok {
		return nil
	}
	return jt.flat[sp.off : sp.off+sp.n]
}

func (jt *colJoinTable) lookup(k data.Value) []int32 {
	if k.Kind == data.KindInt {
		return jt.lookupInt(k.I)
	}
	if jt.other == nil {
		return nil
	}
	return jt.other[k]
}

func (jt *colJoinTable) clear() {
	jt.ints.Reset()
	jt.flat, jt.other, jt.slots, jt.rowOf = nil, nil, nil, nil
}

// intKeyLane returns the key column when the join key is one homogeneous
// integer column — the precondition of every flat-lane fast path
// (scatter, table build, probe lookup) — and nil otherwise. The lane may
// still hold NULLs.
func intKeyLane(cb *data.ColBatch, keys []int) *data.ColVec {
	if len(keys) != 1 {
		return nil
	}
	if v := cb.Col(keys[0]); v.Homogeneous() && v.Kind == data.KindInt {
		return v
	}
	return nil
}

// colJoinKeyAt is JoinKeyOf evaluated off column lanes: the single key
// column's value, or the composite GroupKey for multi-column keys (any
// NULL component yields NULL). scratch is a reusable tuple the key
// columns are staged into for GroupKey.
func colJoinKeyAt(cb *data.ColBatch, keys []int, i int, scratch *data.Tuple) data.Value {
	if len(keys) == 1 {
		return cb.Col(keys[0]).ValueAt(i)
	}
	w := cb.Width()
	if cap(*scratch) < w {
		*scratch = make(data.Tuple, w)
	}
	t := (*scratch)[:w]
	for _, c := range keys {
		v := cb.Col(c).ValueAt(i)
		if v.IsNull() {
			return data.Null()
		}
		t[c] = v
	}
	return GroupKey(t, keys)
}

type hjState uint8

const (
	hjInit hjState = iota
	hjJoin
	hjDone
)

// JoinType selects the join semantics of a HashJoin. The probe side is
// the preserved side for the outer/semi/anti variants, because the probe
// input streams and a preserved build side would require end-of-join
// bitmap scans; the SQL planner orients joins accordingly.
type JoinType uint8

// Join types.
const (
	// InnerJoin emits build ⧺ probe for every match.
	InnerJoin JoinType = iota
	// ProbeOuterJoin additionally emits NULL-padded build columns for
	// probe tuples without a match (SQL LEFT JOIN with the preserved
	// relation on the probe side).
	ProbeOuterJoin
	// SemiJoin emits each probe tuple once iff a match exists; the output
	// schema is the probe schema alone.
	SemiJoin
	// AntiJoin emits each probe tuple iff no match exists; the output
	// schema is the probe schema alone.
	AntiJoin
)

func (t JoinType) String() string {
	switch t {
	case InnerJoin:
		return "inner"
	case ProbeOuterJoin:
		return "outer"
	case SemiJoin:
		return "semi"
	default:
		return "anti"
	}
}

// NewHashJoin joins build ⋈ probe on build.Schema()[buildKey] =
// probe.Schema()[probeKey]. The output schema is build columns followed by
// probe columns; Prune may narrow it to the columns read above the join
// (see OutMap).
func NewHashJoin(build, probe Operator, buildKey, probeKey int) *HashJoin {
	return NewHashJoinMulti(build, probe, []int{buildKey}, []int{probeKey}, InnerJoin)
}

// NewHashJoinMulti joins on the conjunction of several column equalities
// (§4.1's "join conditions involving ... conjunctions of multiple
// attributes"): tuples match when every corresponding key column pair is
// equal. buildKeys and probeKeys must have equal non-zero length.
func NewHashJoinMulti(build, probe Operator, buildKeys, probeKeys []int, t JoinType) *HashJoin {
	if len(buildKeys) == 0 || len(buildKeys) != len(probeKeys) {
		panic(fmt.Sprintf("exec: NewHashJoinMulti: key arity mismatch %d vs %d",
			len(buildKeys), len(probeKeys)))
	}
	j := &HashJoin{parts: 16, joinType: t}
	j.link(build, probe, buildKeys, probeKeys, j.fullOut(build, probe))
	return j
}

// fullOut is the output map of the join over build and probe before any
// narrowing: build ⧺ probe, or the probe alone for semi and anti joins.
func (j *HashJoin) fullOut(build, probe Operator) OutMap {
	out := FullOutMap(build.Schema().Len(), probe.Schema().Len())
	if j.joinType == SemiJoin || j.joinType == AntiJoin {
		out.Build = nil
	}
	return out
}

// link sets the join's children, keys and output map, with the schema and
// label they determine.
func (j *HashJoin) link(build, probe Operator, buildKeys, probeKeys []int, out OutMap) {
	buildIn, probeIn := build.Schema(), probe.Schema()
	cols := make([]data.Column, 0, len(out.Build)+len(out.Probe))
	for _, c := range out.Build {
		cols = append(cols, buildIn.Cols[c])
	}
	for _, c := range out.Probe {
		cols = append(cols, probeIn.Cols[c])
	}
	schema := data.NewSchema(cols...)
	j.build, j.probe = build, probe
	j.buildKeys, j.probeKeys = buildKeys, probeKeys
	j.out = out
	j.schema = schema
	j.name = joinLabel(j.joinType, build, probe, buildKeys, probeKeys)
}

// NewHashJoinTyped creates a hash join with explicit join semantics.
func NewHashJoinTyped(build, probe Operator, buildKey, probeKey int, t JoinType) *HashJoin {
	return NewHashJoinMulti(build, probe, []int{buildKey}, []int{probeKey}, t)
}

// JoinKeyOf extracts a join key from a tuple: the single column value, or
// a composite value for multi-column keys (any NULL component yields
// NULL, since a NULL never equals anything).
func JoinKeyOf(t data.Tuple, cols []int) data.Value {
	if len(cols) == 1 {
		return t[cols[0]]
	}
	for _, c := range cols {
		if t[c].IsNull() {
			return data.Null()
		}
	}
	return GroupKey(t, cols)
}

// Type returns the join semantics.
func (j *HashJoin) Type() JoinType { return j.joinType }

// NewHashJoinOn resolves the join columns by qualified name.
func NewHashJoinOn(build, probe Operator, buildTable, buildCol, probeTable, probeCol string) *HashJoin {
	return NewHashJoin(build, probe,
		build.Schema().MustResolve(buildTable, buildCol),
		probe.Schema().MustResolve(probeTable, probeCol))
}

// SetPartitions overrides the number of grace partitions (default 16).
func (j *HashJoin) SetPartitions(p int) *HashJoin {
	if p < 1 {
		p = 1
	}
	j.parts = p
	return j
}

// SetMemoryBudget caps the bytes buffered across partition buffers;
// overflowing partitions spill to temporary files (0 = unlimited, the
// default). The budget is split evenly across partitions and sides. A
// partition spills exactly when its total bytes exceed its share; the
// columnar passes check after each batch's group of rows for the
// partition, so one may hold up to that group over its share for the
// moment before it is dumped (the tuple pass checks after every row).
func (j *HashJoin) SetMemoryBudget(bytes int64) *HashJoin {
	j.memBudget = bytes
	return j
}

// Spilled reports how many partition buffers went to disk (both sides).
func (j *HashJoin) Spilled() int { return j.spilled }

// SetSpillFS routes the join's spill I/O through fs (nil restores the
// real filesystem); tests inject a vfs.FaultFS here.
func (j *HashJoin) SetSpillFS(fs vfs.FS) *HashJoin {
	j.arena.fs = fs
	return j
}

// partitionAppend buffers a tuple for partition p on one side, spilling
// the buffer when it exceeds its budget share.
func (j *HashJoin) partitionAppend(parts [][]data.Tuple, spill []*spillFile,
	bytes []int64, p int, t data.Tuple, width int) error {
	if spill != nil && spill[p] != nil {
		j.stats.SpillBytes.Add(int64(t.Size()))
		return spill[p].append(t)
	}
	parts[p] = append(parts[p], t)
	if j.memBudget <= 0 {
		return nil
	}
	bytes[p] += int64(t.Size())
	if bytes[p] <= j.memBudget/int64(2*j.parts) {
		return nil
	}
	// Overflow: dump this partition's buffer and switch it to disk.
	f, err := j.arena.newRun(width)
	if err != nil {
		return err
	}
	for _, buf := range parts[p] {
		if err := f.append(buf); err != nil {
			f.close()
			return err
		}
	}
	j.stats.SpillFiles.Add(1)
	j.stats.SpillBytes.Add(bytes[p])
	j.traceMark("spill", int64(len(parts[p])), bytes[p])
	parts[p] = nil
	spill[p] = f
	j.spilled++
	return nil
}

// Build returns the build child; Probe the probe child.
func (j *HashJoin) Build() Operator { return j.build }

// Probe returns the probe child.
func (j *HashJoin) Probe() Operator { return j.probe }

// BuildKey returns the first build-side join column index.
func (j *HashJoin) BuildKey() int { return j.buildKeys[0] }

// ProbeKey returns the first probe-side join column index.
func (j *HashJoin) ProbeKey() int { return j.probeKeys[0] }

// BuildKeys returns the build-side join column indexes.
func (j *HashJoin) BuildKeys() []int { return j.buildKeys }

// ProbeKeys returns the probe-side join column indexes.
func (j *HashJoin) ProbeKeys() []int { return j.probeKeys }

// OutMap returns the join's output map: which build and probe columns it
// emits, in that order.
func (j *HashJoin) OutMap() OutMap { return j.out }

// Name implements Operator. The label is rendered when the join is
// linked; Prune relinks with narrowed indexes but the same columns, so it
// never changes.
func (j *HashJoin) Name() string { return j.name }

// joinLabel renders a hash join's EXPLAIN label from its links.
func joinLabel(t JoinType, build, probe Operator, buildKeys, probeKeys []int) string {
	kind := ""
	if t != InnerJoin {
		kind = t.String() + " "
	}
	conds := ""
	for i := range buildKeys {
		if i > 0 {
			conds += " AND "
		}
		conds += build.Schema().Cols[buildKeys[i]].Qualified() + " = " +
			probe.Schema().Cols[probeKeys[i]].Qualified()
	}
	return fmt.Sprintf("HashJoin(%s%s)", kind, conds)
}

// Children implements Operator.
func (j *HashJoin) Children() []Operator { return []Operator{j.build, j.probe} }

// Open implements Operator.
func (j *HashJoin) Open() error {
	if err := j.build.Open(); err != nil {
		return err
	}
	return j.probe.Open()
}

// Next implements Operator.
func (j *HashJoin) Next() (data.Tuple, error) {
	if err := j.ensurePartitioned(); err != nil {
		return nil, err
	}
	var t data.Tuple
	var err error
	if j.colMode {
		t, err = j.advanceColRow()
	} else {
		t, err = j.advance()
	}
	if err != nil {
		return nil, err
	}
	if t == nil {
		return j.finish()
	}
	if j.OnOutput != nil {
		j.OnOutput(t)
	}
	return j.emit(t)
}

// ensurePartitioned runs the partition phases once: the columnar passes
// under SetColumnar, the tuple-at-a-time passes otherwise.
func (j *HashJoin) ensurePartitioned() error {
	if j.state != hjInit {
		return nil
	}
	var err error
	if j.colMode {
		err = j.partitionPhasesColumnar()
	} else {
		err = j.partitionPhases()
	}
	if err != nil {
		return err
	}
	j.state = hjJoin
	return nil
}

// beginJoinPhase starts the join (second) phase after the partition
// passes by loading the first partition.
func (j *HashJoin) beginJoinPhase() error {
	j.curPart = 0
	if j.colMode {
		return j.loadColPartition(0)
	}
	return j.loadPartition(0)
}

// advance produces the next join output tuple of the second pass over
// row-major partitions, or nil when the join is exhausted. The OnOutput
// hook and the emission count are the caller's responsibility.
func (j *HashJoin) advance() (data.Tuple, error) {
	for j.state == hjJoin {
		if err := j.pollCtx(); err != nil {
			return nil, err
		}
		// Emit pending matches for the current probe tuple.
		if j.matchPos < len(j.matches) {
			m := j.matches[j.matchPos]
			j.matchPos++
			return j.outRow(m, j.probeTup), nil
		}
		// Advance to the next probe tuple in the current partition.
		probeTup, err := j.nextProbeInPartition()
		if err != nil {
			return nil, err
		}
		if probeTup != nil {
			j.probeTup = probeTup
			j.joinedProbes.Add(1)
			key := JoinKeyOf(j.probeTup, j.probeKeys)
			var matches []data.Tuple
			if !key.IsNull() {
				matches = j.ht.lookup(key)
			}
			switch j.joinType {
			case SemiJoin, AntiJoin:
				if (len(matches) > 0) == (j.joinType == SemiJoin) {
					return j.outRow(nil, j.probeTup), nil
				}
				continue
			case ProbeOuterJoin:
				if len(matches) == 0 {
					return j.outRow(nil, j.probeTup), nil
				}
			}
			j.matches = matches
			j.matchPos = 0
			continue
		}
		// Advance to the next partition.
		if j.probeFile != nil {
			err := j.probeFile.close()
			j.probeSpill[j.curPart] = nil
			j.probeFile = nil
			if err != nil {
				return nil, err
			}
		}
		if j.tracing() {
			j.traceEnd(fmt.Sprintf("join[%d]", j.curPart), j.joinedProbes.Load()-j.partProbes, 0, 0)
		}
		j.curPart++
		if j.curPart >= j.parts {
			j.state = hjDone
			j.done.Store(true)
			break
		}
		if err := j.loadPartition(j.curPart); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// outRow builds one output tuple of the tuple path through the output
// map: b's kept columns (NULLs when b is nil, an outer join's miss), then
// p's.
func (j *HashJoin) outRow(b, p data.Tuple) data.Tuple {
	w := len(j.out.Build)
	out := make(data.Tuple, w+len(j.out.Probe))
	if b != nil {
		for i, c := range j.out.Build {
			out[i] = b[c]
		}
	}
	for i, c := range j.out.Probe {
		out[w+i] = p[c]
	}
	return out
}

// initPartitions allocates the per-partition buffers for both sides.
// colMode uses pooled lane buffers (fetched lazily on first append)
// instead of the row-major slices.
func (j *HashJoin) initPartitions() {
	if j.colMode {
		j.buildColParts = make([]colPart, j.parts)
		j.probeColParts = make([]colPart, j.parts)
	} else {
		j.buildParts = make([][]data.Tuple, j.parts)
		j.probeParts = make([][]data.Tuple, j.parts)
	}
	j.buildSpill = make([]*spillFile, j.parts)
	j.probeSpill = make([]*spillFile, j.parts)
	j.buildBytes = make([]int64, j.parts)
	j.probeBytes = make([]int64, j.parts)
}

// partitionPhases runs the tuple-at-a-time build and probe partition
// passes (the reference path; SetColumnar selects the columnar ones).
func (j *HashJoin) partitionPhases() error {
	j.initPartitions()
	buildWidth := j.build.Schema().Len()
	probeWidth := j.probe.Schema().Len()
	j.traceBegin("build")
	for {
		if err := j.pollCtx(); err != nil {
			return err
		}
		t, err := j.build.Next()
		if err != nil {
			return err
		}
		if t == nil {
			break
		}
		j.buildRows.Add(1)
		if j.OnBuildTuple != nil {
			j.OnBuildTuple(t)
		}
		k := JoinKeyOf(t, j.buildKeys)
		if k.IsNull() {
			continue // NULL keys never join
		}
		p := partitionOf(hashValue(k), j.parts)
		if err := j.partitionAppend(j.buildParts, j.buildSpill, j.buildBytes, p, t, buildWidth); err != nil {
			return err
		}
	}
	j.traceEnd("build", j.buildRows.Load(), 0, int64(j.spilled))
	if j.OnBuildEnd != nil {
		j.OnBuildEnd()
	}
	j.traceBegin("probe")
	for {
		if err := j.pollCtx(); err != nil {
			return err
		}
		t, err := j.probe.Next()
		if err != nil {
			return err
		}
		if t == nil {
			break
		}
		j.probeRows.Add(1)
		if j.OnProbeTuple != nil {
			j.OnProbeTuple(t)
		}
		k := JoinKeyOf(t, j.probeKeys)
		if k.IsNull() {
			// NULL keys never match; they are preserved only by the
			// probe-preserving join types.
			if j.joinType == ProbeOuterJoin || j.joinType == AntiJoin {
				if err := j.partitionAppend(j.probeParts, j.probeSpill, j.probeBytes, 0, t, probeWidth); err != nil {
					return err
				}
			}
			continue
		}
		p := partitionOf(hashValue(k), j.parts)
		if err := j.partitionAppend(j.probeParts, j.probeSpill, j.probeBytes, p, t, probeWidth); err != nil {
			return err
		}
	}
	j.traceEnd("probe", j.probeRows.Load(), 0, int64(j.spilled))
	if j.OnProbeEnd != nil {
		j.OnProbeEnd()
	}
	return j.beginJoinPhase()
}

// loadPartition builds the in-memory hash table for one partition,
// reading spilled build tuples back from disk, and positions the probe
// cursor (in-memory slice or spilled stream).
func (j *HashJoin) loadPartition(p int) error {
	if err := j.ctxErr(); err != nil {
		return err
	}
	if j.tracing() {
		j.traceBegin(fmt.Sprintf("join[%d]", p))
		j.partProbes = j.joinedProbes.Load()
	}
	buildTuples := j.buildParts[p]
	if f := j.buildSpill[p]; f != nil {
		var err error
		buildTuples, err = f.readAll()
		if err != nil {
			return err
		}
		j.buildSpill[p] = nil
		if err := f.close(); err != nil {
			return err
		}
	}
	j.ht.build(buildTuples, j.buildKeys)
	j.buildParts[p] = nil // partition consumed
	j.probeFile = nil
	if f := j.probeSpill[p]; f != nil {
		if err := f.startRead(); err != nil {
			return err
		}
		j.probeFile = f
	}
	j.curProbe = 0
	j.matches = nil
	j.matchPos = 0
	return nil
}

// nextProbeInPartition advances the probe cursor within the current
// partition, returning nil at partition end.
func (j *HashJoin) nextProbeInPartition() (data.Tuple, error) {
	if j.probeFile != nil {
		return j.probeFile.next()
	}
	if j.curPart < j.parts && j.curProbe < len(j.probeParts[j.curPart]) {
		t := j.probeParts[j.curPart][j.curProbe]
		j.curProbe++
		return t, nil
	}
	return nil, nil
}

// Close implements Operator. Both children are always closed and every
// spilled run released; all errors are reported via errors.Join.
func (j *HashJoin) Close() error {
	j.buildParts, j.probeParts, j.matches = nil, nil, nil
	j.ht.clear()
	j.releaseColParts()
	var errs []error
	for _, f := range j.buildSpill {
		if f != nil {
			errs = append(errs, f.close())
		}
	}
	for _, f := range j.probeSpill {
		if f != nil {
			errs = append(errs, f.close())
		}
	}
	j.buildSpill, j.probeSpill, j.probeFile = nil, nil, nil
	j.traceMark("close", j.stats.Emitted.Load(), 0)
	errs = append(errs, j.build.Close(), j.probe.Close())
	return errors.Join(errs...)
}

// BuildRows returns the number of build tuples read (available after the
// first Next call).
func (j *HashJoin) BuildRows() int64 { return j.buildRows.Load() }

// ProbeRows returns the number of probe tuples read.
func (j *HashJoin) ProbeRows() int64 { return j.probeRows.Load() }

// JoinedProbeFraction returns the fraction of the probe input consumed by
// the join (second) pass — the x-axis of the paper's Figure 4 and the
// driver progress the dne/byte estimators observe for hash joins.
func (j *HashJoin) JoinedProbeFraction() float64 {
	probed := j.probeRows.Load()
	if probed == 0 {
		if j.done.Load() {
			return 1
		}
		return 0
	}
	return float64(j.joinedProbes.Load()) / float64(probed)
}

package exec

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
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
// struct with maphash.Comparable. Both partition passes go through this
// one function (or hashInt directly), which is what keeps the partition
// layout, and with it the join's partition-clustered output order, the
// same whether a key is hashed off a flat lane or per row.
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
// Both partition passes pull column batches and scatter them lane-to-lane
// into per-partition lane buffers; the join phase gathers its output
// lane-to-lane (see hashjoin_col.go).
//
// The explicit probe partition pass matters for two reasons. First, the
// online estimator attaches there (OnProbeCol) and converges to the
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

	// Observer hooks of the two partition passes. They fire on the
	// executor goroutine in this order:
	//
	//   - OnBuildCol / OnProbeCol once per input ColBatch of the build /
	//     probe pass, before the batch is scattered;
	//   - OnBuildEnd once between the passes, after the last build span and
	//     before the first probe input is pulled;
	//   - OnProbeEnd once after the last probe span;
	//   - all of the above before any join output is produced.
	//
	// The batch a span hook sees is only valid for the duration of the call
	// (see the ColBatch ownership contract in internal/data). The online
	// estimator attaches to the probe pass and has converged to the exact
	// join cardinality by OnProbeEnd (§4.1.1).
	OnBuildCol func(cb *data.ColBatch)
	OnProbeCol func(cb *data.ColBatch)
	OnBuildEnd func()
	OnProbeEnd func()

	state hjState
	// buildRows/probeRows and done are read by monitor goroutines
	// (Report/Metrics via BuildRows/ProbeRows/JoinedProbeFraction) while
	// the executor advances, so they are atomics; state itself stays an
	// executor-private field.
	buildRows atomic.Int64
	probeRows atomic.Int64
	// probeKept counts the probe rows the probe pass kept: all of them
	// but the NULL keys an inner or semi join drops, which never join.
	probeKept atomic.Int64
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

	curPart int

	// Lane-native partition state: per-partition pooled ColBatch lane
	// buffers — the passes scatter lane-to-lane, the join table indexes
	// rows of the partition's lanes, and the join phase gathers output
	// lane-to-lane. See hashjoin_col.go.
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
	// joinedProbes counts probe tuples consumed in the join (second)
	// pass. Atomic: monitor goroutines read it through
	// JoinedProbeFraction while the executor advances.
	joinedProbes atomic.Int64
	partProbes   int64 // joinedProbes at the current partition's start (trace counters)

	colOut data.ColBatch // the reused output batch

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

// tupleSpan is one key's region of colJoinTable's flat row array.
type tupleSpan struct {
	off, n int32
}

// colJoinTable is the per-partition build table. Integer join keys — the
// dominant case — index an open-addressing hashtab.I64Map whose values
// are spans into one flat array of row numbers of the partition's
// ColBatch lanes: building is two passes (count per key, then fill) over
// the flat key lane, so a partition's table costs a handful of
// allocations regardless of its distinct-key count, and probing returns
// row indexes for the lane-to-lane gather; no build tuple is ever
// materialized. Non-integer keys fall back to a Value-keyed map. A
// colJoinTable is reusable across partitions (build resets it, retaining
// capacity).
//
// A dense primary-key build skips the per-partition tables: the whole
// build is indexed once by a flat row directory (buildDirectory), which
// the directory kernel (sweepDirectory) and lookupInt read. The directory
// is taken only by a join without a memory budget (memBudget <= 0), where
// every build partition is resident: its 4·span bytes are not charged to
// a governor's grant, so a budgeted join keeps the per-partition tables
// its budget accounts for.
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
// anyway.
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
			k := JoinKeyAt(cb, keys, i, scratch)
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
		k := JoinKeyAt(cb, keys, i, scratch)
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

// lookupInt returns the build row indexes matching an int key, fed
// straight from the probe partition's key lane by the general sweep. With
// the row directory it is an unsigned bounds check and one load, but a
// NULL-free lane over the directory never calls it: the directory kernel
// (sweepDirectory) does the same per row in place.
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

// sweepDirectory is the join kernel over the row directory, probed by a
// NULL-free int key lane: from row i of keys it appends each row's pair
// by join type and returns the pair buffers and the first row it did not
// start. A primary-key build gives a row at most one pair, so it sweeps
// min(rows left, max-len(pb)) rows at a time with no buffer test per row
// — a full buffer is reached only on a step's last row, the row at which
// the per-row test would stop — and a lookup is an unsigned k-lo bounds
// check and one load. No span is built and no run of equal keys is
// cached: the load is the lookup.
func (jt *colJoinTable) sweepDirectory(join JoinType, keys []int64, i int, pb, pp []int32, max int) ([]int32, []int32, int) {
	for i < len(keys) && len(pb) < max {
		n := min(len(keys)-i, max-len(pb))
		o := len(pb)
		pb, pp = slices.Grow(pb, n)[:o+n], slices.Grow(pp, n)[:o+n]
		w := jt.directoryPairs(join, keys[i:i+n], int32(i), pb[o:], pp[o:])
		pb, pp = pb[:o+w], pp[:o+w]
		i += n
	}
	return pb, pp, i
}

// directoryPairs writes the pairs of probe rows r0, r0+1, … keyed by keys
// into pb and pp (room for one pair per key) and returns how many it
// wrote.
func (jt *colJoinTable) directoryPairs(join JoinType, keys []int64, r0 int32, pb, pp []int32) int {
	rowOf, lo := jt.rowOf, uint64(jt.lo)
	w := 0
	switch join {
	case InnerJoin:
		for x, k := range keys {
			if d := uint64(k) - lo; d < uint64(len(rowOf)) {
				if b := rowOf[d]; b >= 0 {
					pb[w], pp[w] = b, r0+int32(x)
					w++
				}
			}
		}
	case ProbeOuterJoin:
		for x, k := range keys {
			b := colPairNullBuild
			if d := uint64(k) - lo; d < uint64(len(rowOf)) && rowOf[d] >= 0 {
				b = rowOf[d]
			}
			pb[x], pp[x] = b, r0+int32(x)
		}
		w = len(keys)
	case SemiJoin, AntiJoin:
		semi := join == SemiJoin
		for x, k := range keys {
			d := uint64(k) - lo
			if hit := d < uint64(len(rowOf)) && rowOf[d] >= 0; hit == semi {
				pb[w], pp[w] = colPairProbeOnly, r0+int32(x)
				w++
			}
		}
	}
	return w
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

// JoinKeyAt is JoinKeyOf evaluated off column lanes for row i of cb: the
// single key column's value, or the composite GroupKey for multi-column
// keys (any NULL component yields NULL). scratch is a reusable tuple the
// key columns are staged into for GroupKey. The estimators read keys
// with it wherever their lane kernels do not apply.
func JoinKeyAt(cb *data.ColBatch, keys []int, i int, scratch *data.Tuple) data.Value {
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
// passes check after each batch's group of rows for the partition, so one
// may hold up to that group over its share for the moment before it is
// dumped.
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

// ensurePartitioned runs the partition phases once.
func (j *HashJoin) ensurePartitioned() error {
	if j.state != hjInit {
		return nil
	}
	if err := j.partitionPhases(); err != nil {
		return err
	}
	j.state = hjJoin
	return nil
}

// initPartitions allocates the per-partition buffers for both sides: lane
// buffer lists (their pooled batches are fetched on first append) and the
// spill bookkeeping.
func (j *HashJoin) initPartitions() {
	j.buildColParts = make([]colPart, j.parts)
	j.probeColParts = make([]colPart, j.parts)
	j.buildSpill = make([]*spillFile, j.parts)
	j.probeSpill = make([]*spillFile, j.parts)
	j.buildBytes = make([]int64, j.parts)
	j.probeBytes = make([]int64, j.parts)
}

// Close implements Operator. Both children are always closed and every
// spilled run released; all errors are reported via errors.Join.
func (j *HashJoin) Close() error {
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

// BuildRows returns the number of build rows read (complete once the
// first NextColBatch call has run the partition passes).
func (j *HashJoin) BuildRows() int64 { return j.buildRows.Load() }

// ProbeRows returns the number of probe tuples read.
func (j *HashJoin) ProbeRows() int64 { return j.probeRows.Load() }

// JoinedProbeFraction returns the fraction of the probe input consumed by
// the join (second) pass — the x-axis of the paper's Figure 4 and the
// driver progress the dne/byte estimators observe for hash joins. Its
// denominator is the probe rows the probe pass kept, so a finished join
// reads 1 even when its scatter dropped NULL keys.
func (j *HashJoin) JoinedProbeFraction() float64 {
	kept := j.probeKept.Load()
	if kept == 0 {
		if j.done.Load() {
			return 1
		}
		return 0
	}
	return float64(j.joinedProbes.Load()) / float64(kept)
}

// Package storage provides an in-memory block-structured heap "file" per
// table plus the block-level random sampling machinery the paper's modified
// table scans rely on (§3, §5 "Implementation"): a scan first delivers a
// random sample of blocks of a requested fraction, then the rest of the
// table excluding the sampled blocks (the paper's antijoin on block ids),
// emitting a punctuation in between.
//
// A table is its column lanes: one table-wide data.ColVec per column, which
// Append extends; a block is a range of BlockSize rows. A columnar scan
// hands out read-only windows of the lanes (Iterator.Window: no per-query
// pivot) and ANALYZE reads them; the oracle and the table-file writer get
// tuples built from them (Iterator.Next, Table.Rows).
package storage

import (
	"fmt"
	"math/rand"
	"slices"

	"qpi/internal/data"
)

// BlockSize is the number of tuples per block. 128 keeps blocks around the
// size of a disk page for typical narrow tuples.
const BlockSize = 128

// Table is a heap file: an append-only sequence of rows with a schema,
// stored as one column lane per column and read in blocks of BlockSize
// rows.
type Table struct {
	name   string
	schema *data.Schema
	nrows  int
	lanes  []data.ColVec
}

// NewTable creates an empty table.
func NewTable(name string, schema *data.Schema) *Table {
	return &Table{name: name, schema: schema, lanes: make([]data.ColVec, schema.Len())}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *data.Schema { return t.schema }

// NumRows returns the number of tuples in the table.
func (t *Table) NumRows() int { return t.nrows }

// NumBlocks returns the number of blocks in the table.
func (t *Table) NumBlocks() int { return numBlocks(t.nrows) }

func numBlocks(rows int) int { return (rows + BlockSize - 1) / BlockSize }

// blockSpan returns the row range of block b in a table of rows rows.
func blockSpan(b, rows int) (lo, hi int) {
	return b * BlockSize, min((b+1)*BlockSize, rows)
}

// Append adds a tuple to the table. The tuple must match the schema arity.
func (t *Table) Append(tu data.Tuple) error {
	if len(tu) != t.schema.Len() {
		return fmt.Errorf("storage: table %s: tuple arity %d != schema arity %d",
			t.name, len(tu), t.schema.Len())
	}
	for c := range tu {
		t.lanes[c].AppendVal(t.nrows, tu[c])
	}
	t.nrows++
	return nil
}

// MustAppend is Append, panicking on arity mismatch (generator-side use).
func (t *Table) MustAppend(tu data.Tuple) {
	if err := t.Append(tu); err != nil {
		panic(err)
	}
}

// Rows builds every row in storage order as fresh tuples carved from one
// arena, mainly for tests and the oracle.
func (t *Table) Rows() []data.Tuple {
	it := t.SequentialOrder()
	it.arena = make([]data.Value, t.nrows*len(t.lanes))
	rows := make([]data.Tuple, 0, t.nrows)
	for tu := it.Next(); tu != nil; tu = it.Next() {
		rows = append(rows, tu)
	}
	return rows
}

// Lane returns column c's table-wide vector, NumRows long. It is the
// table's own storage: read-only, and a later Append may move it.
func (t *Table) Lane(c int) *data.ColVec { return &t.lanes[c] }

// Iterator walks the table as it stood when the iterator was made (rows
// appended later are not seen). Order is controlled by the block order
// slice (see SampleOrder / SequentialOrder). SampleBoundary reports the
// tuple index at which the random sample ends.
type Iterator struct {
	lanes          []data.ColVec
	nrows          int
	order          []int
	blockIdx       int
	pos, end       int // the next row, and where block order[blockIdx] ends; equal once exhausted
	sampleBoundary int
	arena          []data.Value // what Next carves its tuples from
}

// iterator snapshots the table for a walk in the given block order.
func (t *Table) iterator(order []int) *Iterator {
	it := &Iterator{lanes: slices.Clone(t.lanes), nrows: t.nrows, order: order}
	it.enter()
	return it
}

// enter positions the walk at the first row of block order[blockIdx].
func (it *Iterator) enter() {
	it.pos, it.end = 0, 0
	if it.blockIdx < len(it.order) {
		it.pos, it.end = blockSpan(it.order[it.blockIdx], it.nrows)
	}
}

// SequentialOrder returns an iterator over all blocks in storage order;
// the "sample" is empty and SampleBoundary is 0.
func (t *Table) SequentialOrder() *Iterator {
	order := make([]int, t.NumBlocks())
	for i := range order {
		order[i] = i
	}
	return t.iterator(order)
}

// SampleOrder returns an iterator that first visits a uniform random sample
// of ~fraction of the table's blocks (the paper's precomputed block-level
// random sample), then the remaining blocks in storage order, excluding the
// sampled ones. fraction is clamped to [0,1], and NaN counts as 0. seed
// makes the sample reproducible.
func (t *Table) SampleOrder(fraction float64, seed int64) *Iterator {
	if !(fraction >= 0) {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}
	nb := t.NumBlocks()
	k := int(fraction * float64(nb))
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(nb)
	sampled := perm[:k]
	inSample := make([]bool, nb)
	order := make([]int, 0, nb)
	order = append(order, sampled...)
	for _, b := range sampled {
		inSample[b] = true
	}
	for i := 0; i < nb; i++ {
		if !inSample[i] {
			order = append(order, i)
		}
	}
	it := t.iterator(order)
	for _, b := range sampled {
		lo, hi := blockSpan(b, it.nrows)
		it.sampleBoundary += hi - lo
	}
	return it
}

// Next returns the next tuple, built from the iterator's lanes — the
// columns Narrow chose, or all of them — as a fresh tuple carved from the
// iterator's arena, or nil when the iterator is exhausted. The arena is
// never reused, so callers may keep the tuple.
func (it *Iterator) Next() data.Tuple {
	if it.pos == it.end {
		return nil
	}
	w := len(it.lanes)
	if len(it.arena) < w {
		it.arena = make([]data.Value, w*data.BatchSize())
	}
	tu := it.arena[:w:w]
	it.arena = it.arena[w:]
	for c := range tu {
		tu[c] = it.lanes[c].ValueAt(it.pos)
	}
	if it.pos++; it.pos == it.end {
		it.blockIdx++
		it.enter()
	}
	return tu
}

// NextRun advances over the next rows of the walk that lie side by side in
// storage, max at most, and returns their row range [lo, hi); lo == hi
// when the iterator is exhausted. A sequential walk's runs are cut by max
// alone; a sample-order walk's also end where the block order jumps.
func (it *Iterator) NextRun(max int) (lo, hi int) {
	lo, hi = it.pos, it.pos
	for hi-lo < max && it.pos == hi && it.pos < it.end {
		take := min(it.end-it.pos, max-(hi-lo))
		hi += take
		it.pos += take
		if it.pos == it.end {
			it.blockIdx++
			it.enter()
		}
	}
	return lo, hi
}

// Window makes cb a read-only view of rows [lo, hi) of the iterator's
// lanes under the table-resident clause of the ColBatch ownership contract
// (internal/data/colbatch.go).
func (it *Iterator) Window(cb *data.ColBatch, lo, hi int) {
	cb.SetWindow(it.lanes, lo, hi)
}

// Narrow makes the iterator walk the table columns cols, in that order:
// Window hands out their lanes and Next and Tuple build tuples of them.
func (it *Iterator) Narrow(cols []int) {
	lanes := make([]data.ColVec, len(cols))
	for i, c := range cols {
		lanes[i] = it.lanes[c]
	}
	it.lanes = lanes
}

// SampleBoundary returns the number of tuples in the random-sample prefix.
// A consumer that has read exactly SampleBoundary tuples has consumed the
// whole sample; the paper's punctuation fires at that point.
func (it *Iterator) SampleBoundary() int { return it.sampleBoundary }

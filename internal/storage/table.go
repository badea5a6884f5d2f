// Package storage provides an in-memory block-structured heap "file" per
// table plus the block-level random sampling machinery the paper's modified
// table scans rely on (§3, §5 "Implementation"): a scan first delivers a
// random sample of blocks of a requested fraction, then the rest of the
// table excluding the sampled blocks (the paper's antijoin on block ids),
// emitting a punctuation in between.
//
// A table holds its rows twice: row-major, in one flat slice that blocks
// and iterators window, and column-major, as one table-wide data.ColVec
// per column that Append keeps in step. The lanes are what a columnar scan
// hands out (Iterator.Window: read-only windows, no per-query pivot) and
// what ANALYZE reads; the rows serve the tuple-at-a-time reference path,
// the oracle and the table-file writer.
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

// Block is one page worth of tuples: a window of the table's rows.
type Block struct {
	ID     int
	Tuples []data.Tuple
}

// Table is a heap file: an append-only sequence of rows with a schema,
// read in blocks of BlockSize rows, with a column lane beside the rows for
// every column.
type Table struct {
	name   string
	schema *data.Schema
	rows   []data.Tuple
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
func (t *Table) NumRows() int { return len(t.rows) }

// NumBlocks returns the number of blocks in the table.
func (t *Table) NumBlocks() int { return numBlocks(len(t.rows)) }

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
	row := len(t.rows)
	for c := range tu {
		t.lanes[c].AppendVal(row, tu[c])
	}
	t.rows = append(t.rows, tu)
	return nil
}

// MustAppend is Append, panicking on arity mismatch (generator-side use).
func (t *Table) MustAppend(tu data.Tuple) {
	if err := t.Append(tu); err != nil {
		panic(err)
	}
}

// Block returns the i-th block.
func (t *Table) Block(i int) *Block {
	lo, hi := blockSpan(i, len(t.rows))
	return &Block{ID: i, Tuples: t.rows[lo:hi:hi]}
}

// Rows materializes all tuples in block order, mainly for tests.
func (t *Table) Rows() []data.Tuple { return slices.Clone(t.rows) }

// Lane returns column c's table-wide vector, NumRows long. It is the
// table's own storage: read-only, and a later Append may move it.
func (t *Table) Lane(c int) *data.ColVec { return &t.lanes[c] }

// Iterator walks the table as it stood when the iterator was made (rows
// appended later are not seen). Order is controlled by the block order
// slice (see SampleOrder / SequentialOrder). SampleBoundary reports the
// tuple index at which the random sample ends.
type Iterator struct {
	rows           []data.Tuple
	lanes          []data.ColVec
	narrowed       bool // Window hands out lanes only (see Narrow)
	order          []int
	blockIdx       int
	pos, end       int // the next row, and where block order[blockIdx] ends; equal once exhausted
	emitted        int
	sampleBoundary int
}

// iterator snapshots the table for a walk in the given block order.
func (t *Table) iterator(order []int) *Iterator {
	n := len(t.rows)
	it := &Iterator{rows: t.rows[:n:n], lanes: slices.Clone(t.lanes), order: order}
	it.enter()
	return it
}

// enter positions the walk at the first row of block order[blockIdx].
func (it *Iterator) enter() {
	it.pos, it.end = 0, 0
	if it.blockIdx < len(it.order) {
		it.pos, it.end = blockSpan(it.order[it.blockIdx], len(it.rows))
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
// sampled ones. fraction is clamped to [0,1]. seed makes the sample
// reproducible.
func (t *Table) SampleOrder(fraction float64, seed int64) *Iterator {
	if fraction < 0 {
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
		lo, hi := blockSpan(b, len(it.rows))
		it.sampleBoundary += hi - lo
	}
	return it
}

// Next returns the next tuple, or nil when the iterator is exhausted.
func (it *Iterator) Next() data.Tuple {
	if it.pos == it.end {
		return nil
	}
	tu := it.rows[it.pos]
	it.emitted++
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
		it.emitted += take
		if it.pos == it.end {
			it.blockIdx++
			it.enter()
		}
	}
	return lo, hi
}

// Window makes cb a read-only view of rows [lo, hi) of the table — its
// rows and every column lane — under the third clause of the ColBatch
// ownership contract (internal/data/colbatch.go).
func (it *Iterator) Window(cb *data.ColBatch, lo, hi int) {
	rows := it.rows
	if it.narrowed {
		rows = nil
	}
	cb.SetWindow(rows, it.lanes, lo, hi)
}

// Narrow makes Window hand out the lanes of the table columns cols, in
// that order, and no rows: the table's row form is full-width, so a
// window of it would not be a row form of the narrowed batch. Next still
// returns full rows.
func (it *Iterator) Narrow(cols []int) {
	lanes := make([]data.ColVec, len(cols))
	for i, c := range cols {
		lanes[i] = it.lanes[c]
	}
	it.lanes, it.narrowed = lanes, true
}

// SampleBoundary returns the number of tuples in the random-sample prefix.
// A consumer that has read exactly SampleBoundary tuples has consumed the
// whole sample; the paper's punctuation fires at that point.
func (it *Iterator) SampleBoundary() int { return it.sampleBoundary }

// InSample reports whether the iterator is still inside the sample prefix.
func (it *Iterator) InSample() bool { return it.emitted <= it.sampleBoundary && it.sampleBoundary > 0 }

// Emitted returns the number of tuples returned so far.
func (it *Iterator) Emitted() int { return it.emitted }

// Reset rewinds the iterator to the beginning, preserving its block order.
func (it *Iterator) Reset() {
	it.blockIdx, it.emitted = 0, 0
	it.enter()
}

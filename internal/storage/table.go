// Package storage provides an in-memory block-structured heap "file" per
// table plus the block-level random sampling machinery the paper's modified
// table scans rely on (§3, §5 "Implementation"): a scan first delivers a
// random sample of blocks of a requested fraction, then the rest of the
// table excluding the sampled blocks (the paper's antijoin on block ids),
// emitting a punctuation in between.
package storage

import (
	"fmt"
	"math/rand"

	"qpi/internal/data"
)

// BlockSize is the number of tuples per block. 128 keeps blocks around the
// size of a disk page for typical narrow tuples.
const BlockSize = 128

// Block is one page worth of tuples.
type Block struct {
	ID     int
	Tuples []data.Tuple
}

// Table is a heap file: an append-only sequence of blocks with a schema.
type Table struct {
	name   string
	schema *data.Schema
	blocks []*Block
	rows   int
}

// NewTable creates an empty table.
func NewTable(name string, schema *data.Schema) *Table {
	return &Table{name: name, schema: schema}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *data.Schema { return t.schema }

// NumRows returns the number of tuples in the table.
func (t *Table) NumRows() int { return t.rows }

// NumBlocks returns the number of blocks in the table.
func (t *Table) NumBlocks() int { return len(t.blocks) }

// Append adds a tuple to the table. The tuple must match the schema arity.
func (t *Table) Append(tu data.Tuple) error {
	if len(tu) != t.schema.Len() {
		return fmt.Errorf("storage: table %s: tuple arity %d != schema arity %d",
			t.name, len(tu), t.schema.Len())
	}
	if n := len(t.blocks); n == 0 || len(t.blocks[n-1].Tuples) >= BlockSize {
		t.blocks = append(t.blocks, &Block{
			ID:     n,
			Tuples: make([]data.Tuple, 0, BlockSize),
		})
	}
	b := t.blocks[len(t.blocks)-1]
	b.Tuples = append(b.Tuples, tu)
	t.rows++
	return nil
}

// MustAppend is Append, panicking on arity mismatch (generator-side use).
func (t *Table) MustAppend(tu data.Tuple) {
	if err := t.Append(tu); err != nil {
		panic(err)
	}
}

// Block returns the i-th block.
func (t *Table) Block(i int) *Block { return t.blocks[i] }

// Rows materializes all tuples in block order, mainly for tests.
func (t *Table) Rows() []data.Tuple {
	out := make([]data.Tuple, 0, t.rows)
	for _, b := range t.blocks {
		out = append(out, b.Tuples...)
	}
	return out
}

// Iterator walks the table's tuples. Order is controlled by the block order
// slice (see SampleOrder / SequentialOrder). SampleBoundary reports the
// tuple index at which the random sample ends.
type Iterator struct {
	table          *Table
	order          []int
	sampleBlocks   int
	blockIdx       int
	tupleIdx       int
	emitted        int
	sampleBoundary int
}

// SequentialOrder returns an iterator over all blocks in storage order;
// the "sample" is empty and SampleBoundary is 0.
func (t *Table) SequentialOrder() *Iterator {
	order := make([]int, len(t.blocks))
	for i := range order {
		order[i] = i
	}
	return &Iterator{table: t, order: order}
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
	nb := len(t.blocks)
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
	it := &Iterator{table: t, order: order, sampleBlocks: k}
	for _, b := range sampled {
		it.sampleBoundary += len(t.blocks[b].Tuples)
	}
	return it
}

// Next returns the next tuple, or nil when the iterator is exhausted.
func (it *Iterator) Next() data.Tuple {
	for it.blockIdx < len(it.order) {
		b := it.table.blocks[it.order[it.blockIdx]]
		if it.tupleIdx < len(b.Tuples) {
			tu := b.Tuples[it.tupleIdx]
			it.tupleIdx++
			it.emitted++
			return tu
		}
		it.blockIdx++
		it.tupleIdx = 0
	}
	return nil
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
	it.blockIdx, it.tupleIdx, it.emitted = 0, 0, 0
}

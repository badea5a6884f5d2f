package data

import "sync/atomic"

// DefaultBatchSize is the number of rows moved per NextColBatch call.
// 1024 keeps a batch of slice headers around 24 KiB — small enough to
// stay cache-resident, large enough to amortize the per-call interface
// dispatch the tuple-at-a-time path pays per row. SetBatchSize overrides
// it for sweeps.
const DefaultBatchSize = 1024

// batchSize is the live batch size used by producers that size their
// buffers at runtime. It exists so benchmarks can sweep batch sizes.
// Atomic: sweeps may flip it while unrelated plans execute (tests run
// queries concurrently with knob writes). A plan that straddles a change
// may size successive buffers differently — harmless, since every
// consumer handles short batches — but no read tears. Zero means "unset"
// so the default needs no init().
var batchSize atomic.Int64

// BatchSize returns the current batch size (DefaultBatchSize unless
// overridden).
func BatchSize() int {
	if n := batchSize.Load(); n > 0 {
		return int(n)
	}
	return DefaultBatchSize
}

// SetBatchSize overrides the batch size for subsequently constructed
// batch buffers (n < 1 restores the default). Safe to call concurrently
// with executing plans: they pick the new size up at their next buffer
// construction.
func SetBatchSize(n int) {
	if n < 1 {
		n = DefaultBatchSize
	}
	batchSize.Store(int64(n))
}

// Batch is a slice of tuples moved through the executor in one step: the
// row cache behind a row-backed ColBatch.
//
// Ownership contract: a Batch handed out by a producer (and the slice
// header only, not the tuples it references) is valid until the next pull
// on the same operator — producers reuse the backing array. Consumers
// that need the batch beyond that point must copy the slice (the tuples
// themselves are immutable and may be retained).
//
// The columnar counterpart (ColBatch, see colbatch.go) extends the same
// contract to vectors: a *ColBatch returned by NextColBatch — struct,
// column lanes and selection vector — is valid until the next
// NextColBatch call on the same operator. Consumers narrowing a
// selection copy the struct header and substitute their own selection
// slice; they never mutate the producer's. Reused lanes retain stale
// string entries and row references between fills (bounded by one batch,
// like a reused Batch retaining tuple references), so pooled vectors
// MUST be length-reset and string-cleared before Put — ColBatch.Release
// does exactly that, and PutColBatch calls it — ensuring a pooled string
// column never pins a large backing array.
type Batch []Tuple

package exec

import (
	"fmt"
	"slices"

	"qpi/internal/data"
	"qpi/internal/storage"
)

// Scan reads a stored table. When SampleFraction > 0 the scan delivers a
// block-level random sample of that fraction of the table first and the
// remaining blocks afterwards (excluding sampled blocks), firing
// OnSampleEnd as the punctuation between the two phases — the paper's
// modified table scan (§5 "Implementation").
type Scan struct {
	base
	table *storage.Table
	alias string
	// cols lists the table columns the scan emits, in table order; nil
	// emits them all. Only Prune narrows a scan (see prune.go).
	cols []int

	// SampleFraction in [0,1] selects the size of the random block sample
	// delivered first; 0 scans sequentially.
	SampleFraction float64
	// Seed makes the block sample reproducible.
	Seed int64

	// OnTuple fires for every emitted tuple, before it is returned.
	OnTuple func(data.Tuple)
	// OnBatch fires once per batch on the columnar path, after the batch's
	// rows are counted in Stats: a span boundary, where no operator of the
	// plan is midway through a batch. The tuple path (Next) never fires
	// it.
	OnBatch func(rows int)
	// OnSampleEnd fires once, after the last tuple of the random sample.
	OnSampleEnd func()

	it         *storage.Iterator
	sampleLeft int
	punctuated bool
	spanEnded  bool
	// colBuf is the batch NextColBatch hands out: on a sequential scan a
	// read-only window of the table, on a sample-order scan lanes the scan
	// owns, filled from run (the window of one storage run) and rowBuf.
	colBuf, run data.ColBatch
	rowBuf      data.Batch
	// arena is what a narrowed scan carves its tuples from (Next, OnTuple).
	arena []data.Value
}

// NewScan creates a sequential scan over a table. alias renames the output
// columns ("" keeps the stored table name).
func NewScan(t *storage.Table, alias string) *Scan {
	s := &Scan{table: t, alias: alias}
	s.setSchema()
	s.stats.InputTotal = int64(t.NumRows())
	s.stats.SetEstimate(float64(t.NumRows()), "exact")
	return s
}

// setSchema derives the output schema from the table, the alias and the
// emitted columns.
func (s *Scan) setSchema() {
	sch := s.table.Schema()
	if s.cols != nil {
		sch = sch.Project(s.cols)
	}
	if s.alias != "" && s.alias != s.table.Name() {
		sch = sch.Rename(s.alias)
	}
	s.schema = sch
}

// Table returns the underlying stored table.
func (s *Scan) Table() *storage.Table { return s.table }

// TableColumns returns, for each output column, the index of the table
// column it holds: the identity unless Prune narrowed the scan.
func (s *Scan) TableColumns() []int {
	if s.cols != nil {
		return slices.Clone(s.cols)
	}
	return identity(s.schema.Len())
}

// Name implements Operator.
func (s *Scan) Name() string {
	n := s.table.Name()
	if s.alias != "" && s.alias != n {
		n += " AS " + s.alias
	}
	return fmt.Sprintf("Scan(%s)", n)
}

// Children implements Operator.
func (s *Scan) Children() []Operator { return nil }

// Open implements Operator.
func (s *Scan) Open() error {
	if s.SampleFraction < 0 || s.SampleFraction > 1 {
		return fmt.Errorf("exec: scan %s: sample fraction %g out of [0,1]",
			s.Name(), s.SampleFraction)
	}
	if s.SampleFraction > 0 {
		s.it = s.table.SampleOrder(s.SampleFraction, s.Seed)
	} else {
		s.it = s.table.SequentialOrder()
	}
	if s.cols != nil {
		s.it.Narrow(s.cols)
	}
	s.sampleLeft = s.it.SampleBoundary()
	s.punctuated = s.sampleLeft == 0
	// Dropped, not reset: the last run may have left table windows in them.
	s.colBuf, s.run = data.ColBatch{}, data.ColBatch{}
	s.traceBegin("scan")
	return nil
}

// punctuate fires the sample-end hook and mark exactly once, at the
// boundary between the random sample and the sequential remainder.
func (s *Scan) punctuate() {
	s.punctuated = true
	s.traceMark("sample-end", s.stats.Emitted.Load(), 0)
	if s.OnSampleEnd != nil {
		s.OnSampleEnd()
	}
}

// endSpan closes the scan span exactly once, when the table is exhausted.
func (s *Scan) endSpan() {
	if !s.spanEnded {
		s.spanEnded = true
		s.traceEnd("scan", s.stats.Emitted.Load(), 0, 0)
	}
}

// observe fires the per-tuple hook for t and the sample punctuation when t
// is the sample's last tuple, so estimators see the same stream on either
// pull contract.
func (s *Scan) observe(t data.Tuple) {
	if s.OnTuple != nil {
		s.OnTuple(t)
	}
	if !s.punctuated {
		s.sampleLeft--
		if s.sampleLeft == 0 {
			s.punctuate()
		}
	}
}

// Next implements Operator.
func (s *Scan) Next() (data.Tuple, error) {
	if err := s.pollCtx(); err != nil {
		return nil, err
	}
	t := s.it.Next()
	if t == nil {
		if !s.punctuated {
			s.punctuate()
		}
		s.endSpan()
		return s.finish()
	}
	if s.cols != nil {
		nt := s.tuple()
		for i, c := range s.cols {
			nt[i] = t[c]
		}
		t = nt
	}
	s.observe(t)
	return s.emit(t)
}

// tuple carves a tuple of the scan's width from its arena. The arena is
// never reused, so consumers may keep the tuples.
func (s *Scan) tuple() data.Tuple {
	w := len(s.cols)
	if len(s.arena) < w {
		s.arena = make([]data.Value, w*data.BatchSize())
	}
	t := s.arena[:w:w]
	s.arena = s.arena[w:]
	return t
}

// observeRun fires OnTuple for every row of a storage run's window and
// the sample punctuation where it falls. A narrowed window carries no
// rows, so its tuples are built from its lanes; without a hook, only the
// sample boundary is counted.
func (s *Scan) observeRun(run *data.ColBatch) {
	if s.OnTuple == nil {
		if !s.punctuated {
			if s.sampleLeft -= run.NRows; s.sampleLeft <= 0 {
				s.punctuate()
			}
		}
		return
	}
	for i := 0; i < run.NRows; i++ {
		if run.Rows != nil {
			s.observe(run.Rows[i])
			continue
		}
		t := s.tuple()
		for c := range t {
			t[c] = run.Cols[c].ValueAt(i)
		}
		s.observe(t)
	}
}

// NextColBatch implements ColOperator: up to a batch of rows per call,
// straight from the table's column lanes. A sequential scan hands out
// read-only windows of the table (rows and lanes; nothing is pivoted or
// copied); a sample-order scan, whose batches cross jumps in the block
// order, assembles batches of the same size from the windows of its
// storage runs by typed copy. A narrowed scan's batches hold its own
// columns' lanes and no rows. OnTuple fires per tuple and the sample
// punctuation mid-batch at exactly the sample boundary, as on Next.
func (s *Scan) NextColBatch() (*data.ColBatch, error) {
	if err := s.ctxErr(); err != nil {
		return nil, err
	}
	cb, run, want := &s.colBuf, &s.colBuf, data.BatchSize()
	cb.NRows, cb.Sel = 0, nil
	copied := s.SampleFraction > 0
	if copied {
		run = &s.run
		cb.BeginBuild(s.schema.Len())
		s.rowBuf = s.rowBuf[:0]
	}
	for cb.NRows < want {
		lo, hi := s.it.NextRun(want - cb.NRows)
		if lo == hi {
			if !s.punctuated {
				s.punctuate()
			}
			s.stats.MarkDone()
			break
		}
		s.it.Window(run, lo, hi)
		s.observeRun(run)
		if copied {
			cb.AppendBatchFrom(run)
			if run.Rows != nil {
				s.rowBuf = append(s.rowBuf, run.Rows...)
				cb.Rows = s.rowBuf
			}
		}
	}
	if cb, err := s.emitColBatch(cb); cb == nil {
		s.endSpan()
		return nil, err
	}
	if s.OnBatch != nil {
		s.OnBatch(cb.NRows)
	}
	return cb, nil
}

// Close implements Operator.
func (s *Scan) Close() error {
	s.it, s.arena = nil, nil
	return nil
}

// Fraction returns the fraction of the table emitted so far, used by the
// driver-node (dne) and byte estimators.
func (s *Scan) Fraction() float64 {
	if s.stats.InputTotal == 0 {
		return 1
	}
	return float64(s.stats.Emitted.Load()) / float64(s.stats.InputTotal)
}

package exec

import "qpi/internal/data"

// The row operators — Sort, MergeJoin, NestedLoopsJoin and SortAgg — keep
// their logic in an unexported row step that produces one tuple per call
// and counts it in Emitted. Their hooks, like every other operator's,
// observe column batches: the batches a sort's input pass and a
// nested-loops join's inner materialization read, and the batches a merge
// join fills. Two small helpers put them on the batch contract:
// rowBatches fills a row-backed batch from the row step for NextColBatch,
// and rowReader hands a child's batches to a row step one tuple at a
// time. Every other operator produces lanes.

// rowBatches is a row operator's NextColBatch: up to a batch of its row
// step's tuples behind a row-backed ColBatch, whose columns pivot on
// demand. The row step has already counted each tuple.
type rowBatches struct {
	rows data.Batch
	buf  data.ColBatch
}

// next fills the batch from step and returns it, or nil once step is
// exhausted.
func (r *rowBatches) next(step func() (data.Tuple, error), width int) (*data.ColBatch, error) {
	if r.rows == nil {
		r.rows = make(data.Batch, 0, data.BatchSize())
	}
	rows := r.rows[:0]
	for len(rows) < cap(rows) {
		t, err := step()
		if err != nil {
			return nil, err
		}
		if t == nil {
			break
		}
		rows = append(rows, t)
	}
	r.rows = rows
	if len(rows) == 0 {
		return nil, nil
	}
	r.buf.SetRows(rows, width)
	return &r.buf, nil
}

// rowReader reads a child's batches a tuple at a time for a row step. The
// tuples are the batch's rows (ToTuples), safe to retain.
type rowReader struct {
	child Operator
	rows  data.Batch
	pos   int
	eof   bool
}

// next returns the child's next tuple, or nil once it is exhausted.
func (r *rowReader) next() (data.Tuple, error) {
	for r.pos == len(r.rows) {
		if r.eof {
			return nil, nil
		}
		cb, err := r.child.NextColBatch()
		if err != nil {
			return nil, err
		}
		r.rows, r.pos = r.rows[:0], 0
		if cb == nil {
			r.eof = true
			return nil, nil
		}
		r.rows = cb.ToTuples(r.rows)
	}
	t := r.rows[r.pos]
	r.pos++
	return t, nil
}

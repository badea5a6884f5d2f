package exec

import (
	"qpi/internal/data"
	"qpi/internal/expr"
)

// This file is the columnar execution layer, the second of the engine's
// two pull contracts (Next is the other): operators that can serve typed
// column vectors implement ColOperator natively (Scan, Filter, Project,
// Limit, HashJoin, HashAgg); everything else (Sort, MergeJoin,
// NestedLoopsJoin, SortAgg) composes through AsColOperator, which pulls
// the operator's Next and exposes the rows as a lazily-pivoted ColBatch.
// The blocking operators' input passes — the hash join's partition
// passes, the hash aggregation's grouping pass and the sort's read — pull
// their children through AsColOperator however they are pulled
// themselves. Selection vectors flow through filters without copying
// tuples, the join's columnar output path gathers values straight into
// pooled lanes (see hashjoin_col.go), and the hash aggregation emits
// windows of the group lanes it owns (see agg.go), building no row.

// ColOperator is the columnar executor contract. NextColBatch returns
// the next batch in columnar form, or nil at end of stream. The batch
// (struct, vectors, selection) is valid until the next NextColBatch call
// on the same operator — see the ColBatch ownership contract in
// internal/data/batch.go.
type ColOperator interface {
	Operator
	NextColBatch() (*data.ColBatch, error)
}

// AsColOperator returns op as a ColOperator: native implementations are
// returned as-is, anything else is wrapped in an adapter over Next whose
// ColBatch carries the rows and pivots columns on demand.
func AsColOperator(op Operator) ColOperator {
	if c, ok := op.(ColOperator); ok {
		return c
	}
	return &colAdapter{Operator: op}
}

// colAdapter lifts a row-producing operator to the columnar contract.
type colAdapter struct {
	Operator
	rows data.Batch
	buf  data.ColBatch
}

func (a *colAdapter) NextColBatch() (*data.ColBatch, error) {
	if a.rows == nil {
		a.rows = make(data.Batch, 0, data.BatchSize())
	}
	rows := a.rows[:0]
	for len(rows) < cap(rows) {
		t, err := a.Operator.Next()
		if err != nil {
			return nil, err
		}
		if t == nil {
			break
		}
		rows = append(rows, t)
	}
	a.rows = rows
	if len(rows) == 0 {
		return nil, nil
	}
	a.buf.SetRows(rows, a.Operator.Schema().Len())
	return &a.buf, nil
}

// Unwrap exposes the adapted operator.
func (a *colAdapter) Unwrap() Operator { return a.Operator }

// WalkColumnar visits op and its descendants in pre-order like Walk,
// telling visit whether each operator is pulled through its own
// NextColBatch, given that the root is drained through AsColOperator
// (columnar) or through Next. An operator without a native columnar path
// sits behind an adapter and pulls its children tuple-at-a-time; a native
// one hands the choice down, except that the input passes of a hash join,
// a hash aggregation and a sort always pull column batches, however the
// operator itself is pulled.
func WalkColumnar(op Operator, columnar bool, visit func(op Operator, columnar bool)) {
	if _, native := op.(ColOperator); !native {
		columnar = false
	}
	visit(op, columnar)
	switch op.(type) {
	case *HashJoin, *HashAgg, *Sort:
		columnar = true
	}
	for _, c := range op.Children() {
		WalkColumnar(c, columnar, visit)
	}
}

// emitColBatch counts a columnar emission; nil or empty-selection
// batches mark the operator done.
func (b *base) emitColBatch(cb *data.ColBatch) (*data.ColBatch, error) {
	if cb == nil || cb.Live() == 0 {
		b.stats.MarkDone()
		return nil, nil
	}
	b.stats.Emitted.Add(int64(cb.Live()))
	b.stats.Batches.Add(1)
	return cb, nil
}

// DrainCol runs an opened operator to exhaustion through its columnar
// path, returning all live rows as tuples (copied out of the reused
// batches, safe to retain).
func DrainCol(op ColOperator) ([]data.Tuple, error) {
	var out []data.Tuple
	for {
		cb, err := op.NextColBatch()
		if err != nil {
			return out, err
		}
		if cb == nil {
			return out, nil
		}
		out = cb.ToTuples(out)
	}
}

// RunCol opens, drains and closes an operator through its columnar path,
// returning the live row count — the columnar counterpart of Run. No
// tuples are materialized at the root.
func RunCol(op ColOperator) (int64, error) {
	if err := op.Open(); err != nil {
		return 0, err
	}
	var n int64
	for {
		cb, err := op.NextColBatch()
		if err != nil {
			op.Close()
			return n, err
		}
		if cb == nil {
			break
		}
		n += int64(cb.Live())
	}
	return n, op.Close()
}

// NextColBatch implements ColOperator for Filter: the predicate
// evaluates over whole column spans into a selection vector — no tuples
// are copied, the output is a shallow view of the child's batch with a
// narrowed selection. Fully filtered batches are skipped without
// returning.
func (f *Filter) NextColBatch() (*data.ColBatch, error) {
	if f.cchild == nil {
		f.cchild = AsColOperator(f.child)
	}
	for {
		if err := f.ctxErr(); err != nil {
			return nil, err
		}
		in, err := f.cchild.NextColBatch()
		if err != nil {
			return nil, err
		}
		if in == nil {
			return f.emitColBatch(nil)
		}
		f.selBuf = expr.EvalSel(f.pred, in, in.Sel, f.selBuf[:0])
		if len(f.selBuf) == 0 {
			continue
		}
		f.colView = *in
		f.colView.Sel = f.selBuf
		return f.emitColBatch(&f.colView)
	}
}

// NextColBatch implements ColOperator for Project: pass-through columns
// (bare column references) share the child's vectors without copying;
// computed columns are evaluated vector-at-a-time into reused lanes. The
// output keeps the child's selection geometry.
func (p *Project) NextColBatch() (*data.ColBatch, error) {
	if p.cchild == nil {
		p.cchild = AsColOperator(p.child)
	}
	in, err := p.cchild.NextColBatch()
	if err != nil {
		return nil, err
	}
	if in == nil {
		return p.emitColBatch(nil)
	}
	out := &p.colOut
	out.EnsureWidth(len(p.exprs))
	out.NRows = in.NRows
	out.Sel = in.Sel
	out.Rows = nil
	for i, e := range p.exprs {
		if c, ok := e.(expr.Col); ok {
			out.ShareCol(i, in.Col(c.Index))
			continue
		}
		expr.EvalVec(e, in, out.OwnCol(i))
	}
	return p.emitColBatch(out)
}

// NextColBatch implements ColOperator for Limit, truncating the final
// batch's selection at the limit.
func (l *Limit) NextColBatch() (*data.ColBatch, error) {
	rem := l.n - l.stats.Emitted.Load()
	if rem <= 0 {
		return l.emitColBatch(nil)
	}
	if l.cchild == nil {
		l.cchild = AsColOperator(l.child)
	}
	in, err := l.cchild.NextColBatch()
	if err != nil {
		return nil, err
	}
	if in == nil {
		return l.emitColBatch(nil)
	}
	if int64(in.Live()) <= rem {
		return l.emitColBatch(in)
	}
	l.colView = *in
	if in.Sel != nil {
		l.colView.Sel = in.Sel[:rem]
	} else {
		l.selBuf = l.selBuf[:0]
		for i := int64(0); i < rem; i++ {
			l.selBuf = append(l.selBuf, int32(i))
		}
		l.colView.Sel = l.selBuf
	}
	return l.emitColBatch(&l.colView)
}

// NextColBatch implements ColOperator for HashAgg: the input pass is the
// one Next runs (consume in agg.go), and the groups leave a batch at a
// time as windows of the operator's group lanes — nothing is copied.
func (a *HashAgg) NextColBatch() (*data.ColBatch, error) {
	if !a.computed {
		if err := a.consume(); err != nil {
			return nil, err
		}
	}
	if a.pos >= len(a.ns) {
		a.stats.MarkDone()
		a.endEmitSpan()
		return nil, nil
	}
	hi := min(a.pos+data.BatchSize(), len(a.ns))
	a.colBuf.SetWindow(a.lanes, a.pos, hi)
	a.pos = hi
	return a.emitColBatch(&a.colBuf)
}

package exec

import (
	"fmt"

	"qpi/internal/data"
	"qpi/internal/expr"
)

// Filter emits the input tuples for which the predicate is true.
type Filter struct {
	base
	child Operator
	pred  expr.Expr

	selBuf  []int32
	colView data.ColBatch
}

// NewFilter creates a selection over child.
func NewFilter(child Operator, pred expr.Expr) *Filter {
	f := &Filter{child: child, pred: pred}
	f.schema = child.Schema()
	return f
}

// Name implements Operator.
func (f *Filter) Name() string { return fmt.Sprintf("Filter(%s)", f.pred) }

// Pred returns the selection predicate.
func (f *Filter) Pred() expr.Expr { return f.pred }

// Children implements Operator.
func (f *Filter) Children() []Operator { return []Operator{f.child} }

// Open implements Operator.
func (f *Filter) Open() error { return f.child.Open() }

// NextColBatch implements Operator: the predicate evaluates over whole
// column spans into a selection vector — no tuples are copied, the output
// is a shallow view of the child's batch with a narrowed selection. Fully
// filtered batches are skipped without returning.
func (f *Filter) NextColBatch() (*data.ColBatch, error) {
	for {
		if err := f.ctxErr(); err != nil {
			return nil, err
		}
		in, err := f.child.NextColBatch()
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

// Close implements Operator.
func (f *Filter) Close() error { return f.child.Close() }

// Project computes one output column per expression.
type Project struct {
	base
	child Operator
	exprs []expr.Expr

	colOut data.ColBatch
}

// NewProject creates a projection. names supplies the output column names
// (same length as exprs).
func NewProject(child Operator, exprs []expr.Expr, names []string) *Project {
	if len(exprs) != len(names) {
		panic("exec: NewProject: len(exprs) != len(names)")
	}
	cols := make([]data.Column, len(exprs))
	for i := range exprs {
		kind := data.KindInt
		if c, ok := exprs[i].(expr.Col); ok {
			kind = child.Schema().Cols[c.Index].Kind
		}
		cols[i] = data.Column{Name: names[i], Kind: kind}
	}
	p := &Project{child: child, exprs: exprs}
	p.schema = data.NewSchema(cols...)
	return p
}

// ProjectColumns is a convenience for projecting existing columns by
// qualified name.
func ProjectColumns(child Operator, cols ...[2]string) *Project {
	exprs := make([]expr.Expr, len(cols))
	names := make([]string, len(cols))
	for i, c := range cols {
		exprs[i] = expr.Column(child.Schema(), c[0], c[1])
		names[i] = c[1]
	}
	return NewProject(child, exprs, names)
}

// Name implements Operator.
func (p *Project) Name() string { return "Project" }

// Children implements Operator.
func (p *Project) Children() []Operator { return []Operator{p.child} }

// Open implements Operator.
func (p *Project) Open() error { return p.child.Open() }

// NextColBatch implements Operator: pass-through columns (bare column
// references) share the child's vectors without copying; computed columns
// are evaluated vector-at-a-time into reused lanes. The output keeps the
// child's selection geometry.
func (p *Project) NextColBatch() (*data.ColBatch, error) {
	in, err := p.child.NextColBatch()
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

// Close implements Operator.
func (p *Project) Close() error { return p.child.Close() }

// Limit emits at most n tuples.
type Limit struct {
	base
	child Operator
	n     int64

	selBuf  []int32
	colView data.ColBatch
}

// NewLimit creates a LIMIT n operator.
func NewLimit(child Operator, n int64) *Limit {
	l := &Limit{child: child, n: n}
	l.schema = child.Schema()
	return l
}

// Name implements Operator.
func (l *Limit) Name() string { return fmt.Sprintf("Limit(%d)", l.n) }

// Children implements Operator.
func (l *Limit) Children() []Operator { return []Operator{l.child} }

// Open implements Operator.
func (l *Limit) Open() error { return l.child.Open() }

// NextColBatch implements Operator, truncating the final batch's
// selection at the limit.
func (l *Limit) NextColBatch() (*data.ColBatch, error) {
	rem := l.n - l.stats.Emitted.Load()
	if rem <= 0 {
		return l.emitColBatch(nil)
	}
	in, err := l.child.NextColBatch()
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

// Close implements Operator.
func (l *Limit) Close() error { return l.child.Close() }

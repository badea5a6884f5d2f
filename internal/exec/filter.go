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

	cchild  ColOperator
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

// Next implements Operator.
func (f *Filter) Next() (data.Tuple, error) {
	for {
		t, err := f.child.Next()
		if err != nil {
			return nil, err
		}
		if t == nil {
			return f.finish()
		}
		if f.pred.Eval(t).IsTrue() {
			return f.emit(t)
		}
	}
}

// Close implements Operator.
func (f *Filter) Close() error { return f.child.Close() }

// Project computes one output column per expression.
type Project struct {
	base
	child Operator
	exprs []expr.Expr

	cchild ColOperator
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

// Next implements Operator.
func (p *Project) Next() (data.Tuple, error) {
	t, err := p.child.Next()
	if err != nil {
		return nil, err
	}
	if t == nil {
		return p.finish()
	}
	out := make(data.Tuple, len(p.exprs))
	for i, e := range p.exprs {
		out[i] = e.Eval(t)
	}
	return p.emit(out)
}

// Close implements Operator.
func (p *Project) Close() error { return p.child.Close() }

// Limit emits at most n tuples.
type Limit struct {
	base
	child Operator
	n     int64

	cchild  ColOperator
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

// Next implements Operator.
func (l *Limit) Next() (data.Tuple, error) {
	if l.stats.Emitted.Load() >= l.n {
		return l.finish()
	}
	t, err := l.child.Next()
	if err != nil {
		return nil, err
	}
	if t == nil {
		return l.finish()
	}
	return l.emit(t)
}

// Close implements Operator.
func (l *Limit) Close() error { return l.child.Close() }

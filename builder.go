package qpi

import (
	"fmt"

	"qpi/internal/data"
	"qpi/internal/exec"
	"qpi/internal/expr"
)

// Node is one step of a physical plan under construction. Nodes are
// created by Engine.Scan and combined with the package-level join,
// filter, projection and grouping constructors; Engine.Compile turns the
// final node into an executable Query.
type Node struct {
	op  exec.Operator
	eng *Engine
}

// Ref names a column as table.column (the table part is the alias used in
// the scan).
type Ref struct {
	Table  string
	Column string
}

// Col builds a Ref; it reads well at call sites: qpi.Col("c", "nationkey").
func Col(table, column string) Ref { return Ref{Table: table, Column: column} }

func (r Ref) resolve(s *data.Schema) (int, error) {
	i := s.Resolve(r.Table, r.Column)
	if i < 0 {
		return 0, fmt.Errorf("qpi: column %s.%s not found in schema %s", r.Table, r.Column, s)
	}
	return i, nil
}

// Scan creates a table scan node. alias may be "" to keep the table name.
func (e *Engine) Scan(table, alias string) (*Node, error) {
	entry, err := e.cat.Lookup(table)
	if err != nil {
		return nil, err
	}
	return &Node{op: exec.NewScan(entry.Table, alias), eng: e}, nil
}

// MustScan is Scan with alias "" (or the optional alias), panicking on
// error.
func (e *Engine) MustScan(table string, alias ...string) *Node {
	a := ""
	if len(alias) > 0 {
		a = alias[0]
	}
	n, err := e.Scan(table, a)
	if err != nil {
		panic(err)
	}
	return n
}

// Cond is a filter condition resolved against a node's schema at build
// time.
type Cond struct {
	build func(s *data.Schema) (expr.Expr, error)
}

func cmpCond(op expr.CmpOp, col Ref, v any) Cond {
	return Cond{build: func(s *data.Schema) (expr.Expr, error) {
		idx, err := col.resolve(s)
		if err != nil {
			return nil, err
		}
		var lit data.Value
		switch x := v.(type) {
		case int:
			lit = data.Int(int64(x))
		case int64:
			lit = data.Int(x)
		case float64:
			lit = data.Float(x)
		case string:
			lit = data.Str(x)
		default:
			return nil, fmt.Errorf("qpi: unsupported literal type %T", v)
		}
		return expr.Compare(op, expr.Col{Index: idx, Name: col.Table + "." + col.Column}, expr.Lit(lit)), nil
	}}
}

// Eq builds column = literal.
func Eq(col Ref, v any) Cond { return cmpCond(expr.EQ, col, v) }

// Ne builds column <> literal.
func Ne(col Ref, v any) Cond { return cmpCond(expr.NE, col, v) }

// Lt builds column < literal.
func Lt(col Ref, v any) Cond { return cmpCond(expr.LT, col, v) }

// Le builds column <= literal.
func Le(col Ref, v any) Cond { return cmpCond(expr.LE, col, v) }

// Gt builds column > literal.
func Gt(col Ref, v any) Cond { return cmpCond(expr.GT, col, v) }

// Ge builds column >= literal.
func Ge(col Ref, v any) Cond { return cmpCond(expr.GE, col, v) }

// ColEq builds column = column.
func ColEq(a, b Ref) Cond {
	return Cond{build: func(s *data.Schema) (expr.Expr, error) {
		ia, err := a.resolve(s)
		if err != nil {
			return nil, err
		}
		ib, err := b.resolve(s)
		if err != nil {
			return nil, err
		}
		return expr.Compare(expr.EQ,
			expr.Col{Index: ia, Name: a.Table + "." + a.Column},
			expr.Col{Index: ib, Name: b.Table + "." + b.Column}), nil
	}}
}

// And conjoins conditions.
func And(conds ...Cond) Cond {
	return Cond{build: func(s *data.Schema) (expr.Expr, error) {
		terms := make([]expr.Expr, len(conds))
		for i, c := range conds {
			e, err := c.build(s)
			if err != nil {
				return nil, err
			}
			terms[i] = e
		}
		return expr.AndOf(terms...), nil
	}}
}

// Or disjoins conditions.
func Or(conds ...Cond) Cond {
	return Cond{build: func(s *data.Schema) (expr.Expr, error) {
		terms := make([]expr.Expr, len(conds))
		for i, c := range conds {
			e, err := c.build(s)
			if err != nil {
				return nil, err
			}
			terms[i] = e
		}
		return expr.OrOf(terms...), nil
	}}
}

// Filter applies a selection to the node.
func (n *Node) Filter(c Cond) (*Node, error) {
	e, err := c.build(n.op.Schema())
	if err != nil {
		return nil, err
	}
	return &Node{op: exec.NewFilter(n.op, e), eng: n.eng}, nil
}

// MustFilter is Filter, panicking on error.
func (n *Node) MustFilter(c Cond) *Node {
	out, err := n.Filter(c)
	if err != nil {
		panic(err)
	}
	return out
}

// Project keeps only the named columns.
func (n *Node) Project(cols ...Ref) (*Node, error) {
	pairs := make([][2]string, len(cols))
	for i, c := range cols {
		if _, err := c.resolve(n.op.Schema()); err != nil {
			return nil, err
		}
		pairs[i] = [2]string{c.Table, c.Column}
	}
	return &Node{op: exec.ProjectColumns(n.op, pairs...), eng: n.eng}, nil
}

// Limit keeps the first k rows.
func (n *Node) Limit(k int64) *Node {
	return &Node{op: exec.NewLimit(n.op, k), eng: n.eng}
}

// HashJoin joins build ⋈ probe with a grace hash join on buildCol =
// probeCol. The output columns are the build columns followed by the
// probe columns. The probe side streams through the join, so chains of
// hash joins built by passing a HashJoin node as probe form a pipeline —
// the case where the framework pushes estimation for every join down to
// the bottom probe input (paper §4.1.4).
func HashJoin(build, probe *Node, buildCol, probeCol Ref) *Node {
	bi, err := buildCol.resolve(build.op.Schema())
	if err != nil {
		panic(err)
	}
	pi, err := probeCol.resolve(probe.op.Schema())
	if err != nil {
		panic(err)
	}
	return &Node{op: exec.NewHashJoin(build.op, probe.op, bi, pi), eng: build.eng}
}

// SortMergeJoin joins left ⋈ right with explicit sorts on both inputs.
func SortMergeJoin(left, right *Node, leftCol, rightCol Ref) *Node {
	li, err := leftCol.resolve(left.op.Schema())
	if err != nil {
		panic(err)
	}
	ri, err := rightCol.resolve(right.op.Schema())
	if err != nil {
		panic(err)
	}
	mj, _, _ := exec.NewSortMergeJoin(left.op, right.op, li, ri)
	return &Node{op: mj, eng: left.eng}
}

// IndexedNLJoin joins outer ⋈ inner with a nested-loops join over a
// temporary hash index on the inner join column.
func IndexedNLJoin(outer, inner *Node, outerCol, innerCol Ref) *Node {
	oi, err := outerCol.resolve(outer.op.Schema())
	if err != nil {
		panic(err)
	}
	ii, err := innerCol.resolve(inner.op.Schema())
	if err != nil {
		panic(err)
	}
	return &Node{op: exec.NewIndexedNLJoin(outer.op, inner.op, oi, ii), eng: outer.eng}
}

// AggFunc names an aggregate function for GroupBy.
type AggFunc string

// Aggregate functions.
const (
	CountStar AggFunc = "count(*)"
	Count     AggFunc = "count"
	Sum       AggFunc = "sum"
	Min       AggFunc = "min"
	Max       AggFunc = "max"
	Avg       AggFunc = "avg"
)

// Agg requests one aggregate column.
type Agg struct {
	Func AggFunc
	Col  Ref // ignored for CountStar
	As   string
}

// GroupBy groups the input by the given columns using hash aggregation.
func GroupBy(input *Node, groupBy []Ref, aggs ...Agg) (*Node, error) {
	gidx, specs, err := aggArgs(input, groupBy, aggs)
	if err != nil {
		return nil, err
	}
	return &Node{op: exec.NewHashAgg(input.op, gidx, specs), eng: input.eng}, nil
}

// SortGroupBy groups the input using sort-based aggregation.
func SortGroupBy(input *Node, groupBy []Ref, aggs ...Agg) (*Node, error) {
	gidx, specs, err := aggArgs(input, groupBy, aggs)
	if err != nil {
		return nil, err
	}
	return &Node{op: exec.NewSortAgg(input.op, gidx, specs), eng: input.eng}, nil
}

// MustGroupBy is GroupBy, panicking on error.
func MustGroupBy(input *Node, groupBy []Ref, aggs ...Agg) *Node {
	n, err := GroupBy(input, groupBy, aggs...)
	if err != nil {
		panic(err)
	}
	return n
}

func aggArgs(input *Node, groupBy []Ref, aggs []Agg) ([]int, []exec.AggSpec, error) {
	s := input.op.Schema()
	gidx := make([]int, len(groupBy))
	for i, g := range groupBy {
		idx, err := g.resolve(s)
		if err != nil {
			return nil, nil, err
		}
		gidx[i] = idx
	}
	specs := make([]exec.AggSpec, len(aggs))
	for i, a := range aggs {
		var f exec.AggFunc
		switch a.Func {
		case CountStar:
			f = exec.CountStar
		case Count:
			f = exec.Count
		case Sum:
			f = exec.Sum
		case Min:
			f = exec.Min
		case Max:
			f = exec.Max
		case Avg:
			f = exec.Avg
		default:
			return nil, nil, fmt.Errorf("qpi: unknown aggregate %q", a.Func)
		}
		spec := exec.AggSpec{Func: f, Name: a.As}
		if a.Func != CountStar {
			idx, err := a.Col.resolve(s)
			if err != nil {
				return nil, nil, err
			}
			spec.Col = idx
		}
		specs[i] = spec
	}
	return gidx, specs, nil
}

// Columns returns the node's output column names ("table.column").
func (n *Node) Columns() []string {
	cols := n.op.Schema().Cols
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.Qualified()
	}
	return out
}

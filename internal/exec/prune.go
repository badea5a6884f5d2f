package exec

import (
	"slices"

	"qpi/internal/expr"
)

// Prune is the compile-time column pruning pass: it narrows every Scan of
// the plan to the table columns some operator above it reads, in table
// order and never fewer than one, narrows every HashJoin's output the
// same way (its output map, see OutMap), and rebinds the column indexes
// of the operators above in place. The root reads all of its columns;
// filters, projections, sorts, aggregations and joins add the columns of
// their predicates, expressions, keys and groups.
//
// Scans and hash joins narrow. Merge joins and nested-loops joins keep
// left ⧺ right of their narrowed inputs, and every other operator keeps
// its output; no operator is added, removed or renamed. Operators of a
// kind the pass does not know leave their subtree as it is. Pruning an
// already pruned plan changes nothing.
func Prune(root Operator) {
	prune(root, all(root.Schema().Len()))
}

// prune narrows op's subtree given need, the output columns of op its
// consumer reads, and returns where each old output column of op went (-1
// for a column op no longer produces). need is prune's to mark: a parent
// hands each child its own region of it.
func prune(op Operator, need []bool) []int {
	switch o := op.(type) {
	case *Scan:
		return o.narrow(need)
	case *Filter:
		expr.ColRefs(o.pred, need)
		m := prune(o.child, need)
		o.pred = expr.Remap(o.pred, m)
		o.schema = o.child.Schema()
		return m
	case *Limit:
		m := prune(o.child, need)
		o.schema = o.child.Schema()
		return m
	case *Sort:
		m := prune(o.child, with(need, o.keys))
		o.keys = remap(o.keys, m)
		o.schema = o.child.Schema()
		return m
	case *Project:
		in := make([]bool, o.child.Schema().Len())
		for _, e := range o.exprs {
			expr.ColRefs(e, in)
		}
		m := prune(o.child, in)
		exprs := make([]expr.Expr, len(o.exprs))
		for i, e := range o.exprs {
			exprs[i] = expr.Remap(e, m)
		}
		o.exprs = exprs
		return identity(len(exprs))
	case *HashAgg:
		m := prune(o.child, aggNeed(o.child, o.groupBy, o.aggs))
		o.groupBy, o.aggs = remap(o.groupBy, m), remapAggs(o.aggs, m)
		return identity(o.schema.Len())
	case *SortAgg:
		m := prune(o.sorter, aggNeed(o.sorter, o.groupBy, o.aggs))
		o.groupBy, o.aggs = remap(o.groupBy, m), remapAggs(o.aggs, m)
		return identity(o.schema.Len())
	case *HashJoin:
		return o.narrow(need)
	case *MergeJoin:
		lw := o.left.Schema().Len()
		lm := prune(o.left, with(need[:lw:lw], []int{o.leftKey}))
		rm := prune(o.right, with(need[lw:], []int{o.rightKey}))
		o.leftKey, o.rightKey = lm[o.leftKey], rm[o.rightKey]
		o.schema = o.left.Schema().Concat(o.right.Schema())
		return concat(lm, rm, o.left.Schema().Len())
	case *NestedLoopsJoin:
		ow := o.outer.Schema().Len()
		if o.Pred != nil {
			expr.ColRefs(o.Pred, need)
		}
		oneed, ineed := need[:ow:ow], need[ow:]
		if o.Indexed {
			oneed[o.outerKey], ineed[o.innerKey] = true, true
		}
		om, im := prune(o.outer, oneed), prune(o.inner, ineed)
		m := concat(om, im, o.outer.Schema().Len())
		if o.Pred != nil {
			o.Pred = expr.Remap(o.Pred, m)
		}
		if o.Indexed {
			o.outerKey, o.innerKey = om[o.outerKey], im[o.innerKey]
		}
		o.schema = o.outer.Schema().Concat(o.inner.Schema())
		return m
	}
	return identity(op.Schema().Len())
}

// narrow keeps the columns of the scan's output that need marks.
func (s *Scan) narrow(need []bool) []int {
	m := make([]int, len(need))
	tcols := s.TableColumns()
	var cols []int
	for i, n := range need {
		m[i] = -1
		if n {
			m[i] = len(cols)
			cols = append(cols, tcols[i])
		}
	}
	if len(cols) == 0 && len(need) > 0 {
		m[0], cols = 0, tcols[:1]
	}
	if len(cols) == s.table.Schema().Len() {
		cols = nil
	}
	s.cols = cols
	s.setSchema()
	return m
}

// narrow keeps the join's output columns that need marks, or its first
// when need marks none, then prunes each input to the columns it keeps
// and its keys, rebinding keys and output map to the narrowed inputs.
// need indexes the current output, so a narrowed join maps it through its
// existing map.
func (j *HashJoin) narrow(need []bool) []int {
	if !slices.Contains(need, true) {
		need[0] = true
	}
	m := make([]int, len(need))
	bneed := make([]bool, j.build.Schema().Len())
	pneed := make([]bool, j.probe.Schema().Len())
	var out OutMap
	kept := 0
	for i, n := range need {
		m[i] = -1
		if !n {
			continue
		}
		m[i], kept = kept, kept+1
		if c, build := j.out.Source(i); build {
			out.Build, bneed[c] = append(out.Build, c), true
		} else {
			out.Probe, pneed[c] = append(out.Probe, c), true
		}
	}
	bm := prune(j.build, with(bneed, j.buildKeys))
	pm := prune(j.probe, with(pneed, j.probeKeys))
	out.Build, out.Probe = remap(out.Build, bm), remap(out.Probe, pm)
	j.link(j.build, j.probe, remap(j.buildKeys, bm), remap(j.probeKeys, pm), out)
	return m
}

// aggNeed marks the input columns an aggregation reads: its groups and
// the columns of every aggregate but COUNT(*).
func aggNeed(in Operator, groupBy []int, aggs []AggSpec) []bool {
	need := with(make([]bool, in.Schema().Len()), groupBy)
	for _, a := range aggs {
		if a.Func != CountStar {
			need[a.Col] = true
		}
	}
	return need
}

func remapAggs(aggs []AggSpec, m []int) []AggSpec {
	out := make([]AggSpec, len(aggs))
	for i, a := range aggs {
		if a.Func != CountStar {
			a.Col = m[a.Col]
		}
		out[i] = a
	}
	return out
}

// with marks cols in need and returns it.
func with(need []bool, cols []int) []bool {
	for _, c := range cols {
		need[c] = true
	}
	return need
}

// remap returns cols moved through m, in a new slice: constructors may
// share their index slices (a SortAgg's with its sort's keys).
func remap(cols []int, m []int) []int {
	out := make([]int, len(cols))
	for i, c := range cols {
		out[i] = m[c]
	}
	return out
}

// concat is the map of a join's output, left ⧺ right, given the maps of
// its inputs and the narrowed left width.
func concat(lm, rm []int, lw int) []int {
	m := append(make([]int, 0, len(lm)+len(rm)), lm...)
	for _, r := range rm {
		if r >= 0 {
			r += lw
		}
		m = append(m, r)
	}
	return m
}

func all(n int) []bool {
	need := make([]bool, n)
	for i := range need {
		need[i] = true
	}
	return need
}

func identity(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

package plan

import (
	"math"

	"qpi/internal/catalog"
	"qpi/internal/data"
	"qpi/internal/exec"
	"qpi/internal/expr"
)

// Default selectivities when nothing better is known, following the
// classic System R constants.
const (
	defaultEqSelectivity    = 0.005
	defaultRangeSelectivity = 1.0 / 3.0
	defaultSelectivity      = 0.25
)

// nodeEstimate carries the optimizer's belief about one operator's output.
type nodeEstimate struct {
	rows float64
	// distinct maps output column index -> estimated distinct count.
	distinct map[int]float64
	// mins/maxs track value ranges for numeric columns (for range
	// selectivity), keyed by output column index.
	mins map[int]float64
	maxs map[int]float64
}

// EstimateCardinalities walks the plan bottom-up computing textbook
// cardinality estimates under the uniformity and independence assumptions
// (|R ⋈ S| = |R||S| / max(d_R, d_S), System R selectivity constants) and
// stores them in every operator's Stats as the "optimizer" estimate.
//
// These estimates are intentionally naive: on skewed data they are wrong
// by large factors (the paper's Figure 4(a) observes PostgreSQL off by
// ~13×), which is precisely the starting point the online framework
// corrects.
func EstimateCardinalities(root exec.Operator, cat *catalog.Catalog) {
	estimate(root, cat)
}

func estimate(op exec.Operator, cat *catalog.Catalog) nodeEstimate {
	switch o := op.(type) {
	case *exec.Scan:
		return estimateScan(o, cat)
	case *exec.Filter:
		return estimateFilter(o, cat)
	case *exec.Project:
		child := estimate(op.Children()[0], cat)
		// Column provenance through computed expressions is not tracked;
		// distinct counts are dropped (safe fallback).
		ne := nodeEstimate{rows: child.rows, distinct: map[int]float64{},
			mins: map[int]float64{}, maxs: map[int]float64{}}
		op.Stats().SetEstimate(ne.rows, "optimizer")
		return ne
	case *exec.Limit:
		child := estimate(op.Children()[0], cat)
		ne := child
		op.Stats().SetEstimate(ne.rows, "optimizer")
		return ne
	case *exec.Sort:
		child := estimate(op.Children()[0], cat)
		op.Stats().SetEstimate(child.rows, "optimizer")
		return child
	case *exec.HashJoin:
		b := estimate(o.Build(), cat)
		p := estimate(o.Probe(), cat)
		op.Stats().BuildKeysHint, op.Stats().BuildKeyRange = buildKeyHints(o, b)
		ne := estimateEquijoin(b, p, o.BuildKey(), o.ProbeKey(), o.OutMap())
		switch o.Type() {
		case exec.ProbeOuterJoin:
			if ne.rows < p.rows {
				ne.rows = p.rows
			}
		case exec.SemiJoin, exec.AntiJoin:
			db := b.rows
			if d, ok := b.distinct[o.BuildKey()]; ok && d > 0 {
				db = d
			}
			dp := p.rows
			if d, ok := p.distinct[o.ProbeKey()]; ok && d > 0 {
				dp = d
			}
			sel := 1.0
			if dp > 0 && db < dp {
				sel = db / dp
			}
			semi := p.rows * sel
			if o.Type() == exec.SemiJoin {
				ne = nodeEstimate{rows: semi}
			} else {
				ne = nodeEstimate{rows: p.rows - semi}
			}
			ne = concatColumnStats(nodeEstimate{}, p, ne, o.OutMap())
		}
		op.Stats().SetEstimate(ne.rows, "optimizer")
		return ne
	case *exec.MergeJoin:
		l := estimate(o.Left(), cat)
		r := estimate(o.Right(), cat)
		ne := estimateEquijoin(l, r, o.LeftKey(), o.RightKey(),
			exec.FullOutMap(o.Left().Schema().Len(), o.Right().Schema().Len()))
		op.Stats().SetEstimate(ne.rows, "optimizer")
		return ne
	case *exec.NestedLoopsJoin:
		outer := estimate(o.Outer(), cat)
		inner := estimate(o.Inner(), cat)
		out := exec.FullOutMap(o.Outer().Schema().Len(), o.Inner().Schema().Len())
		var ne nodeEstimate
		if o.Indexed {
			ne = estimateEquijoin(outer, inner, o.OuterKey(), o.InnerKey(), out)
		} else {
			rows := outer.rows * inner.rows
			if o.Pred != nil {
				rows *= defaultSelectivity
			}
			ne = concatColumnStats(outer, inner, nodeEstimate{rows: rows}, out)
		}
		op.Stats().SetEstimate(ne.rows, "optimizer")
		return ne
	case *exec.HashAgg:
		return estimateAgg(op, o.GroupBy(), cat)
	case *exec.SortAgg:
		return estimateAgg(op, o.GroupBy(), cat)
	default:
		if len(op.Children()) == 0 {
			// Generic leaf (e.g. a disk scan): trust its own declared
			// total.
			return nodeEstimate{rows: op.Stats().Total(),
				distinct: map[int]float64{}, mins: map[int]float64{}, maxs: map[int]float64{}}
		}
		var child nodeEstimate
		for _, c := range op.Children() {
			child = estimate(c, cat)
		}
		op.Stats().SetEstimate(child.rows, "optimizer")
		return child
	}
}

// maxExactInt bounds the key ranges the optimizer hands the estimators:
// every integer up to 2^53 is exact in the float64 statistics.
const maxExactInt = 1 << 53

// buildKeyHints returns what the estimators pre-size a hash join's build
// histogram from: the distinct count of its single build key (already
// capped at the build row estimate) and, for an integer key, the
// catalog's [min, max] carried through filters and joins. A composite key
// or a column the catalog does not know gets neither.
func buildKeyHints(j *exec.HashJoin, b nodeEstimate) (float64, exec.KeyRange) {
	if len(j.BuildKeys()) != 1 {
		return 0, exec.KeyRange{}
	}
	key := j.BuildKey()
	var r exec.KeyRange
	lo, okLo := b.mins[key]
	hi, okHi := b.maxs[key]
	if okLo && okHi && j.Build().Schema().Cols[key].Kind == data.KindInt &&
		lo == math.Trunc(lo) && hi == math.Trunc(hi) && -maxExactInt <= lo && hi <= maxExactInt {
		r = exec.KeyRange{Lo: int64(lo), Hi: int64(hi), Known: true}
	}
	return b.distinct[key], r
}

func estimateScan(s *exec.Scan, cat *catalog.Catalog) nodeEstimate {
	rows := float64(s.Table().NumRows())
	ne := nodeEstimate{rows: rows, distinct: map[int]float64{},
		mins: map[int]float64{}, maxs: map[int]float64{}}
	if cat != nil {
		// Keyed by scan column: a pruned scan emits a subset of the table's.
		if e, err := cat.Lookup(s.Table().Name()); err == nil {
			for i, col := range s.Schema().Cols {
				if cs, ok := e.Stats.Columns[col.Name]; ok {
					ne.distinct[i] = float64(cs.Distinct)
					if !cs.Min.IsNull() && cs.Min.Kind != data.KindString {
						ne.mins[i] = cs.Min.AsFloat()
						ne.maxs[i] = cs.Max.AsFloat()
					}
				}
			}
		}
	}
	s.Stats().SetEstimate(rows, "exact")
	return ne
}

func estimateFilter(f *exec.Filter, cat *catalog.Catalog) nodeEstimate {
	child := estimate(f.Children()[0], cat)
	sel := predicateSelectivity(f.Pred(), child)
	ne := nodeEstimate{
		rows:     child.rows * sel,
		distinct: map[int]float64{},
		mins:     child.mins,
		maxs:     child.maxs,
	}
	for i, d := range child.distinct {
		if d > ne.rows {
			d = ne.rows
		}
		ne.distinct[i] = d
	}
	f.Stats().SetEstimate(ne.rows, "optimizer")
	return ne
}

// predicateSelectivity estimates the fraction of rows passing pred.
func predicateSelectivity(pred expr.Expr, in nodeEstimate) float64 {
	switch p := pred.(type) {
	case expr.And:
		sel := 1.0
		for _, t := range p.Terms {
			sel *= predicateSelectivity(t, in)
		}
		return sel
	case expr.Or:
		sel := 0.0
		for _, t := range p.Terms {
			s := predicateSelectivity(t, in)
			sel = sel + s - sel*s
		}
		return sel
	case expr.Not:
		return 1 - predicateSelectivity(p.E, in)
	case expr.Cmp:
		return cmpSelectivity(p, in)
	default:
		return defaultSelectivity
	}
}

func cmpSelectivity(p expr.Cmp, in nodeEstimate) float64 {
	col, colOK := p.L.(expr.Col)
	lit, litOK := p.R.(expr.Const)
	if !colOK || !litOK {
		// col-op-col or computed sides: defaults.
		if p.Op == expr.EQ {
			return defaultEqSelectivity
		}
		return defaultRangeSelectivity
	}
	switch p.Op {
	case expr.EQ:
		if d, ok := in.distinct[col.Index]; ok && d > 0 {
			return 1 / d
		}
		return defaultEqSelectivity
	case expr.NE:
		if d, ok := in.distinct[col.Index]; ok && d > 0 {
			return 1 - 1/d
		}
		return 1 - defaultEqSelectivity
	default:
		lo, hasLo := in.mins[col.Index]
		hi, hasHi := in.maxs[col.Index]
		if !hasLo || !hasHi || hi <= lo || lit.V.Kind == data.KindString {
			return defaultRangeSelectivity
		}
		v := lit.V.AsFloat()
		frac := (v - lo) / (hi - lo)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		switch p.Op {
		case expr.LT, expr.LE:
			return frac
		default: // GT, GE
			return 1 - frac
		}
	}
}

// estimateEquijoin applies |R ⋈ S| = |R||S| / max(d_R(key), d_S(key)).
// out is the join's output map, which places the inputs' column
// statistics in the output coordinate space.
func estimateEquijoin(l, r nodeEstimate, lKey, rKey int, out exec.OutMap) nodeEstimate {
	dl := l.rows
	if d, ok := l.distinct[lKey]; ok && d > 0 {
		dl = d
	}
	dr := r.rows
	if d, ok := r.distinct[rKey]; ok && d > 0 {
		dr = d
	}
	dmax := dl
	if dr > dmax {
		dmax = dr
	}
	rows := 0.0
	if dmax > 0 {
		rows = l.rows * r.rows / dmax
	}
	return concatColumnStats(l, r, nodeEstimate{rows: rows}, out)
}

// concatColumnStats re-keys left/right column stats to the join output
// columns out maps them to (left columns first), capping distinct counts
// at the output cardinality. Columns the join does not emit drop out.
func concatColumnStats(l, r, ne nodeEstimate, out exec.OutMap) nodeEstimate {
	ne.distinct = map[int]float64{}
	ne.mins = map[int]float64{}
	ne.maxs = map[int]float64{}
	place := func(in nodeEstimate, cols []int, at int) {
		for i, c := range cols {
			if d, ok := in.distinct[c]; ok {
				ne.distinct[at+i] = capAt(d, ne.rows)
			}
			if v, ok := in.mins[c]; ok {
				ne.mins[at+i] = v
			}
			if v, ok := in.maxs[c]; ok {
				ne.maxs[at+i] = v
			}
		}
	}
	place(l, out.Build, 0)
	place(r, out.Probe, len(out.Build))
	return ne
}

// estimateAgg estimates an aggregation's group count over its child's
// estimate: the distinct-value product capped at the input rows, and at
// least one group over any input. The uncapped product is the GroupsHint.
// A scalar aggregate (no GROUP BY) emits exactly one row whatever its
// input, so its estimate is 1 with source "exact".
func estimateAgg(op exec.Operator, groupBy []int, cat *catalog.Catalog) nodeEstimate {
	child := estimate(op.Children()[0], cat)
	groups, hint, src := 1.0, 1.0, "exact"
	if len(groupBy) > 0 {
		for _, g := range groupBy {
			if d, ok := child.distinct[g]; ok && d > 0 {
				hint *= d
			} else {
				hint *= capAt(child.rows*0.1, child.rows)
			}
		}
		groups, src = capAt(hint, child.rows), "optimizer"
		if groups < 1 && child.rows >= 1 {
			groups = 1
		}
	}
	op.Stats().SetEstimate(groups, src)
	op.Stats().GroupsHint = hint
	return nodeEstimate{rows: groups, distinct: map[int]float64{},
		mins: map[int]float64{}, maxs: map[int]float64{}}
}

func capAt(v, cap float64) float64 {
	if v > cap {
		return cap
	}
	return v
}

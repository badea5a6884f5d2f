// Package oracle is a deliberately naive exact executor for qgen plan
// specs. It shares no code with internal/exec: joins are evaluated with a
// plain Go map from build key to rows, filters and aggregates re-derive
// the engine's NULL semantics from first principles, and nothing is
// estimated — every number it returns is ground truth. The differential
// harness (internal/difftest) compares every execution mode of the real
// engine against it.
package oracle

import (
	"qpi/internal/data"
	"qpi/internal/exec"
	"qpi/internal/qgen"
)

// Result is the ground truth for one generated case.
type Result struct {
	// Rows is the exact result multiset (order unspecified).
	Rows []data.Tuple
	// JoinCards holds the exact output cardinality of every join,
	// bottom-up, aligned with Spec.Joins.
	JoinCards []int64
	// GroupCount is the exact number of groups (0 without grouping).
	GroupCount int64
	// GroupNonNull is the exact number of groups with a non-NULL key.
	// The engine's push-down estimator rides histograms that skip NULLs,
	// so it is compared against this count rather than GroupCount.
	GroupNonNull int64
}

// Eval computes the exact result of a generated case.
func Eval(c *qgen.Case) *Result {
	sp := &c.Spec
	res := &Result{}
	rows := c.Tables[sp.BottomTable].Rows()
	cols := aliasCols(sp.BottomAlias)
	if f := sp.BottomFilter; f != nil {
		idx := qgen.ResolveStream(cols, f.Col)
		var kept []data.Tuple
		for _, t := range rows {
			if f.FilterKeeps(t[idx]) {
				kept = append(kept, t)
			}
		}
		rows = kept
	}
	for _, js := range sp.Joins {
		build := c.Tables[js.Table].Rows()
		pIdx := qgen.ResolveStream(cols, js.ProbeKey)
		rows = joinRows(build, rows, pIdx, js)
		res.JoinCards = append(res.JoinCards, int64(len(rows)))
		switch js.Type {
		case exec.SemiJoin, exec.AntiJoin:
		default:
			cols = append(aliasCols(js.Alias), cols...)
		}
	}
	if g := sp.Group; g != nil {
		rows = groupRows(rows, cols, g)
		res.GroupCount = int64(len(rows))
		for _, r := range rows {
			if !r[0].IsNull() {
				res.GroupNonNull++
			}
		}
	}
	res.Rows = rows
	return res
}

func aliasCols(alias string) []data.Column {
	cols := make([]data.Column, qgen.NumCols)
	names := []string{qgen.ColID, qgen.ColKey, qgen.ColVal, qgen.ColGroup, qgen.ColStr}
	for i, n := range names {
		kind := data.KindInt
		if n == qgen.ColStr {
			kind = data.KindString
		}
		cols[i] = data.Column{Table: alias, Name: n, Kind: kind}
	}
	return cols
}

// buildKeyIdx is the position of the k column in every generated table.
const buildKeyIdx = 1

// joinRows evaluates one join naively. NULL keys never match; semi and
// anti joins preserve the probe schema (anti additionally preserves
// NULL-key probe tuples, which by definition have no match); probe-outer
// joins NULL-pad the build columns for unmatched probe tuples. Output
// column order is build columns followed by probe columns, matching the
// engine's HashJoin/MergeJoin/IndexedNLJoin orientation in qgen plans.
func joinRows(build, probe []data.Tuple, pIdx int, js qgen.JoinSpec) []data.Tuple {
	index := make(map[data.Value][]data.Tuple)
	for _, b := range build {
		k := b[buildKeyIdx]
		if k.IsNull() {
			continue
		}
		index[k] = append(index[k], b)
	}
	var out []data.Tuple
	nullBuild := make(data.Tuple, qgen.NumCols)
	for _, p := range probe {
		var matches []data.Tuple
		if k := p[pIdx]; !k.IsNull() {
			matches = index[k]
		}
		switch js.Type {
		case exec.SemiJoin:
			if len(matches) > 0 {
				out = append(out, p)
			}
		case exec.AntiJoin:
			if len(matches) == 0 {
				out = append(out, p)
			}
		case exec.ProbeOuterJoin:
			if len(matches) == 0 {
				out = append(out, concat(nullBuild, p))
				continue
			}
			for _, b := range matches {
				out = append(out, concat(b, p))
			}
		default: // inner (hash, merge, indexed NL)
			for _, b := range matches {
				out = append(out, concat(b, p))
			}
		}
	}
	return out
}

func concat(a, b data.Tuple) data.Tuple {
	out := make(data.Tuple, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// aggAcc mirrors the executor's per-group aggregate state semantics:
// COUNT(*) counts all rows; every other function skips NULLs; SUM and AVG
// promote to float64 (exact for the generator's small integers); MIN/MAX
// keep the original kind.
type aggAcc struct {
	count    int64
	sum      float64
	min, max data.Value
}

func (s *aggAcc) add(f exec.AggFunc, v data.Value) {
	if f == exec.CountStar {
		s.count++
		return
	}
	if v.IsNull() {
		return
	}
	s.count++
	s.sum += v.AsFloat()
	if s.min.IsNull() || data.Compare(v, s.min) < 0 {
		s.min = v
	}
	if s.max.IsNull() || data.Compare(v, s.max) > 0 {
		s.max = v
	}
}

func (s *aggAcc) result(f exec.AggFunc) data.Value {
	switch f {
	case exec.CountStar, exec.Count:
		return data.Int(s.count)
	case exec.Sum:
		if s.count == 0 {
			return data.Null()
		}
		return data.Float(s.sum)
	case exec.Min:
		return s.min
	case exec.Max:
		return s.max
	default: // Avg
		if s.count == 0 {
			return data.Null()
		}
		return data.Float(s.sum / float64(s.count))
	}
}

func groupRows(rows []data.Tuple, cols []data.Column, g *qgen.GroupSpec) []data.Tuple {
	gIdx := qgen.ResolveStream(cols, g.By)
	aggIdx := make([]int, len(g.Aggs))
	for i, a := range g.Aggs {
		if a.Func != exec.CountStar {
			aggIdx[i] = qgen.ResolveStream(cols, a.Col)
		}
	}
	groups := make(map[data.Value][]*aggAcc)
	var order []data.Value
	for _, t := range rows {
		key := t[gIdx]
		accs := groups[key]
		if accs == nil {
			accs = make([]*aggAcc, len(g.Aggs))
			for i := range accs {
				accs[i] = &aggAcc{}
			}
			groups[key] = accs
			order = append(order, key)
		}
		for i, a := range g.Aggs {
			var v data.Value
			if a.Func != exec.CountStar {
				v = t[aggIdx[i]]
			}
			accs[i].add(a.Func, v)
		}
	}
	out := make([]data.Tuple, 0, len(order))
	for _, key := range order {
		row := make(data.Tuple, 0, 1+len(g.Aggs))
		row = append(row, key)
		for i, a := range g.Aggs {
			row = append(row, groups[key][i].result(a.Func))
		}
		out = append(out, row)
	}
	return out
}

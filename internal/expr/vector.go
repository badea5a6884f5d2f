package expr

import (
	"strings"

	"qpi/internal/data"
)

// This file is the columnar evaluation path. EvalSel filters a whole
// column span into a selection vector in one call; EvalVec computes one
// output vector per expression for projections. Both must agree exactly
// with the per-tuple Eval semantics — the fast paths below are
// specialized only where the scalar semantics are reproduced bit for
// bit, and everything else routes through evalValue, a per-row
// interpreter that reads column vectors instead of tuples (falling back
// to Expr.Eval over a materialized row for expression types this
// package does not know).

// EvalSel appends to out the row indexes in sel (nil = all cb.NRows
// rows) for which e evaluates true, and returns out. The result is a
// valid selection vector for cb.
func EvalSel(e Expr, cb *data.ColBatch, sel []int32, out []int32) []int32 {
	switch x := e.(type) {
	case Cmp:
		if res, ok := evalSelCmp(x, cb, sel, out); ok {
			return res
		}
	case Like:
		if res, ok := evalSelLike(x, cb, sel, out); ok {
			return res
		}
	case And:
		// Narrow the selection through each term; intermediate
		// selections are scratch-allocated, the last lands in out.
		cur := sel
		for i, term := range x.Terms {
			if i == len(x.Terms)-1 {
				return EvalSel(term, cb, cur, out)
			}
			cur = EvalSel(term, cb, cur, nil)
			if len(cur) == 0 {
				return out[:0]
			}
		}
		// Empty conjunction: everything passes.
		return appendAll(cb, sel, out)
	}
	// Generic per-row path.
	out = out[:0]
	forEachRow(cb, sel, func(i int) {
		if evalValue(e, cb, i).IsTrue() {
			out = append(out, int32(i))
		}
	})
	return out
}

// appendAll appends every row of sel (or all rows) to out.
func appendAll(cb *data.ColBatch, sel []int32, out []int32) []int32 {
	out = out[:0]
	if sel != nil {
		return append(out, sel...)
	}
	for i := 0; i < cb.NRows; i++ {
		out = append(out, int32(i))
	}
	return out
}

// forEachRow visits the rows of sel (nil = all) in order.
func forEachRow(cb *data.ColBatch, sel []int32, f func(i int)) {
	if sel == nil {
		for i := 0; i < cb.NRows; i++ {
			f(i)
		}
		return
	}
	for _, i := range sel {
		f(int(i))
	}
}

// evalSelCmp handles the hot Cmp shapes over homogeneous typed lanes:
// Col-vs-Const and Col-vs-Col. Returns ok=false when no fast path
// applies (mixed columns, cross-category comparisons, other operand
// shapes).
func evalSelCmp(c Cmp, cb *data.ColBatch, sel []int32, out []int32) ([]int32, bool) {
	lc, lok := c.L.(Col)
	if !lok {
		return nil, false
	}
	switch r := c.R.(type) {
	case Const:
		return evalSelColConst(c.Op, cb, lc.Index, r.V, sel, out)
	case Col:
		lv, rv := cb.Col(lc.Index), cb.Col(r.Index)
		if !lv.Homogeneous() || !rv.Homogeneous() {
			return nil, false
		}
		if lv.Kind == data.KindInt && rv.Kind == data.KindInt {
			out = out[:0]
			forEachRow(cb, sel, func(i int) {
				if lv.Nulls.Get(i) || rv.Nulls.Get(i) {
					return
				}
				if cmpHolds(c.Op, compareI64(lv.Ints[i], rv.Ints[i])) {
					out = append(out, int32(i))
				}
			})
			return out, true
		}
		if lv.Kind == data.KindString && rv.Kind == data.KindString {
			out = out[:0]
			forEachRow(cb, sel, func(i int) {
				if lv.Nulls.Get(i) || rv.Nulls.Get(i) {
					return
				}
				if cmpHolds(c.Op, compareStr(lv.Strs[i], rv.Strs[i])) {
					out = append(out, int32(i))
				}
			})
			return out, true
		}
		return nil, false
	}
	return nil, false
}

// evalSelLike handles LIKE over a homogeneous string lane. Literal
// patterns (exact and prefix%) run as string compares, everything else
// through the compiled regexp — still one lane pass with no per-row
// Value construction. NULL rows are false (never selected) regardless of
// Negate, matching Like.Eval.
func evalSelLike(l Like, cb *data.ColBatch, sel []int32, out []int32) ([]int32, bool) {
	col, ok := l.E.(Col)
	if !ok {
		return nil, false
	}
	v := cb.Col(col.Index)
	if !v.Homogeneous() || v.Kind != data.KindString {
		return nil, false
	}
	var match func(s string) bool
	switch l.litMode {
	case likeExact:
		lit := l.litStr
		match = func(s string) bool { return s == lit }
	case likePrefix:
		lit := l.litStr
		match = func(s string) bool { return strings.HasPrefix(s, lit) }
	default:
		match = l.re.MatchString
	}
	out = out[:0]
	forEachRow(cb, sel, func(i int) {
		if v.Nulls.Get(i) {
			return
		}
		if match(v.Strs[i]) != l.Negate {
			out = append(out, int32(i))
		}
	})
	return out, true
}

// evalSelColConst filters column col against a constant.
func evalSelColConst(op CmpOp, cb *data.ColBatch, col int, k data.Value, sel []int32, out []int32) ([]int32, bool) {
	if k.IsNull() {
		// NULL comparand: Cmp.Eval is false for every row.
		return out[:0], true
	}
	v := cb.Col(col)
	if !v.Homogeneous() {
		return nil, false
	}
	switch {
	case v.Kind == data.KindInt && k.Kind == data.KindInt:
		kv := k.I
		out = out[:0]
		forEachRow(cb, sel, func(i int) {
			if v.Nulls.Get(i) {
				return
			}
			if cmpHolds(op, compareI64(v.Ints[i], kv)) {
				out = append(out, int32(i))
			}
		})
		return out, true
	case v.Kind == data.KindInt && k.Kind == data.KindFloat:
		// data.Compare compares int-vs-float as floats.
		kf := k.F
		out = out[:0]
		forEachRow(cb, sel, func(i int) {
			if v.Nulls.Get(i) {
				return
			}
			if cmpHolds(op, compareF64(float64(v.Ints[i]), kf)) {
				out = append(out, int32(i))
			}
		})
		return out, true
	case v.Kind == data.KindFloat && (k.Kind == data.KindFloat || k.Kind == data.KindInt):
		kf := k.AsFloat()
		out = out[:0]
		forEachRow(cb, sel, func(i int) {
			if v.Nulls.Get(i) {
				return
			}
			if cmpHolds(op, compareF64(v.Floats[i], kf)) {
				out = append(out, int32(i))
			}
		})
		return out, true
	case v.Kind == data.KindString && k.Kind == data.KindString:
		ks := k.S
		out = out[:0]
		forEachRow(cb, sel, func(i int) {
			if v.Nulls.Get(i) {
				return
			}
			if cmpHolds(op, compareStr(v.Strs[i], ks)) {
				out = append(out, int32(i))
			}
		})
		return out, true
	}
	return nil, false
}

func compareI64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func compareF64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func compareStr(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpHolds(op CmpOp, cmp int) bool {
	switch op {
	case EQ:
		return cmp == 0
	case NE:
		return cmp != 0
	case LT:
		return cmp < 0
	case LE:
		return cmp <= 0
	case GT:
		return cmp > 0
	default:
		return cmp >= 0
	}
}

// evalValue evaluates e over row i of cb without materializing the row,
// reproducing Expr.Eval exactly. Unknown expression types fall back to
// Eval over the batch's (cached or materialized) row.
func evalValue(e Expr, cb *data.ColBatch, i int) data.Value {
	switch x := e.(type) {
	case Col:
		return cb.Col(x.Index).ValueAt(i)
	case Const:
		return x.V
	case Cmp:
		l, r := evalValue(x.L, cb, i), evalValue(x.R, cb, i)
		if l.IsNull() || r.IsNull() {
			return data.Bool(false)
		}
		return data.Bool(cmpHolds(x.Op, data.Compare(l, r)))
	case And:
		for _, term := range x.Terms {
			if !evalValue(term, cb, i).IsTrue() {
				return data.Bool(false)
			}
		}
		return data.Bool(true)
	case Or:
		for _, term := range x.Terms {
			if evalValue(term, cb, i).IsTrue() {
				return data.Bool(true)
			}
		}
		return data.Bool(false)
	case Not:
		return data.Bool(!evalValue(x.E, cb, i).IsTrue())
	case IsNull:
		isNull := evalValue(x.E, cb, i).IsNull()
		if x.Negate {
			return data.Bool(!isNull)
		}
		return data.Bool(isNull)
	case Like:
		v := evalValue(x.E, cb, i)
		if v.IsNull() || v.Kind != data.KindString {
			return data.Bool(false)
		}
		m := x.re.MatchString(v.S)
		if x.Negate {
			m = !m
		}
		return data.Bool(m)
	case Arith:
		return Arith{Op: x.Op, L: constOf(evalValue(x.L, cb, i)), R: constOf(evalValue(x.R, cb, i))}.Eval(nil)
	default:
		return e.Eval(cb.MaterializeRows()[i])
	}
}

// constOf wraps an evaluated value so composite arithmetic can reuse
// Arith.Eval verbatim.
func constOf(v data.Value) Const { return Const{V: v} }

// EvalVec evaluates e for every live row of cb, writing results into out
// at the original row indexes (so out shares cb's NRows/Sel geometry).
// Pass-through columns (bare Col) should be handled by the caller via
// vector sharing; EvalVec always computes.
func EvalVec(e Expr, cb *data.ColBatch, out *data.ColVec) {
	out.Reset()
	if cb.Sel == nil {
		for i := 0; i < cb.NRows; i++ {
			out.AppendVal(i, evalValue(e, cb, i))
		}
		return
	}
	prev := 0
	for _, i32 := range cb.Sel {
		i := int(i32)
		// Dead rows between live ones are NULL-padded so the vector
		// stays index-aligned.
		for ; prev < i; prev++ {
			out.AppendVal(prev, data.Null())
		}
		out.AppendVal(i, evalValue(e, cb, i))
		prev = i + 1
	}
}

// ColRefs marks the column indexes referenced by e in set, whose length
// is the width of the schema e is bound to — what the compile-time column
// pruning pass collects from every filter and projection.
func ColRefs(e Expr, set []bool) {
	switch x := e.(type) {
	case Col:
		set[x.Index] = true
	case Cmp:
		ColRefs(x.L, set)
		ColRefs(x.R, set)
	case And:
		for _, t := range x.Terms {
			ColRefs(t, set)
		}
	case Or:
		for _, t := range x.Terms {
			ColRefs(t, set)
		}
	case Not:
		ColRefs(x.E, set)
	case IsNull:
		ColRefs(x.E, set)
	case Like:
		ColRefs(x.E, set)
	case Arith:
		ColRefs(x.L, set)
		ColRefs(x.R, set)
	}
}

// Remap returns e with every column index i replaced by m[i]: e rebound
// onto a narrowed input. Display names are kept (an unnamed column keeps
// rendering as its old index), so operator labels do not move. Like
// ColRefs it knows this package's expression types only.
func Remap(e Expr, m []int) Expr {
	switch x := e.(type) {
	case Col:
		if x.Name == "" {
			x.Name = x.String()
		}
		x.Index = m[x.Index]
		return x
	case Cmp:
		x.L, x.R = Remap(x.L, m), Remap(x.R, m)
		return x
	case And:
		return And{Terms: remapAll(x.Terms, m)}
	case Or:
		return Or{Terms: remapAll(x.Terms, m)}
	case Not:
		x.E = Remap(x.E, m)
		return x
	case IsNull:
		x.E = Remap(x.E, m)
		return x
	case Like:
		x.E = Remap(x.E, m)
		return x
	case Arith:
		x.L, x.R = Remap(x.L, m), Remap(x.R, m)
		return x
	}
	return e
}

func remapAll(terms []Expr, m []int) []Expr {
	out := make([]Expr, len(terms))
	for i, t := range terms {
		out[i] = Remap(t, m)
	}
	return out
}

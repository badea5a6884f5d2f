package expr

import (
	"math"
	"strings"

	"qpi/internal/data"
)

// This file is the columnar evaluation path. EvalSel filters a whole
// column span into a selection vector in one call; EvalVec computes one
// output vector per expression for projections. Both must agree exactly
// with the per-tuple Eval semantics. EvalSel's comparisons over typed
// lanes — a column against a constant on either side, two columns of one
// kind, and an And's lower and upper bound on one int column fused into
// a range — run the branch-free selection kernels of selkernel.go, and
// LIKE over a string lane runs its own lane pass. Every other shape
// (mixed-kind lanes, arithmetic operands, Or, Not, IS NULL) routes
// through evalValue, a per-row interpreter that reads column vectors
// instead of tuples (falling back to Expr.Eval over a materialized row
// for expression types this package does not know); it is also the
// reference the kernels are tested against.

// EvalSel writes to out the row indexes in sel (nil = all cb.NRows rows)
// for which e evaluates true, and returns them: a valid selection vector
// for cb, never nil. out's backing array is reused when large enough. out may be
// sel's own buffer (out[:0] over sel): every pass writes out[w] only once
// it has read sel[w], so the selection narrows in place.
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
		return evalSelAnd(x.Terms, cb, sel, out)
	}
	// Generic per-row path.
	out = sized(out, 0)
	forEachRow(cb, sel, func(i int) {
		if evalValue(e, cb, i).IsTrue() {
			out = append(out, int32(i))
		}
	})
	return out
}

// evalSelAnd narrows the selection through each term in turn: the first
// term reads sel and writes out, every later one narrows out in place, so
// a conjunction allocates nothing of its own. The bounds on one int column
// by int constants (BETWEEN, a range rewrite) intersect into one range
// and run as one pass in the place of the first of them.
func evalSelAnd(terms []Expr, cb *data.ColBatch, sel, out []int32) []int32 {
	if len(terms) == 0 {
		// Empty conjunction: everything passes.
		return appendAll(cb, sel, out)
	}
	var fused uint64 // bit j: term j already ran inside a range (j < 64)
	for i, t := range terms {
		if fused&(1<<i) != 0 {
			continue
		}
		var res []int32
		ok := false
		if col, lo, hi, with := columnRange(terms, i); with != 0 {
			if res, ok = evalSelRange(cb, col, lo, hi, sel, out); ok {
				fused |= with
			}
		}
		if !ok {
			res = EvalSel(t, cb, sel, out)
		}
		if len(res) == 0 {
			return res
		}
		sel, out = res, res
	}
	return out
}

// columnRange intersects the int bound terms[i] with every later one
// (among the first 64) on the same column, and returns the range [lo, hi]
// they admit together (lo > hi when none) and the later terms it took as
// a bit set, empty when there are none. Every bound on a column is taken
// at its first, so none of them has run yet.
func columnRange(terms []Expr, i int) (col int, lo, hi int64, with uint64) {
	col, lo, hi, ok := intRange(terms[i])
	if !ok {
		return 0, 0, 0, 0
	}
	for j := i + 1; j < min(len(terms), 64); j++ {
		if c, l, h, ok := intRange(terms[j]); ok && c == col {
			lo, hi, with = max(lo, l), min(hi, h), with|1<<j
		}
	}
	return col, lo, hi, with
}

// intRange reads e as a bound (<, <=, >, >=) on a column by an int
// constant and returns the range [lo, hi] of int64 values it admits
// (lo > hi when a strict bound admits none).
func intRange(e Expr) (col int, lo, hi int64, ok bool) {
	c, isCmp := e.(Cmp)
	if !isCmp {
		return 0, 0, 0, false
	}
	col, op, k, ok := colConst(c)
	if !ok || k.Kind != data.KindInt {
		return 0, 0, 0, false
	}
	lo, hi = math.MinInt64, math.MaxInt64
	switch op {
	case GE:
		lo = k.I
	case GT:
		if k.I == math.MaxInt64 {
			return col, 1, 0, true
		}
		lo = k.I + 1
	case LE:
		hi = k.I
	case LT:
		if k.I == math.MinInt64 {
			return col, 1, 0, true
		}
		hi = k.I - 1
	default:
		return 0, 0, 0, false
	}
	return col, lo, hi, true
}

// evalSelRange selects the rows of column col within [lo, hi]; ok=false
// when the column is not an int lane.
func evalSelRange(cb *data.ColBatch, col int, lo, hi int64, sel, out []int32) ([]int32, bool) {
	v := cb.Col(col)
	n := cb.NRows
	if !v.Homogeneous() || v.Kind != data.KindInt {
		return nil, false
	}
	if lo > hi {
		return sized(out, 0), true
	}
	sel, out = dropNulls(v.Nulls, n, sel, out)
	return selRange(v.Ints[:n], lo, hi, sel, out), true
}

// appendAll writes every row of sel (or all rows) to out.
func appendAll(cb *data.ColBatch, sel []int32, out []int32) []int32 {
	out = sized(out, 0)
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

// mirrored[op] holds with the operands swapped: k < x is x > k.
var mirrored = [...]CmpOp{EQ: EQ, NE: NE, LT: GT, LE: GE, GT: LT, GE: LE}

// colConst reads c as column op constant, a constant on the left moving
// right under the mirrored operator.
func colConst(c Cmp) (col int, op CmpOp, k data.Value, ok bool) {
	switch l := c.L.(type) {
	case Col:
		if r, isConst := c.R.(Const); isConst {
			return l.Index, c.Op, r.V, true
		}
	case Const:
		if r, isCol := c.R.(Col); isCol {
			return r.Index, mirrored[c.Op], l.V, true
		}
	}
	return 0, 0, data.Value{}, false
}

// evalSelCmp runs the comparison kernels over homogeneous typed lanes:
// column against constant (either side) and column against column of one
// kind. Returns ok=false when none applies (mixed lanes, cross-category
// comparisons, other operand shapes).
func evalSelCmp(c Cmp, cb *data.ColBatch, sel []int32, out []int32) ([]int32, bool) {
	if col, op, k, ok := colConst(c); ok {
		return evalSelColConst(op, cb, col, k, sel, out)
	}
	lc, lok := c.L.(Col)
	rc, rok := c.R.(Col)
	if !lok || !rok {
		return nil, false
	}
	lv, rv := cb.Col(lc.Index), cb.Col(rc.Index)
	if !lv.Homogeneous() || !rv.Homogeneous() || lv.Kind != rv.Kind || lv.Kind == data.KindNull {
		return nil, false
	}
	n := cb.NRows
	sel, out = dropNulls(lv.Nulls, n, sel, out)
	sel, out = dropNulls(rv.Nulls, n, sel, out)
	switch lv.Kind {
	case data.KindInt:
		return selCols(c.Op, lv.Ints[:n], rv.Ints[:n], sel, out), true
	case data.KindFloat:
		return selCols(c.Op, lv.Floats[:n], rv.Floats[:n], sel, out), true
	default:
		return selCols(c.Op, lv.Strs[:n], rv.Strs[:n], sel, out), true
	}
}

// evalSelColConst filters column col against a constant.
func evalSelColConst(op CmpOp, cb *data.ColBatch, col int, k data.Value, sel []int32, out []int32) ([]int32, bool) {
	v := cb.Col(col)
	if k.IsNull() || (v.Homogeneous() && v.Kind == data.KindNull) {
		// A NULL on either side: Cmp.Eval is false for every row.
		return sized(out, 0), true
	}
	n := cb.NRows
	if !v.Homogeneous() || (v.Kind == data.KindString) != (k.Kind == data.KindString) {
		// Strings against numbers compare by category: evalValue.
		return nil, false
	}
	sel, out = dropNulls(v.Nulls, n, sel, out)
	switch {
	case v.Kind == data.KindInt && k.Kind == data.KindInt:
		return selConst(op, v.Ints[:n], k.I, sel, out), true
	case v.Kind == data.KindInt:
		// data.Compare compares int-vs-float as floats.
		return selIntFloat(op, v.Ints[:n], k.F, sel, out), true
	case v.Kind == data.KindFloat:
		return selConst(op, v.Floats[:n], k.AsFloat(), sel, out), true
	default:
		return selConst(op, v.Strs[:n], k.S, sel, out), true
	}
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
	out = sized(out, 0)
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

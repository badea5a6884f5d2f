package core

import (
	"sort"

	"qpi/internal/data"
	"qpi/internal/exec"
	"qpi/internal/expr"
	"qpi/internal/obs"
)

// InequalityEstimator estimates the size of a non-equi (theta) join
// R.x θ S.y, the "other kinds of join predicates (e.g., R.x > S.y)" of
// §4.1. It attaches to a nested-loops join whose inner input is
// materialized first and whose outer input is pre-sorted: the inner
// materialization pass collects the inner key values, and the outer
// sort's input pass — a random-order stream, before the join emits
// anything — counts each outer tuple's matches with an order-statistic
// (binary search) query:
//
//	D_t = |Outer|/t · Σ count(outer_i θ inner)
//
// converging to the exact theta-join size by the end of the sort input.
type InequalityEstimator struct {
	join exec.Operator
	op   expr.CmpOp

	keys   []float64 // inner key values (numeric), sorted lazily
	nulls  int64     // inner NULLs never match
	sorted bool

	outerTotal func() float64
	t          int64
	sum        float64
	frozen     bool

	refineTrace
}

// SetTracer routes the estimator's refinement events into tr.
func (e *InequalityEstimator) SetTracer(tr *obs.Tracer) {
	e.bindTracer(tr, e.join.Name(), "ineq")
}

// NewInequalityEstimator creates an estimator for join with comparison op
// (outer value on the left). outerTotal returns the live estimate of the
// outer input size.
func NewInequalityEstimator(join exec.Operator, op expr.CmpOp, outerTotal func() float64) *InequalityEstimator {
	return &InequalityEstimator{join: join, op: op, outerTotal: outerTotal}
}

// ObserveInner records one inner join-key value during materialization.
func (e *InequalityEstimator) ObserveInner(v data.Value) {
	if v.IsNull() || v.Kind == data.KindString {
		e.nulls++
		return
	}
	e.keys = append(e.keys, v.AsFloat())
	e.sorted = false
}

// count returns how many inner values satisfy (outer op inner).
func (e *InequalityEstimator) count(outer data.Value) int64 {
	if !e.sorted {
		sort.Float64s(e.keys)
		e.sorted = true
	}
	if outer.IsNull() || outer.Kind == data.KindString {
		return 0
	}
	x := outer.AsFloat()
	n := len(e.keys)
	// lower = #inner < x, upper = #inner <= x.
	lower := sort.SearchFloat64s(e.keys, x)
	upper := sort.Search(n, func(i int) bool { return e.keys[i] > x })
	eq := int64(upper - lower)
	switch e.op {
	case expr.EQ:
		return eq
	case expr.NE:
		return int64(n) - eq
	case expr.LT: // outer < inner  → inner > outer
		return int64(n - upper)
	case expr.LE:
		return int64(n - lower)
	case expr.GT: // outer > inner  → inner < outer
		return int64(lower)
	default: // GE
		return int64(upper)
	}
}

// ObserveOuter processes one outer tuple's join value during the sort's
// input pass, refreshing the join's estimate.
func (e *InequalityEstimator) ObserveOuter(v data.Value) {
	e.t++
	e.sum += float64(e.count(v))
	if e.t%64 == 0 {
		e.publish()
	}
}

// MarkConverged freezes the estimator when the outer input has been fully
// observed.
func (e *InequalityEstimator) MarkConverged() {
	e.frozen = true
	e.publish()
}

// Converged reports whether the outer input has been fully observed.
func (e *InequalityEstimator) Converged() bool { return e.frozen }

// Estimate returns the current theta-join size estimate.
func (e *InequalityEstimator) Estimate() float64 {
	if e.t == 0 {
		return e.join.Stats().Estimate()
	}
	total := e.outerTotal()
	if e.frozen {
		total = float64(e.t)
	}
	return total * e.sum / float64(e.t)
}

func (e *InequalityEstimator) publish() {
	src := "once"
	if e.frozen {
		src = "once-exact"
	}
	est := e.Estimate()
	e.join.Stats().SetEstimate(est, src)
	e.tracePublish(est, src, 0)
}

// attachSortedOuterThetaNL wires inequality estimation for a theta
// nested-loops join whose predicate is a single column comparison between
// the outer and inner inputs and whose outer input is a Sort.
func (a *Attachment) attachSortedOuterThetaNL(j *exec.NestedLoopsJoin) bool {
	if j.Indexed || j.Pred == nil {
		return false
	}
	cmp, ok := j.Pred.(expr.Cmp)
	if !ok {
		return false
	}
	lc, lok := cmp.L.(expr.Col)
	rcol, rok := cmp.R.(expr.Col)
	if !lok || !rok {
		return false
	}
	outerSort, ok := j.Outer().(*exec.Sort)
	if !ok {
		return false
	}
	outerWidth := j.Outer().Schema().Len()
	// Identify which side of the comparison is the outer column. The
	// predicate indexes the concatenated (outer ⧺ inner) tuple.
	var outerIdx, innerIdx int
	op := cmp.Op
	switch {
	case lc.Index < outerWidth && rcol.Index >= outerWidth:
		outerIdx, innerIdx = lc.Index, rcol.Index-outerWidth
	case rcol.Index < outerWidth && lc.Index >= outerWidth:
		outerIdx, innerIdx = rcol.Index, lc.Index-outerWidth
		op = flipCmp(op)
	default:
		return false
	}
	est := NewInequalityEstimator(j, op, func() float64 {
		return StreamSizeEstimate(outerSort.Children()[0])
	})
	j.OnInnerCol = compose(j.OnInnerCol, func(cb *data.ColBatch) {
		cb.EachLive(func(i int) { est.ObserveInner(cb.Value(innerIdx, i)) })
	})
	outerSort.OnInputCol = compose(outerSort.OnInputCol, func(cb *data.ColBatch) {
		cb.EachLive(func(i int) { est.ObserveOuter(cb.Value(outerIdx, i)) })
	})
	outerSort.OnInputEnd = compose0(outerSort.OnInputEnd, est.MarkConverged)
	a.Ineq = append(a.Ineq, est)
	return true
}

// flipCmp mirrors a comparison across its operands.
func flipCmp(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.LT:
		return expr.GT
	case expr.LE:
		return expr.GE
	case expr.GT:
		return expr.LT
	case expr.GE:
		return expr.LE
	default:
		return op // EQ, NE symmetric
	}
}

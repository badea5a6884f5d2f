package core

import (
	"qpi/internal/data"
	"qpi/internal/exec"
	"qpi/internal/expr"
	"qpi/internal/obs"
)

// DisjunctiveEstimator estimates joins whose condition is a disjunction
// of column equalities (§4.1: the basic formula "can be easily adjusted
// for the case of join conditions involving disjunctions ... using
// standard probabilistic techniques"). For a predicate
//
//	outer.a1 = inner.b1 OR ... OR outer.ak = inner.bk
//
// inclusion–exclusion over the 2^k−1 non-empty term subsets gives the
// exact per-outer-tuple match count from composite-key histograms built
// on the inner input:
//
//	count(o) = Σ_{∅≠S⊆[k]} (−1)^{|S|+1} · N_S[key_S(o)]
//
// where N_S counts inner tuples by the composite of columns in S. As with
// the equi-join estimators, the counts are collected during the inner
// materialization pass and probed during the outer sort's input pass, so
// the estimate converges before the join emits.
type DisjunctiveEstimator struct {
	join exec.Operator

	// Subset i of the k terms (bitmask i+1) has sign signs[i] and
	// histogram hists[i], which counts inner tuples by the composite key
	// of the subset's inner columns innerKeys[i]; outerKeys[i] are its
	// outer columns.
	signs     []float64
	hists     []*FreqHistogram
	innerKeys [][]int
	outerKeys [][]int
	keyRow    data.Tuple // composite key staging for exec.JoinKeyAt

	outerTotal func() float64
	t          int64
	sum        float64
	frozen     bool

	refineTrace
}

// SetTracer routes the estimator's refinement events into tr.
func (e *DisjunctiveEstimator) SetTracer(tr *obs.Tracer) {
	e.bindTracer(tr, e.join.Name(), "disjunct")
}

// maxDisjuncts bounds the inclusion–exclusion blowup.
const maxDisjuncts = 4

// NewDisjunctiveEstimator creates an estimator for a k-way disjunction of
// equalities (k ≤ 4). outerCols/innerCols index the outer and inner
// schemas respectively, term by term.
func NewDisjunctiveEstimator(join exec.Operator, outerCols, innerCols []int, outerTotal func() float64) *DisjunctiveEstimator {
	k := len(outerCols)
	e := &DisjunctiveEstimator{
		join:       join,
		outerTotal: outerTotal,
	}
	for s := uint(1); s < (1 << k); s++ {
		sign := -1.0
		if popcount(s)%2 == 1 {
			sign = 1.0
		}
		e.signs = append(e.signs, sign)
		e.hists = append(e.hists, NewFreqHistogram())
		e.innerKeys = append(e.innerKeys, subsetCols(s, innerCols))
		e.outerKeys = append(e.outerKeys, subsetCols(s, outerCols))
	}
	return e
}

func popcount(x uint) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// subsetCols selects the columns of the terms in subset s from the
// per-term column indexes cols.
func subsetCols(s uint, cols []int) []int {
	var sel []int
	for i := range cols {
		if s&(1<<uint(i)) != 0 {
			sel = append(sel, cols[i])
		}
	}
	return sel
}

// ObserveInner records every live inner row of cb across all subset
// histograms.
func (e *DisjunctiveEstimator) ObserveInner(cb *data.ColBatch) {
	cb.EachLive(func(r int) {
		for i, h := range e.hists {
			h.Add(exec.JoinKeyAt(cb, e.innerKeys[i], r, &e.keyRow))
		}
	})
}

// ObserveOuter processes every live outer row of cb, in row order, during
// the sort input pass.
func (e *DisjunctiveEstimator) ObserveOuter(cb *data.ColBatch) {
	cb.EachLive(func(r int) {
		count := 0.0
		for i, h := range e.hists {
			count += e.signs[i] * float64(h.Count(exec.JoinKeyAt(cb, e.outerKeys[i], r, &e.keyRow)))
		}
		e.t++
		e.sum += count
		if e.t%64 == 0 {
			e.publish()
		}
	})
}

// MarkConverged freezes the estimator at the end of the outer input.
func (e *DisjunctiveEstimator) MarkConverged() {
	e.frozen = true
	e.publish()
}

// Converged reports whether the outer input has been fully observed.
func (e *DisjunctiveEstimator) Converged() bool { return e.frozen }

// Estimate returns the current disjunctive-join size estimate.
func (e *DisjunctiveEstimator) Estimate() float64 {
	if e.t == 0 {
		return e.join.Stats().Estimate()
	}
	total := e.outerTotal()
	if e.frozen {
		total = float64(e.t)
	}
	return total * e.sum / float64(e.t)
}

func (e *DisjunctiveEstimator) publish() {
	src := "once"
	if e.frozen {
		src = "once-exact"
	}
	est := e.Estimate()
	e.join.Stats().SetEstimate(est, src)
	e.tracePublish(est, src, 0)
}

// attachSortedOuterDisjunctNL wires disjunctive estimation for a theta
// nested-loops join whose predicate is an OR of column equalities between
// the outer and inner inputs and whose outer input is a Sort.
func (a *Attachment) attachSortedOuterDisjunctNL(j *exec.NestedLoopsJoin) bool {
	if j.Indexed || j.Pred == nil {
		return false
	}
	or, ok := j.Pred.(expr.Or)
	if !ok || len(or.Terms) < 2 || len(or.Terms) > maxDisjuncts {
		return false
	}
	outerSort, ok := j.Outer().(*exec.Sort)
	if !ok {
		return false
	}
	outerWidth := j.Outer().Schema().Len()
	var outerCols, innerCols []int
	for _, term := range or.Terms {
		cmp, ok := term.(expr.Cmp)
		if !ok || cmp.Op != expr.EQ {
			return false
		}
		lc, lok := cmp.L.(expr.Col)
		rc, rok := cmp.R.(expr.Col)
		if !lok || !rok {
			return false
		}
		switch {
		case lc.Index < outerWidth && rc.Index >= outerWidth:
			outerCols = append(outerCols, lc.Index)
			innerCols = append(innerCols, rc.Index-outerWidth)
		case rc.Index < outerWidth && lc.Index >= outerWidth:
			outerCols = append(outerCols, rc.Index)
			innerCols = append(innerCols, lc.Index-outerWidth)
		default:
			return false
		}
	}
	est := NewDisjunctiveEstimator(j, outerCols, innerCols, func() float64 {
		return StreamSizeEstimate(outerSort.Children()[0])
	})
	j.OnInnerCol = compose(j.OnInnerCol, est.ObserveInner)
	outerSort.OnInputCol = compose(outerSort.OnInputCol, est.ObserveOuter)
	outerSort.OnInputEnd = compose0(outerSort.OnInputEnd, est.MarkConverged)
	a.Disjunct = append(a.Disjunct, est)
	return true
}

package core

import (
	"qpi/internal/data"
	"qpi/internal/exec"
	"qpi/internal/obs"
)

// Attachment is the result of wiring the online estimation framework into
// a physical plan: the chain estimators (one per hash-join or sort-merge
// pipeline chain, including "chains" of a single binary join), the
// aggregation estimators, and the join→(chain, level) index.
type Attachment struct {
	Chains    []*PipelineEstimator
	ChainOf   map[exec.Operator]*PipelineEstimator
	LevelOf   map[exec.Operator]int
	Aggs      map[exec.Operator]*AggEstimator
	Fallbacks []exec.Operator // operators left to the dne estimator
	Ineq      []*InequalityEstimator
	Disjunct  []*DisjunctiveEstimator
	opts      AttachOptions
}

// Attach walks a plan and installs the paper's estimators (§5
// "Implementation"):
//
//   - every maximal chain of hash joins linked probe-to-output gets a
//     PipelineEstimator (Algorithm 1), with estimation pushed down to the
//     lowest join's probe partitioning pass;
//   - every sort-merge join whose inputs are Sort operators gets the same
//     treatment, with histograms built during the sort passes (§4.1.2);
//     chains of merge joins on the same attribute (no intermediate sort)
//     are chained like hash joins (§4.1.4.3);
//   - aggregations with GROUP BY get GEE/MLE chooser estimation over
//     their input pass, or push-down estimation over the join output
//     distribution when they sit on a join chain and group by a
//     bottom-stream attribute (§4.2); a scalar aggregate's one row needs
//     no estimator;
//   - nested-loops joins, selections and pre-sorted merge joins fall back
//     to the dne estimator (§4.1.3, §4.3), recorded in Fallbacks.
//
// Attach must be called before the plan is opened.
func Attach(root exec.Operator) *Attachment {
	return AttachWith(root, AttachOptions{})
}

// AttachOptions customizes Attach.
type AttachOptions struct {
	// Histograms selects the histogram implementation; nil means the
	// paper's exact frequency histograms. Use ApproximateHistograms(n)
	// for the bounded-memory variant of §6 (estimates then upper-bound
	// the true sizes instead of converging exactly).
	Histograms HistogramFactory
}

// AttachWith is Attach with options.
func AttachWith(root exec.Operator, opts AttachOptions) *Attachment {
	if opts.Histograms == nil {
		opts.Histograms = ExactHistograms
	}
	a := &Attachment{
		ChainOf: map[exec.Operator]*PipelineEstimator{},
		LevelOf: map[exec.Operator]int{},
		Aggs:    map[exec.Operator]*AggEstimator{},
		opts:    opts,
	}
	a.visit(root)
	return a
}

func (a *Attachment) visit(op exec.Operator) {
	switch o := op.(type) {
	case *exec.HashJoin:
		if a.ChainOf[o] == nil {
			a.attachHashChain(o)
		}
	case *exec.MergeJoin:
		if a.ChainOf[o] == nil {
			a.attachMergeChain(o)
		}
	case *exec.HashAgg:
		a.attachAgg(o, o.Child(), o.GroupBy(), func(f func()) {
			o.OnInputEnd = compose0(o.OnInputEnd, f)
		}, func(f func([]int64)) {
			o.OnInputGroupCounts = compose(o.OnInputGroupCounts, f)
		}, nil)
	case *exec.SortAgg:
		// Observe the *sorter's input* (randomly ordered), not the sorted
		// output.
		s := o.Sorter()
		a.attachAgg(o, s.Children()[0], o.GroupBy(), func(f func()) {
			s.OnInputEnd = compose0(s.OnInputEnd, f)
		}, nil, func(f func(*data.ColBatch)) {
			s.OnInputCol = compose(s.OnInputCol, f)
		})
	case *exec.NestedLoopsJoin:
		if !a.attachSortedOuterNL(o) && !a.attachSortedOuterThetaNL(o) &&
			!a.attachSortedOuterDisjunctNL(o) {
			a.Fallbacks = append(a.Fallbacks, o)
		}
	case *exec.Filter:
		a.Fallbacks = append(a.Fallbacks, o)
	}
	for _, c := range op.Children() {
		a.visit(c)
	}
}

// attachHashChain builds the estimator for the maximal hash-join chain
// whose top join is top. A chain may have any join type at the top but
// only inner joins below it: the outer/semi/anti variants do not compose
// as per-level products when other joins sit above them, so a non-inner
// probe child terminates the chain and roots its own.
func (a *Attachment) attachHashChain(top *exec.HashJoin) {
	var joins []*exec.HashJoin
	cur := top
	for {
		joins = append(joins, cur)
		next, ok := cur.Probe().(*exec.HashJoin)
		if !ok || next.Type() != exec.InnerJoin {
			break
		}
		cur = next
	}
	bottom := joins[len(joins)-1]
	bottomStream := bottom.Probe()

	links := make([]ChainLink, len(joins))
	for i, j := range joins {
		links[i] = ChainLink{
			Join:      j,
			Out:       j.OutMap(),
			BuildKeys: j.BuildKeys(),
			ProbeKeys: j.ProbeKeys(),
			Mult:      multFor(j.Type()),
		}
		hashLinkHooks(&links[i], j)
	}
	pe, err := NewPipelineEstimatorHist(links, func() float64 {
		return StreamSizeEstimate(bottomStream)
	}, a.opts.Histograms)
	if err != nil {
		// Mixed-provenance multi-column keys: the per-level product
		// decomposition does not apply. Attach each join as its own
		// single-link chain instead (a length-1 chain always resolves:
		// its probe key trivially comes from its own probe stream).
		for _, j := range joins {
			a.attachSingleHashJoin(j)
		}
		return
	}
	wireHashProbe(pe, bottom)
	a.record(pe, joinsToOps(joins))
}

// hashLinkHooks fills a ChainLink's hook setter for one hash join: its
// build pass's span hook.
func hashLinkHooks(l *ChainLink, j *exec.HashJoin) {
	l.SetBuildColHook = func(f func(cb *data.ColBatch)) {
		j.OnBuildCol = compose(j.OnBuildCol, f)
	}
}

// sortInputHooks feeds a sort's input pass — the bottom stream of a
// sort-merge or sorted-outer nested-loops chain — to the estimator, a span
// at a time, and marks it converged at the pass's end.
func sortInputHooks(pe *PipelineEstimator, s *exec.Sort) {
	s.OnInputCol = compose(s.OnInputCol, pe.ObserveProbeCol)
	s.OnInputEnd = compose0(s.OnInputEnd, pe.MarkConverged)
}

// wireHashProbe feeds the bottom join's probe pass to the estimator, a
// span at a time, and marks it converged at the pass's end.
func wireHashProbe(pe *PipelineEstimator, bottom *exec.HashJoin) {
	bottom.OnProbeCol = compose(bottom.OnProbeCol, pe.ObserveProbeCol)
	bottom.OnProbeEnd = compose0(bottom.OnProbeEnd, pe.MarkConverged)
}

// attachSingleHashJoin wires a length-1 chain estimator for one join.
func (a *Attachment) attachSingleHashJoin(j *exec.HashJoin) {
	links := []ChainLink{{
		Join:      j,
		Out:       j.OutMap(),
		BuildKeys: j.BuildKeys(),
		ProbeKeys: j.ProbeKeys(),
		Mult:      multFor(j.Type()),
	}}
	hashLinkHooks(&links[0], j)
	probeStream := j.Probe()
	pe, err := NewPipelineEstimatorHist(links, func() float64 {
		return StreamSizeEstimate(probeStream)
	}, a.opts.Histograms)
	if err != nil {
		return
	}
	wireHashProbe(pe, j)
	a.record(pe, []exec.Operator{j})
}

// attachMergeChain builds the estimator for a chain of merge joins whose
// left (build) inputs are Sort operators. The bottom probe input must be
// a Sort as well; otherwise the inputs are pre-sorted and the paper
// prescribes the dne fallback.
func (a *Attachment) attachMergeChain(top *exec.MergeJoin) {
	var joins []*exec.MergeJoin
	cur := top
	for {
		joins = append(joins, cur)
		next, ok := cur.Right().(*exec.MergeJoin)
		if !ok {
			break
		}
		cur = next
	}
	bottom := joins[len(joins)-1]
	bottomSort, ok := bottom.Right().(*exec.Sort)
	if !ok {
		a.Fallbacks = append(a.Fallbacks, top)
		return
	}
	links := make([]ChainLink, len(joins))
	for i, j := range joins {
		ls, ok := j.Left().(*exec.Sort)
		if !ok {
			// Pre-sorted build input: no preprocessing pass to observe.
			a.Fallbacks = append(a.Fallbacks, j)
			return
		}
		links[i] = ChainLink{
			Join:      j,
			Out:       exec.FullOutMap(j.Left().Schema().Len(), j.Right().Schema().Len()),
			BuildKeys: []int{j.LeftKey()},
			ProbeKeys: []int{j.RightKey()},
			SetBuildColHook: func(f func(*data.ColBatch)) {
				ls.OnInputCol = compose(ls.OnInputCol, f)
			},
		}
	}
	bottomStream := bottomSort.Children()[0]
	pe, err := NewPipelineEstimatorHist(links, func() float64 {
		return StreamSizeEstimate(bottomStream)
	}, a.opts.Histograms)
	if err != nil {
		return
	}
	sortInputHooks(pe, bottomSort)
	ops := make([]exec.Operator, len(joins))
	for i, j := range joins {
		ops[i] = j
	}
	a.record(pe, ops)
}

func (a *Attachment) record(pe *PipelineEstimator, joins []exec.Operator) {
	a.Chains = append(a.Chains, pe)
	for level, j := range joins {
		a.ChainOf[j] = pe
		a.LevelOf[j] = level
	}
}

// attachSortedOuterNL handles the nested-loops case the paper's §4.1.3
// calls out: plain NL joins reduce to the dne estimator, but when the
// engine pre-sorts the outer input (for memory locality) and builds a
// temporary index on the inner, both inputs have preprocessing passes —
// the inner materialization builds the frequency histogram and the outer
// sort's input pass probes it, converging before the join emits.
func (a *Attachment) attachSortedOuterNL(j *exec.NestedLoopsJoin) bool {
	if !j.Indexed {
		return false
	}
	outerSort, ok := j.Outer().(*exec.Sort)
	if !ok {
		return false
	}
	links := []ChainLink{{
		Join:      j,
		Out:       exec.FullOutMap(j.Inner().Schema().Len(), j.Outer().Schema().Len()),
		BuildKeys: []int{j.InnerKey()},
		ProbeKeys: []int{j.OuterKey()},
		SetBuildColHook: func(f func(*data.ColBatch)) {
			j.OnInnerCol = compose(j.OnInnerCol, f)
		},
	}}
	bottomStream := outerSort.Children()[0]
	pe, err := NewPipelineEstimatorHist(links, func() float64 {
		return StreamSizeEstimate(bottomStream)
	}, a.opts.Histograms)
	if err != nil {
		return false
	}
	sortInputHooks(pe, outerSort)
	a.record(pe, []exec.Operator{j})
	return true
}

// multFor maps a join type to its estimator multiplicity transform.
func multFor(t exec.JoinType) func(int64) float64 {
	switch t {
	case exec.SemiJoin:
		return MultSemi
	case exec.AntiJoin:
		return MultAnti
	case exec.ProbeOuterJoin:
		return MultProbeOuter
	default:
		return nil
	}
}

func joinsToOps(joins []*exec.HashJoin) []exec.Operator {
	ops := make([]exec.Operator, len(joins))
	for i, j := range joins {
		ops[i] = j
	}
	return ops
}

// attachAgg wires distinct-value estimation for one aggregation whose
// input operator is input. setEndHook installs an observer of the end of
// the aggregation's blocking input pass. A hash aggregation passes
// setCountsHook, which installs an observer of the group-count spans its
// own hash table computes; a sort aggregation passes setSpanHook, which
// installs an observer of its sort's input batches. An aggregation
// without GROUP BY has one group by definition (the optimizer's estimate
// is exact) and gets no estimator.
func (a *Attachment) attachAgg(agg exec.Operator, input exec.Operator, groupBy []int,
	setEndHook func(func()), setCountsHook func(func([]int64)), setSpanHook func(func(*data.ColBatch))) {
	if len(groupBy) == 0 {
		return
	}

	// Push-down opportunity: single grouping column over a join chain,
	// grouping by an attribute that originates from the chain's bottom
	// stream (the same-attribute case of §4.2 and its chain
	// generalization). The chain estimator must already exist — visit
	// order is parent-first, so attach the join chain now if needed.
	if len(groupBy) == 1 {
		if j, ok := input.(*exec.HashJoin); ok {
			if a.ChainOf[j] == nil {
				a.attachHashChain(j)
			}
			pe := a.ChainOf[j]
			if pe != nil && a.LevelOf[j] == 0 {
				if col, ok := pe.ResolveToBottom(groupBy[0]); ok {
					hist := pe.EnableOutputDistribution(col)
					est := newPushdownAggEstimator(agg, hist, func() float64 {
						return pe.Estimate(0)
					})
					pe.OnProbeObserved = compose(pe.OnProbeObserved, func(int64) {
						est.pushdownTick()
					})
					a.Aggs[agg] = est
					return
				}
			}
		}
	}

	// Tracker mode: ride the hash aggregation's own group table.
	if setCountsHook != nil {
		est := newTrackerAggEstimator(agg, func() float64 {
			return StreamSizeEstimate(input)
		})
		setCountsHook(est.ObserveGroupCounts)
		setEndHook(est.MarkInputEnd)
		a.Aggs[agg] = est
		return
	}

	// Stream mode: hash the group keys ourselves (sort aggregation).
	est := newStreamAggEstimator(agg, func() float64 {
		return StreamSizeEstimate(input)
	})
	var key []byte
	setSpanHook(func(cb *data.ColBatch) {
		cb.EachLive(func(i int) {
			est.ObserveInput(exec.GroupKeyAt(cb, groupBy, i, &key))
		})
	})
	setEndHook(est.MarkInputEnd)
	a.Aggs[agg] = est
}

// StreamSizeEstimate returns the best current belief about the total
// number of tuples an operator will emit: exact for scans, the operator's
// refined estimate when one exists, and the dne extrapolation for
// streaming operators like selections (§4.3).
func StreamSizeEstimate(op exec.Operator) float64 {
	switch o := op.(type) {
	case *exec.Scan:
		return float64(o.Stats().InputTotal)
	case *exec.Filter:
		return DNEEstimate(o, o.Stats().Estimate())
	case *exec.Project, *exec.Limit:
		if op.Stats().IsDone() {
			return float64(op.Stats().Emitted.Load())
		}
		return StreamSizeEstimate(op.Children()[0])
	default:
		return op.Stats().Total()
	}
}

// compose chains two one-argument hooks (either may be nil).
func compose[T any](prev, next func(T)) func(T) {
	if prev == nil {
		return next
	}
	if next == nil {
		return prev
	}
	return func(v T) {
		prev(v)
		next(v)
	}
}

// compose0 chains two niladic hooks.
func compose0(prev, next func()) func() {
	if prev == nil {
		return next
	}
	if next == nil {
		return prev
	}
	return func() {
		prev()
		next()
	}
}

// SetTracer routes every attached estimator's refinement events into tr
// (nil disables). Call it after Attach and before execution starts; it
// caches operator labels so publish boundaries stay allocation-free.
func (a *Attachment) SetTracer(tr *obs.Tracer) {
	for _, pe := range a.Chains {
		pe.SetTracer(tr)
	}
	for _, ae := range a.Aggs {
		ae.SetTracer(tr)
	}
	for _, e := range a.Ineq {
		e.SetTracer(tr)
	}
	for _, e := range a.Disjunct {
		e.SetTracer(tr)
	}
}

// Recomputes totals the estimator recomputations across every attached
// estimator: chain/inequality/disjunctive republishes plus the distinct-
// value choosers' MLE recomputations (Algorithm 3).
func (a *Attachment) Recomputes() int64 {
	var n int64
	for _, pe := range a.Chains {
		n += pe.Recomputes()
	}
	for _, ae := range a.Aggs {
		n += ae.Recomputes()
	}
	for _, e := range a.Ineq {
		n += e.Recomputes()
	}
	for _, e := range a.Disjunct {
		n += e.Recomputes()
	}
	return n + a.MLERecomputes()
}

// MLERecomputes totals the distinct-value MLE recomputations (Algorithm
// 3) of the aggregation estimators' choosers and trackers: the share of
// Recomputes the GROUP BY estimation spends in the MLE.
func (a *Attachment) MLERecomputes() int64 {
	var n int64
	for _, ae := range a.Aggs {
		if c := ae.Chooser(); c != nil {
			n += c.Recomputes()
		}
		if t := ae.Tracker(); t != nil {
			n += t.Recomputes()
		}
	}
	return n
}

// HistogramProbes totals the histogram lookups Algorithm 1 specifies for
// the chain estimators' probe passes so far — a logical count, the same
// on the tuple and columnar routes (see PipelineEstimator.HistogramProbes;
// refreshed at publish boundaries).
func (a *Attachment) HistogramProbes() int64 {
	var n int64
	for _, pe := range a.Chains {
		n += pe.HistogramProbes()
	}
	return n
}

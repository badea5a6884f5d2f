package core

import (
	"qpi/internal/data"
	"qpi/internal/exec"
)

// The per-tuple reference of the span observers (colhooks.go, disjunct.go):
// Algorithm 1's build and probe updates and the disjunctive estimator's
// inner and outer updates, one tuple at a time, keys read with
// exec.JoinKeyOf. Every float operation happens here in the order the
// paper's formulas give; the span observers must leave the estimators in
// exactly (==) the state this code leaves them in over the same rows.

// replayRows observes a batch the way the reference does: its live rows
// in selection order, one tuple at a time.
func replayRows(f func(data.Tuple)) func(*data.ColBatch) {
	return func(cb *data.ColBatch) {
		for _, t := range cb.ToTuples(nil) {
			f(t)
		}
	}
}

// observeBuild counts one build tuple of relation j into every histogram
// its build pass feeds.
func (p *PipelineEstimator) observeBuild(j int, tu data.Tuple) {
	key := exec.JoinKeyOf(tu, p.links[j].BuildKeys)
	for _, u := range p.updateTargets(j) {
		p.hists[u.level][j].AddN(key, p.buildWeight(tu, j, u.level))
	}
}

// buildWeight computes the fold weight of one build tuple of relation j
// for the histogram at the given level: the product over all folded-in
// joins at or above that level of their (Mult-transformed) match counts.
func (p *PipelineEstimator) buildWeight(tu data.Tuple, j, level int) int64 {
	w := int64(1)
	for _, f := range p.folds[j] {
		if f.join >= level {
			n := p.hists[level][f.join].Count(exec.JoinKeyOf(tu, f.cols))
			if m := p.links[f.join].Mult; m != nil {
				w *= int64(m(n))
			} else {
				w *= n
			}
		}
	}
	return w
}

// ObserveProbe processes one bottom-stream tuple, refreshing every join's
// estimate, and stores the estimates into the joins' Stats with source
// "once" every publish interval.
func (p *PipelineEstimator) ObserveProbe(c data.Tuple) {
	p.t++
	for k := 0; k < p.m; k++ {
		delta := p.probeDelta(c, k)
		p.sums[k] += delta
		p.sumSqs[k] += delta * delta
		if k == 0 && p.outDistHist != nil {
			p.outDistHist.AddN(c[p.outDistCol], int64(delta))
		}
	}
	if p.t%p.publishEvery == 0 {
		p.publish()
	}
	if p.OnProbeObserved != nil {
		p.OnProbeObserved(p.t)
	}
}

// probeDelta computes out_k(c): the contribution of one bottom-stream
// tuple to join level k's estimate.
func (p *PipelineEstimator) probeDelta(c data.Tuple, k int) float64 {
	delta := 1.0
	for j := k; j < p.m; j++ {
		if p.srcs[j].fromBottom {
			n := p.hists[k][j].Count(exec.JoinKeyOf(c, p.srcs[j].cols))
			if m := p.links[j].Mult; m != nil {
				delta *= m(n)
			} else {
				delta *= float64(n)
			}
		}
	}
	return delta
}

// observeInnerRow records one inner tuple across all subset histograms.
func (e *DisjunctiveEstimator) observeInnerRow(t data.Tuple) {
	for i, h := range e.hists {
		h.Add(exec.JoinKeyOf(t, e.innerKeys[i]))
	}
}

// observeOuterRow processes one outer tuple during the sort input pass.
func (e *DisjunctiveEstimator) observeOuterRow(t data.Tuple) {
	count := 0.0
	for i, h := range e.hists {
		count += e.signs[i] * float64(h.Count(exec.JoinKeyOf(t, e.outerKeys[i])))
	}
	e.t++
	e.sum += count
	if e.t%64 == 0 {
		e.publish()
	}
}

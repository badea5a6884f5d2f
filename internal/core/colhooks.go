package core

import (
	"qpi/internal/data"
	"qpi/internal/exec"
)

// This file implements span-at-a-time estimator observation for every
// chain — hash joins, sort-merge joins and sorted-outer indexed
// nested-loops joins alike: the preprocessing passes deliver whole
// ColBatches at batch boundaries and the estimator walks the key lanes
// directly. The build hooks update the histograms in place (integer
// counts: any order gives the same state); the probe side runs Algorithm
// 1's push-down as a lane kernel (observeLanes), with a per-row loop over
// the lanes for chains it cannot take. Either way every float
// accumulation happens in exactly the order a per-tuple observer over the
// same batches would produce, so estimator state stays bit-identical to
// it (the reference lives in reference_test.go; a property
// TestColumnarBitIdenticalToTuple asserts).

// installColHooks attaches the span-at-a-time build observers: one
// callback per build-input ColBatch. The dominant single-integer-key,
// fold-free case updates the frequency histograms straight off the flat
// int64 key lane (FreqHistogram.ObserveColumn); relations with folds,
// composite keys, or non-integer key columns take a per-row loop in row
// order that reads each key off the lanes (exec.JoinKeyAt) — histogram
// state is identical to per-row observation either way, because integer
// count increments commute and the loop preserves the exact row order.
func (p *PipelineEstimator) installColHooks() {
	for j := 0; j < p.m; j++ {
		j := j
		updates := p.updateTargets(j)
		buildKeys := p.links[j].BuildKeys
		var fastHists []*FreqHistogram
		if len(buildKeys) == 1 && len(p.folds[j]) == 0 {
			for _, u := range updates {
				fh, ok := u.hist.(*FreqHistogram)
				if !ok {
					fastHists = nil
					break
				}
				fastHists = append(fastHists, fh)
			}
		}
		keyCol := buildKeys[0]
		p.links[j].SetBuildColHook(func(cb *data.ColBatch) {
			if fastHists != nil {
				if kv := intLane(cb, keyCol); kv != nil {
					for _, fh := range fastHists {
						fh.ObserveColumn(kv.Ints, cb.Sel, kv.Nulls)
					}
					return
				}
			}
			cb.EachLive(func(i int) {
				key := exec.JoinKeyAt(cb, buildKeys, i, &p.keyRow)
				for _, u := range updates {
					p.hists[u.level][j].AddN(key, p.buildWeightAt(cb, i, j, u.level))
				}
			})
		})
	}
}

// ObserveProbeCol processes one bottom-stream ColBatch, refreshing every
// join's estimate, and stores the estimates into the joins' Stats with
// source "once" every publish interval. It is invoked once per batch by
// the bottom join's probe partition pass or the bottom sort's input
// pass. Publishing, output-distribution accumulation and the
// OnProbeObserved callback happen per row, exactly where a per-tuple
// observer would do them. Chains whose probe keys are all single integer
// columns of the bottom stream run the lane kernel; any other chain (or
// batch) is observed row by row.
func (p *PipelineEstimator) ObserveProbeCol(cb *data.ColBatch) {
	if p.observeLanes(cb) {
		return
	}
	cb.EachLive(func(i int) { p.observeRow(cb, i) })
}

// observeRow is Algorithm 1's probe-side update for row i of cb: out_k(c)
// for every level k, folded into the level's running moments.
func (p *PipelineEstimator) observeRow(cb *data.ColBatch, i int) {
	p.t++
	for k := 0; k < p.m; k++ {
		delta := p.probeDeltaAt(cb, i, k)
		p.sums[k] += delta
		p.sumSqs[k] += delta * delta
		if k == 0 && p.outDistHist != nil {
			p.outDistHist.AddN(cb.Value(p.outDistCol, i), int64(delta))
		}
	}
	if p.t%p.publishEvery == 0 {
		p.publish()
	}
	if p.OnProbeObserved != nil {
		p.OnProbeObserved(p.t)
	}
}

// probeDeltaAt computes out_k(c) for row i of cb: the contribution of one
// bottom-stream tuple to join level k's estimate.
func (p *PipelineEstimator) probeDeltaAt(cb *data.ColBatch, i, k int) float64 {
	delta := 1.0
	for j := k; j < p.m; j++ {
		if p.srcs[j].fromBottom {
			n := p.hists[k][j].Count(exec.JoinKeyAt(cb, p.srcs[j].cols, i, &p.keyRow))
			if m := p.links[j].Mult; m != nil {
				delta *= m(n)
			} else {
				delta *= float64(n)
			}
		}
	}
	return delta
}

// laneChunk is how many live rows the lane kernel takes at a time: its
// scratch, one counts lane per link, stays at half a KB per link however
// long the batch.
const laneChunk = 64

// laneLink is one link of a lane-eligible chain: the histogram its key is
// counted in, the bottom-stream column the key is read from, and the
// link's multiplicity transform.
type laneLink struct {
	hist *FreqHistogram
	col  int
	mult func(n int64) float64
}

// planLanes decides whether the chain's probe side can run over key
// lanes: every probe key must be one column of the bottom stream (Case 1
// and same-attribute links; a Case 2 key lives in a build relation) and
// every histogram exact. No relation then has folds, so M[k][j] is the
// one histogram N^{R_j} at every level k ≤ j and a link needs one counts
// lane whichever level reads it.
func (p *PipelineEstimator) planLanes() {
	links := make([]laneLink, p.m)
	for j := range links {
		fh, ok := p.hists[j][j].(*FreqHistogram)
		if !ok || !p.srcs[j].fromBottom || len(p.srcs[j].cols) != 1 {
			return
		}
		links[j] = laneLink{fh, p.srcs[j].cols[0], p.links[j].Mult}
	}
	p.laneLinks = links
}

// intLane returns column c of cb when it is a flat integer lane.
func intLane(cb *data.ColBatch, c int) *data.ColVec {
	if kv := cb.Col(c); kv.Homogeneous() && kv.Kind == data.KindInt {
		return kv
	}
	return nil
}

// liveRow maps the r-th live row of cb to its row index.
func liveRow(cb *data.ColBatch, r int) int {
	if cb.Sel != nil {
		return int(cb.Sel[r])
	}
	return r
}

// gather writes the link's per-tuple factor for live rows [lo, hi) of cb
// into out: the Mult-transformed count of the row's key, a NULL key
// counting 0 as Count over a NULL join key does. keys and counts are
// laneChunk-long scratch lanes.
func (l *laneLink) gather(cb *data.ColBatch, lo, hi int, out []float64, keys, counts []int64) {
	kv := cb.Col(l.col)
	n := hi - lo
	ks := keys[:n]
	if cb.Sel == nil {
		ks = kv.Ints[lo:hi]
	} else {
		for r, i := range cb.Sel[lo:hi] {
			ks[r] = kv.Ints[i]
		}
	}
	cs := counts[:n]
	l.hist.CountInts(ks, cs)
	if len(kv.Nulls) != 0 {
		for r := range cs {
			if kv.Nulls.Get(liveRow(cb, lo+r)) {
				cs[r] = 0
			}
		}
	}
	out = out[:n]
	if l.mult != nil {
		for r, c := range cs {
			out[r] = l.mult(c)
		}
		return
	}
	for r, c := range cs {
		out[r] = float64(c)
	}
}

// observeLanes is Algorithm 1's probe-side update a span at a time: per
// chunk of live rows one CountInts gather per link into a counts lane,
// then per level k the lanes multiply in probeDeltaAt's j-ascending order
// into a delta lane, which folds into sums[k]/sumSqs[k] row by row. A
// level's moments depend on no other level's, so these are observeRow's
// float operations in its order. A span ends wherever observeRow would
// publish or fire OnProbeObserved, so both see the state they would
// have. It reports false, having changed nothing, when the
// chain or this batch's key columns are not lane-eligible.
func (p *PipelineEstimator) observeLanes(cb *data.ColBatch) bool {
	if p.laneLinks == nil {
		return false
	}
	for _, l := range p.laneLinks {
		if intLane(cb, l.col) == nil {
			return false
		}
	}
	var group *data.ColVec
	if p.outDistHist != nil {
		if group = intLane(cb, p.outDistCol); group == nil {
			return false
		}
	}
	if p.lanes == nil {
		flat := make([]float64, p.m*laneChunk)
		for j := 0; j < p.m; j++ {
			p.lanes = append(p.lanes, flat[j*laneChunk:(j+1)*laneChunk])
		}
		p.keyLane = make([]int64, 2*laneChunk)
	}
	keys, counts := p.keyLane[:laneChunk], p.keyLane[laneChunk:]
	for lo, live := 0, cb.Live(); lo < live; lo += laneChunk {
		n := min(laneChunk, live-lo)
		for j := range p.laneLinks {
			p.laneLinks[j].gather(cb, lo, lo+n, p.lanes[j], keys, counts)
		}
		for a := 0; a < n; {
			b := n
			if p.OnProbeObserved != nil {
				b = a + 1
			} else if left := p.publishEvery - p.t%p.publishEvery; left < int64(b-a) {
				b = a + int(left)
			}
			// Level k reads lanes k..m-1 and no later level reads lane k,
			// so lane k becomes level k's delta lane in place.
			for k, lane := range p.lanes {
				delta := lane[a:b]
				for _, below := range p.lanes[k+1:] {
					for r, x := range below[a:b] {
						delta[r] *= x
					}
				}
				sum, sumSq := p.sums[k], p.sumSqs[k]
				for _, d := range delta {
					sum += d
					sumSq += d * d
				}
				p.sums[k], p.sumSqs[k] = sum, sumSq
				if k == 0 && group != nil {
					for r, d := range delta {
						if i := liveRow(cb, lo+a+r); !group.Nulls.Get(i) {
							p.outDistHist.AddN(data.Int(group.Ints[i]), int64(d))
						}
					}
				}
			}
			p.t += int64(b - a)
			if p.t%p.publishEvery == 0 {
				p.publish()
			}
			if p.OnProbeObserved != nil {
				p.OnProbeObserved(p.t)
			}
			a = b
		}
	}
	return true
}

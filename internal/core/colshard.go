package core

import (
	"qpi/internal/data"
	"qpi/internal/exec"
)

// This file is the sharded columnar attachment mode of the pipeline
// estimator, backing the executor's morsel-driven columnar partition
// passes: the span-at-a-time observation of colhooks.go, sharded per
// worker. Under a morselized columnar pass K scan workers deliver
// ColBatches concurrently, so the estimator gives every worker a private
// shard — per-relation frequency-histogram shards for the build passes,
// probeShard moment shards for the bottom probe pass — and walks the flat
// key lanes inside the shard. Shards merge single-threaded at the pass
// barriers (the build-end hook, FinishProbe on probe end), which the
// executor fires on the coordinating goroutine after its workers have
// joined.
//
// Correctness of lock-free shard updates rests on the chain's execution
// order: relation R_0 is built first, then R_1, ..., R_{m-1}, then the
// bottom stream C is observed. A build-pass worker for relation j folds
// in histogram counts only of relations f.join < j — all fully built and
// merged at earlier barriers — and a probe-pass worker reads only the
// finished build histograms. Every mutation goes to worker-private state.
// The §4.1.1 convergence guarantee is preserved: after the probe-end
// merge the estimator has observed exactly the same multiset of tuples as
// the serial mode, so MarkConverged publishes the same exact
// cardinalities.
//
// Bit-identical to serial: every histogram mutation is an integer AddN
// into a private FreqHistogram shard, merged in fixed worker order
// (counts commute); probe moment deltas are integer-valued float64 sums
// accumulated per shard and folded at the barrier (exact below 2^53,
// order-independent). Estimates publish only at barriers (the serial
// modes publish every publishEvery probe tuples): Stats writes stay on
// the coordinator, never on workers.

// probeShard is one worker's private share of the probe-pass state.
type probeShard struct {
	probeAcc
	outDist *FreqHistogram
}

// ColShardAttached reports whether the estimator observes its chain
// through worker-indexed columnar span hooks.
func (p *PipelineEstimator) ColShardAttached() bool { return p.colShardInstalled }

// installColShardHooks wires the sharded span-at-a-time build observers
// for a morselized columnar chain. Per relation j, each of the pass's
// workers gets one FreqHistogram shard per distinct update target; the
// dominant single-integer-key, fold-free case observes the flat int64
// key lane straight into the worker's shard, and the barrier hook merges
// shards into the shared derived histograms in worker order.
func (p *PipelineEstimator) installColShardHooks() {
	p.colShardInstalled = true
	for j := 0; j < p.m; j++ {
		j := j
		updates := p.updateTargets(j)
		buildKeys := p.links[j].BuildKeys
		// Unlike the serial columnar fast path, shard targets are always
		// FreqHistograms regardless of the shared histogram implementation,
		// so lane observation only needs a single key and no folds.
		laneFast := len(buildKeys) == 1 && len(p.folds[j]) == 0
		keyCol := buildKeys[0]
		shards := make([][]*FreqHistogram, p.links[j].Workers)
		for w := range shards {
			shards[w] = make([]*FreqHistogram, len(updates))
			for u := range shards[w] {
				shards[w][u] = NewFreqHistogram()
			}
		}
		p.links[j].SetBuildColBatchHook(func(worker int, cb *data.ColBatch) {
			sh := shards[worker]
			if laneFast {
				if kv := intLane(cb, keyCol); kv != nil {
					for _, fh := range sh {
						fh.ObserveColumn(kv.Ints, cb.Sel, kv.Nulls)
					}
					return
				}
			}
			rows := cb.MaterializeRows()
			observe := func(i int) {
				key := exec.JoinKeyOf(rows[i], buildKeys)
				for ui, u := range updates {
					sh[ui].AddN(key, p.buildWeight(rows[i], j, u.level))
				}
			}
			if cb.Sel == nil {
				for i := 0; i < cb.NRows; i++ {
					observe(i)
				}
			} else {
				for _, i := range cb.Sel {
					observe(int(i))
				}
			}
		})
		p.links[j].SetBuildEndHook(func() {
			for _, sh := range shards {
				for ui, u := range updates {
					dst := p.hists[u.level][j]
					sh[ui].Each(func(v data.Value, n int64) bool {
						dst.AddN(v, n)
						return true
					})
				}
			}
		})
	}
	p.probeShards = make([]probeShard, p.links[p.m-1].Workers)
	for i := range p.probeShards {
		p.probeShards[i].probeAcc = newProbeAcc(p.m)
	}
}

// ObserveProbeColShard processes one bottom-stream ColBatch on behalf of
// worker w — the sharded form of ObserveProbeCol, invoked lock-free by
// the owning scan worker of a morselized probe pass: the same lane kernel
// or per-row fallback, into the worker's shard. No estimate is published
// and OnProbeObserved does not fire until FinishProbe merges the shards
// at the pass barrier.
func (p *PipelineEstimator) ObserveProbeColShard(w int, cb *data.ColBatch) {
	sh := &p.probeShards[w]
	if p.outDistHist != nil && sh.outDist == nil {
		sh.outDist = NewFreqHistogram()
	}
	p.observeBatch(&sh.probeAcc, sh.outDist, cb, false)
}

// FinishProbe merges the per-worker probe shards and freezes the
// estimator — the sharded mode's MarkConverged, composed onto the bottom
// join's OnProbeEnd. It runs on the execution goroutine after the pass
// barrier.
func (p *PipelineEstimator) FinishProbe() {
	for i := range p.probeShards {
		sh := &p.probeShards[i]
		p.t += sh.t
		for k := 0; k < p.m; k++ {
			p.sums[k] += sh.sums[k]
			p.sumSqs[k] += sh.sumSqs[k]
		}
		if sh.outDist != nil && p.outDistHist != nil {
			sh.outDist.Each(func(v data.Value, n int64) bool {
				p.outDistHist.AddN(v, n)
				return true
			})
		}
	}
	p.probeShards = nil
	if p.OnProbeObserved != nil {
		p.OnProbeObserved(p.t)
	}
	p.MarkConverged()
	for _, f := range p.afterConverge {
		f()
	}
}

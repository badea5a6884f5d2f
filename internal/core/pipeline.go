package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"qpi/internal/data"
	"qpi/internal/exec"
	"qpi/internal/obs"
)

// This file implements the paper's Algorithm 1 (§4.1.4): push-down
// cardinality estimation for a pipeline containing a chain of joins.
//
// Terminology: the chain has m joins, level 0 at the top. Join k has a
// build relation R_k (its build input stream) and its probe input is the
// output of join k+1; the bottom join's (level m-1) probe input is the
// stream C that drives the pipeline. Execution builds R_0 first, then
// R_1, ..., R_{m-1}, then streams C — which is exactly the order the
// derived histograms need.
//
// For every join k we want out_k(c), the number of join-k output tuples
// attributable to a single C tuple c, so that after observing t of |C|
// tuples the estimate is D_k = |C|/t · Σ_c out_k(c). The key value that
// join k matches on (its probe key) originates either from C itself
// ("Case 1" / same-attribute) or from some deeper build relation R_j, j>k
// ("Case 2"). We therefore maintain per (level k, relation j) histograms
//
//	M[k][j][v] = Σ_{b ∈ R_j, b.buildKey = v}  Π_{u ∈ folds(j), u ≥ k} M[k][u][b.col_u]
//
// where folds(j) is the set of joins whose probe key originates from
// R_j. M[k][j] is exactly the paper's derived histogram: with no folds it
// degenerates to the plain frequency histogram N^{R_j}, and for the
// paper's two-join Case 2 it is the "distribution of x in A ⋈_y B". Then
//
//	out_k(c) = Π_{j ≥ k, source(j) = C} M[k][j][c.col_j].
//
// Histograms that would be identical across levels are shared, so the
// paper's experiments (chains of two joins) build at most one extra
// histogram per relation.

// ChainLink describes one join of a pipeline chain to the estimator,
// abstracting over the physical join (hash join build pass, or the sort
// pass of a sort-merge join on the same attribute).
type ChainLink struct {
	// Join is the join operator whose Stats receive the estimates.
	Join exec.Operator
	// Out is the join's output map: which build-input and probe-input
	// columns its output holds, build first. A hash join reports its own
	// (narrowed by exec.Prune); merge and nested-loops joins emit the
	// whole build ⧺ probe (exec.FullOutMap).
	Out exec.OutMap
	// BuildKeys are the join column indexes in the build input's schema
	// (several for conjunctive multi-attribute conditions, §4.1).
	BuildKeys []int
	// ProbeKeys are the join column indexes in the probe input's schema.
	ProbeKeys []int
	// SetBuildHook installs f to run for every build-input tuple during
	// the join's preprocessing pass.
	SetBuildHook func(f func(data.Tuple))
	// SetBuildColHook installs f to run once per build-input ColBatch
	// during a columnar preprocessing pass, at batch boundaries. Nil when
	// the physical operator has no columnar pass.
	SetBuildColHook func(f func(cb *data.ColBatch))
	// Columnar reports that the physical operator runs the columnar
	// partition passes. When every link of a chain is columnar, the
	// estimator observes spans at batch boundaries (see colhooks.go)
	// instead of installing per-tuple hooks.
	Columnar bool
	// Mult transforms the matched build count N into the number of output
	// tuples per probe tuple (§4.1.1's note on semijoins and outerjoins):
	// nil means the inner-join identity; semi joins use 1 if N>0, anti
	// joins 1 if N==0, probe-preserving outer joins max(N, 1). Only
	// meaningful for links whose probe key comes from the bottom stream.
	Mult func(n int64) float64
}

// Multiplicity transforms for the non-inner join types.
var (
	// MultSemi counts one output per probe tuple with a match.
	MultSemi = func(n int64) float64 {
		if n > 0 {
			return 1
		}
		return 0
	}
	// MultAnti counts one output per probe tuple without a match.
	MultAnti = func(n int64) float64 {
		if n == 0 {
			return 1
		}
		return 0
	}
	// MultProbeOuter preserves unmatched probe tuples.
	MultProbeOuter = func(n int64) float64 {
		if n == 0 {
			return 1
		}
		return float64(n)
	}
)

// PipelineEstimator refines the cardinality estimates of every join in a
// chain while the bottom probe stream is being partitioned/sorted.
type PipelineEstimator struct {
	links []ChainLink
	m     int

	srcs  []keySource // provenance of each join's probe key
	folds [][]foldRef // folds[j]: joins keyed off relation j

	hists [][]Histogram // hists[k][j], shared where identical

	histFactory HistogramFactory

	probeTotal func() float64 // live estimate of |C|

	// The probe pass's running state: the bottom-stream tuples seen and,
	// per level, the first two moments of out_k(c).
	t       int64
	sums    []float64
	sumSqs  []float64
	lanes   [][]float64 // lane kernel scratch, allocated on first use
	keyLane []int64     // the gather's key and count scratch, likewise
	frozen  bool

	// laneLinks is set when the probe side can be observed a span at a
	// time over key lanes (see colhooks.go); nil keeps the row fallback.
	laneLinks []laneLink

	// publishEvery controls how often (in probe tuples) the estimates are
	// copied into the joins' Stats; estimates themselves update on every
	// tuple and can always be read with Estimate.
	publishEvery int64

	// OnProbeObserved, if set, fires after each probe tuple has updated
	// the estimates (used by the experiment harness to sample
	// trajectories).
	OnProbeObserved func(t int64)

	// OnConverged, if set, fires exactly once when the estimator freezes
	// (the bottom probe stream has been fully observed and every estimate
	// is exact). It runs on the goroutine ending the pass, after the final
	// publish, so the joins' Stats already carry the once-exact values.
	// The mid-query re-optimizer uses it as its convergence trigger.
	OnConverged func()

	// Output-distribution accumulation for aggregation push-down (§4.2
	// end): when enabled, every probe tuple c adds out_0(c) observations
	// of c[outDistCol] to outDistHist — the estimated frequency
	// distribution of the top join's output on that column.
	outDistCol  int
	outDistHist *FreqHistogram

	// colInstalled reports that build observation runs through
	// span-at-a-time ColBatch hooks and probe observation through
	// ObserveProbeCol — see colhooks.go.
	colInstalled bool

	// Observability (see internal/obs): the tracer receives one
	// EstimateRefined event per level at every publish boundary plus
	// SourceTransition events on optimizer→once→once-exact; counters are
	// refreshed at the same boundaries so tracing never touches the
	// per-tuple path. trLabels caches the joins' Name() strings.
	tr             *obs.Tracer
	trLabels       []string
	lastSrc        string
	probesPerTuple int64 // histogram lookups Algorithm 1 specifies per probe tuple
	recomputes     atomic.Int64
	histProbes     atomic.Int64
}

// keySource locates the origin of a join's probe key. For multi-column
// keys every column must originate in the same place; mixed provenance
// makes the chain product decomposition impossible and the join falls
// back to a single-link estimator.
type keySource struct {
	fromBottom bool
	rel        int   // relation level j (when !fromBottom)
	cols       []int // column indexes in C's schema or R_j's schema
}

type foldRef struct {
	join int   // join level u keyed off this relation
	cols []int // column indexes in the relation's schema
}

// NewPipelineEstimator wires estimation for a chain of joins. links runs
// from the top join (index 0) to the bottom join; probeTotal must return
// the current best estimate of the bottom probe stream size |C| (exact
// for scans, dne-refined for filtered streams).
//
// Callers must additionally feed the bottom probe stream to ObserveProbe
// (from the bottom join's probe partition pass or the bottom sort's input
// pass) and call MarkConverged when that stream ends.
func NewPipelineEstimator(links []ChainLink, probeTotal func() float64) (*PipelineEstimator, error) {
	m := len(links)
	if m == 0 {
		return nil, fmt.Errorf("core: pipeline estimator needs at least one join")
	}
	return NewPipelineEstimatorHist(links, probeTotal, ExactHistograms)
}

// NewPipelineEstimatorHist is NewPipelineEstimator with a custom histogram
// factory, e.g. ApproximateHistograms(n) for the bounded-memory variant
// (the approximation trade-off of §6). With approximate histograms the
// converged estimates upper-bound rather than equal the true sizes.
func NewPipelineEstimatorHist(links []ChainLink, probeTotal func() float64, factory HistogramFactory) (*PipelineEstimator, error) {
	m := len(links)
	if m == 0 {
		return nil, fmt.Errorf("core: pipeline estimator needs at least one join")
	}
	p := &PipelineEstimator{
		links:        links,
		m:            m,
		probeTotal:   probeTotal,
		sums:         make([]float64, m),
		sumSqs:       make([]float64, m),
		publishEvery: 64,
		histFactory:  factory,
	}
	if err := p.resolveProvenance(); err != nil {
		return nil, err
	}
	p.planHistograms()
	p.planLanes()
	p.installHooks()
	for k := 0; k < m; k++ {
		for j := k; j < m; j++ {
			if p.srcs[j].fromBottom {
				p.probesPerTuple++
			}
		}
	}
	return p, nil
}

// SetTracer routes estimator refinement events into tr (nil disables).
// Safe to call between Attach and execution; join labels are cached here
// so publish boundaries never re-render operator names.
func (p *PipelineEstimator) SetTracer(tr *obs.Tracer) {
	p.tr = tr
	if tr != nil && p.trLabels == nil {
		p.trLabels = make([]string, p.m)
		for k := range p.links {
			p.trLabels[k] = p.links[k].Join.Name()
		}
	}
}

// Recomputes returns how many times the estimator has republished its
// estimates into the joins' Stats.
func (p *PipelineEstimator) Recomputes() int64 { return p.recomputes.Load() }

// HistogramProbes returns the number of histogram lookups Algorithm 1
// specifies for the probe tuples observed so far — per tuple, one per
// (level, bottom-keyed link at or below it) — refreshed at publish
// boundaries. The count is logical: the lane kernel gathers once per
// link and the levels share the lane, so the tuple and columnar routes
// report the same number for the same input.
func (p *PipelineEstimator) HistogramProbes() int64 { return p.histProbes.Load() }

// resolveProvenance maps every join's probe key to a bottom-stream column
// or a build relation column, through the output maps of the joins below.
func (p *PipelineEstimator) resolveProvenance() error {
	p.srcs = make([]keySource, p.m)
	p.folds = make([][]foldRef, p.m)
	for k := 0; k < p.m; k++ {
		srcLevel := -2 // unset
		cols := make([]int, 0, len(p.links[k].ProbeKeys))
		for _, probeCol := range p.links[k].ProbeKeys {
			idx := probeCol
			level := k + 1
			for ; level < p.m; level++ {
				col, build := p.links[level].Out.Source(idx)
				idx = col
				if build {
					break
				}
			}
			lvl := level
			if level >= p.m {
				lvl = -1 // bottom stream
			}
			if srcLevel == -2 {
				srcLevel = lvl
			} else if srcLevel != lvl {
				return fmt.Errorf("core: join level %d: multi-column key spans different source relations", k)
			}
			cols = append(cols, idx)
		}
		if srcLevel == -1 {
			p.srcs[k] = keySource{fromBottom: true, cols: cols}
		} else {
			p.srcs[k] = keySource{rel: srcLevel, cols: cols}
			p.folds[srcLevel] = append(p.folds[srcLevel], foldRef{join: k, cols: cols})
		}
	}
	return nil
}

// planHistograms allocates M[k][j] for k ≤ j, sharing pointers between
// adjacent levels whose fold sets (transitively) coincide.
func (p *PipelineEstimator) planHistograms() {
	p.hists = make([][]Histogram, p.m)
	for k := range p.hists {
		p.hists[k] = make([]Histogram, p.m)
	}
	for j := 0; j < p.m; j++ {
		// Level j at relation j has no applicable folds (folds come from
		// strictly higher joins): the raw frequency histogram N^{R_j}, sized
		// up front for the build key's distinct count when the catalog
		// knows it (Stats.BuildKeysHint), and counted in a flat lane when
		// the catalog also bounds it to a dense range (Stats.BuildKeyRange).
		// Only iteration order depends on either, and no estimate does.
		p.hists[j][j] = p.histFactory()
		if fh, ok := p.hists[j][j].(*FreqHistogram); ok {
			st := p.links[j].Join.Stats()
			if r := st.BuildKeyRange; r.Known {
				fh.ReserveRange(int(st.BuildKeysHint), r.Lo, r.Hi)
			} else {
				fh.Reserve(int(st.BuildKeysHint))
			}
		}
		for k := j - 1; k >= 0; k-- {
			if p.levelsEqual(k, k+1, j) {
				p.hists[k][j] = p.hists[k+1][j]
			} else {
				p.hists[k][j] = p.histFactory()
			}
		}
	}
}

// levelsEqual reports whether M[k][j] and M[k2][j] would be identical
// (k = k2-1).
func (p *PipelineEstimator) levelsEqual(k, k2, j int) bool {
	for _, f := range p.folds[j] {
		if f.join == k {
			// Level k folds join k into relation j; level k2 does not.
			return false
		}
		if f.join > k {
			if p.hists[k][f.join] != p.hists[k2][f.join] {
				return false
			}
		}
	}
	return true
}

// histUpdate names one distinct histogram a relation's build pass must
// update, with the lowest level sharing it (folds depend on the level).
type histUpdate struct {
	hist  Histogram
	level int
}

// updateTargets deduplicates the histograms relation j's build pass feeds:
// shared levels collapse to one update at their lowest level.
func (p *PipelineEstimator) updateTargets(j int) []histUpdate {
	var updates []histUpdate
	seen := map[Histogram]bool{}
	for k := j; k >= 0; k-- {
		h := p.hists[k][j]
		if !seen[h] {
			seen[h] = true
			updates = append(updates, histUpdate{h, k})
		}
	}
	return updates
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

// installHooks attaches the build-pass observers: per-tuple hooks on the
// tuple path, span-at-a-time columnar hooks (colhooks.go) when every link
// is columnar.
func (p *PipelineEstimator) installHooks() {
	if p.chainColumnar() {
		p.installColHooks()
		return
	}
	for j := 0; j < p.m; j++ {
		j := j
		updates := p.updateTargets(j)
		buildKeys := p.links[j].BuildKeys
		p.links[j].SetBuildHook(func(tu data.Tuple) {
			key := exec.JoinKeyOf(tu, buildKeys)
			for _, u := range updates {
				p.hists[u.level][j].AddN(key, p.buildWeight(tu, j, u.level))
			}
		})
	}
}

// chainColumnar reports whether every link of the chain runs a columnar
// preprocessing pass (and therefore supports span observation).
func (p *PipelineEstimator) chainColumnar() bool {
	for _, l := range p.links {
		if !l.Columnar || l.SetBuildColHook == nil {
			return false
		}
	}
	return true
}

// ObserveProbe processes one bottom-stream tuple, refreshing every join's
// estimate, and stores the estimates into the joins' Stats with source
// "once".
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

// SetPublishInterval overrides how often (in probe tuples) estimates are
// copied into the joins' Stats (default 64).
func (p *PipelineEstimator) SetPublishInterval(n int64) {
	if n < 1 {
		n = 1
	}
	p.publishEvery = n
}

// publish writes the current estimates into the joins' Stats. It runs
// only on the execution goroutine, every publishEvery probe tuples,
// which is why the tracer emission and counter refresh live here and not
// on the per-tuple path.
func (p *PipelineEstimator) publish() {
	src := "once"
	if p.frozen {
		src = "once-exact"
	}
	p.recomputes.Add(1)
	p.histProbes.Store(p.t * p.probesPerTuple)
	for k := 0; k < p.m; k++ {
		est := p.Estimate(k)
		p.links[k].Join.Stats().SetEstimate(est, src)
		if p.tr != nil {
			if src != p.lastSrc {
				from := p.lastSrc
				if from == "" {
					from = "optimizer"
				}
				p.tr.Transition(p.trLabels[k], "pipeline", from, src, 0)
			}
			p.tr.Refine(p.trLabels[k], "pipeline", est, src)
		}
	}
	p.lastSrc = src
}

// Estimate returns the current cardinality estimate D_k for join level k
// (0 = top).
func (p *PipelineEstimator) Estimate(k int) float64 {
	if p.t == 0 {
		return p.links[k].Join.Stats().Estimate()
	}
	total := p.probeTotal()
	if p.frozen {
		total = float64(p.t)
	}
	return total * p.sums[k] / float64(p.t)
}

// ConfidenceInterval returns the two-sided α confidence interval for join
// level k from the running moments of the per-tuple contributions.
func (p *PipelineEstimator) ConfidenceInterval(k int, alpha float64) (lo, hi float64) {
	d := p.Estimate(k)
	if p.frozen || p.t < 2 {
		return d, d
	}
	t := float64(p.t)
	variance := (p.sumSqs[k] - p.sums[k]*p.sums[k]/t) / (t - 1)
	if variance < 0 {
		variance = 0
	}
	total := p.probeTotal()
	fpc := 1.0
	if total > 1 && t < total {
		fpc = (total - t) / (total - 1)
	}
	half := ZForConfidence(alpha) * total * sqrt(variance*fpc/t)
	lo, hi = d-half, d+half
	if lo < 0 {
		lo = 0
	}
	return lo, hi
}

// MarkConverged freezes the estimator when the bottom probe stream has
// been fully observed: all estimates are now exact.
func (p *PipelineEstimator) MarkConverged() {
	first := !p.frozen
	p.frozen = true
	p.publish()
	if first && p.OnConverged != nil {
		p.OnConverged()
	}
}

// Converged reports whether the bottom stream has been fully observed.
func (p *PipelineEstimator) Converged() bool { return p.frozen }

// ProbeTuplesSeen returns the number of bottom-stream tuples observed.
func (p *PipelineEstimator) ProbeTuplesSeen() int64 { return p.t }

// Levels returns the number of joins in the chain.
func (p *PipelineEstimator) Levels() int { return p.m }

// Links exposes the chain's links (index 0 = top join). Callers must
// treat the slice as read-only; the re-optimizer uses it to discover
// restructurable segments and their key wiring.
func (p *PipelineEstimator) Links() []ChainLink { return p.links }

// HasOutputDistribution reports whether aggregation push-down rides
// this chain (EnableOutputDistribution was called). Restructuring such
// a chain would orphan the push-down histogram's column binding, so
// the re-optimizer skips it.
func (p *PipelineEstimator) HasOutputDistribution() bool { return p.outDistHist != nil }

// BottomSourceCols returns the bottom-stream column indexes that join
// level k's probe key resolves to, or ok=false when the key originates
// from a deeper build relation instead.
func (p *PipelineEstimator) BottomSourceCols(k int) ([]int, bool) {
	if k < 0 || k >= p.m || !p.srcs[k].fromBottom {
		return nil, false
	}
	return p.srcs[k].cols, true
}

// Histogram exposes M[k][j] for inspection and aggregation push-down.
func (p *PipelineEstimator) Histogram(k, j int) Histogram { return p.hists[k][j] }

// EnableOutputDistribution starts accumulating the estimated frequency
// distribution of the top join's output on bottom-stream column col,
// returning the histogram (which fills as the probe pass advances). It
// backs the aggregation push-down of §4.2.
func (p *PipelineEstimator) EnableOutputDistribution(col int) *FreqHistogram {
	p.outDistCol = col
	// Track the frequency-of-frequencies profile incrementally: the
	// push-down aggregation estimator refreshes on publish boundaries, and
	// a rescan per refresh would be O(distinct) against this histogram's
	// O(1) per-update maintenance.
	p.outDistHist = NewFreqHistogram().TrackProfile()
	return p.outDistHist
}

// ResolveToBottom maps a column index of the top join's output schema to
// its bottom-stream column, returning ok=false when the column originates
// from a build relation instead (in which case push-down keyed on the
// bottom stream is impossible).
func (p *PipelineEstimator) ResolveToBottom(col int) (int, bool) {
	for level := 0; level < p.m; level++ {
		c, build := p.links[level].Out.Source(col)
		if build {
			return 0, false
		}
		col = c
	}
	return col, true
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

package core

import (
	"fmt"

	"qpi/internal/data"
	"qpi/internal/exec"
	"qpi/internal/sketch"
)

// This file rides join-key sketch construction on the grace-join
// partition passes the estimation framework already observes: every
// hash join's build pass and probe pass feed one ColumnSketch each,
// span-at-a-time where the pass is columnar — sketching costs one hash
// per key and no extra scan. The resulting single-table sketches merge into multi-join
// cardinality estimates through SketchSet.JoinSizeEstimate, which is
// what the mid-query re-optimizer consumes for pipelines whose inputs
// have already streamed past.

// SketchSet is the result of AttachSketches: the per-join key sketches,
// keyed by join operator.
type SketchSet struct {
	cfg   sketch.Config
	Joins map[*exec.HashJoin]*JoinSketches
}

// JoinSketches holds one hash join's two key-stream sketches. Build
// summarizes the build input's join-key column(s), Probe the probe
// input's. Each is complete once its partition pass has finished;
// reading one mid-pass sees a prefix of the stream, which is still a
// valid sketch of that prefix.
type JoinSketches struct {
	Build *sketch.ColumnSketch
	Probe *sketch.ColumnSketch
}

// AttachSketches wires sketch construction into every hash join under
// root with the default sketch family. Call it after Attach (hook
// composition preserves earlier observers) and before the plan opens.
func AttachSketches(root exec.Operator) *SketchSet {
	return AttachSketchesWith(root, sketch.DefaultConfig())
}

// AttachSketchesWith is AttachSketches with a custom sketch family.
func AttachSketchesWith(root exec.Operator, cfg sketch.Config) *SketchSet {
	s := &SketchSet{cfg: cfg, Joins: map[*exec.HashJoin]*JoinSketches{}}
	exec.Walk(root, func(op exec.Operator) {
		if j, ok := op.(*exec.HashJoin); ok {
			s.wire(j)
		}
	})
	return s
}

// Of returns the sketches riding join j, nil when j was not attached.
func (s *SketchSet) Of(j *exec.HashJoin) *JoinSketches { return s.Joins[j] }

// JoinSizeEstimate merges single-table key sketches into one multi-join
// cardinality estimate. joins lists one probe-linked chain segment
// bottom-up; the estimate is a cascade of pairwise Fast-AGMS dots: the
// bottom join's build×probe dot seeds the size, and every upper join
// scales it by that join's dot divided by its observed probe-stream row
// count (its per-stream-row output multiplicity). Each factor uses only
// the pairwise dot, which is the unbiased AGMS form — a single k-way
// dot under shared sign functions is biased toward zero for odd k,
// because the diagonal carries an odd sign power. Because each upper
// join's probe sketch summarizes the real joined stream, the cascade is
// exact when the pairwise dots are.
func (s *SketchSet) JoinSizeEstimate(joins ...*exec.HashJoin) (float64, error) {
	if len(joins) == 0 {
		return 0, fmt.Errorf("core: JoinSizeEstimate needs at least one join")
	}
	var est float64
	for i, j := range joins {
		js := s.Joins[j]
		if js == nil {
			return 0, fmt.Errorf("core: no sketches attached to %s", j.Name())
		}
		pair, err := sketch.JoinSizeEstimate(js.Probe.AGMS, js.Build.AGMS)
		if err != nil {
			return 0, err
		}
		if i == 0 {
			est = pair
			continue
		}
		if js.Probe.Rows == 0 {
			return 0, nil
		}
		est *= pair / float64(js.Probe.Rows)
	}
	return est, nil
}

// Rewire re-installs j's sketch hooks with fresh, empty sketches. The
// re-optimizer calls it after restructuring a segment: ResetObservers
// wipes every composed hook, sketch hooks included, and the joins are
// unstarted, so starting over loses nothing.
func (s *SketchSet) Rewire(j *exec.HashJoin) {
	delete(s.Joins, j)
	s.wire(j)
}

// wire mirrors hashLinkHooks' and wireHashProbe's dispatch: span hooks
// when the join's passes are columnar, tuple hooks otherwise. Exactly one
// hook kind is installed per pass, so keys are never double-counted.
func (s *SketchSet) wire(j *exec.HashJoin) {
	if s.Joins[j] != nil {
		return
	}
	js := &JoinSketches{
		Build: sketch.NewColumnSketch(s.cfg),
		Probe: sketch.NewColumnSketch(s.cfg),
	}
	s.Joins[j] = js
	buildKeys, probeKeys := j.BuildKeys(), j.ProbeKeys()
	if j.Columnar() {
		j.OnBuildCol = compose(j.OnBuildCol, func(cb *data.ColBatch) {
			observeColKey(js.Build, cb, buildKeys)
		})
		j.OnProbeCol = compose(j.OnProbeCol, func(cb *data.ColBatch) {
			observeColKey(js.Probe, cb, probeKeys)
		})
		return
	}
	j.OnBuildTuple = compose(j.OnBuildTuple, func(t data.Tuple) {
		observeTupleKey(js.Build, t, buildKeys)
	})
	j.OnProbeTuple = compose(j.OnProbeTuple, func(t data.Tuple) {
		observeTupleKey(js.Probe, t, probeKeys)
	})
}

// keyItem maps one tuple's join-key columns onto a sketch item,
// reporting ok=false when any key column is NULL (NULL keys never
// join). Composite keys fold the per-column kind-tagged items FNV-style
// so the composite item respects tuple-wise join equality.
func keyItem(t data.Tuple, cols []int) (uint64, bool) {
	if len(cols) == 1 {
		v := t[cols[0]]
		if v.IsNull() {
			return 0, false
		}
		return sketch.ValueItem(v), true
	}
	it := uint64(14695981039346656037)
	for _, c := range cols {
		v := t[c]
		if v.IsNull() {
			return 0, false
		}
		it = (it ^ sketch.ValueItem(v)) * 1099511628211
	}
	return it, true
}

func observeTupleKey(cs *sketch.ColumnSketch, t data.Tuple, cols []int) {
	if it, ok := keyItem(t, cols); ok {
		cs.ObserveItem(it)
	} else {
		cs.ObserveNull()
	}
}

// observeColKey sketches the key lane of one ColBatch: straight off the
// flat int64 lane for the dominant homogeneous-integer single-key case,
// via row materialization otherwise.
func observeColKey(cs *sketch.ColumnSketch, cb *data.ColBatch, cols []int) {
	if len(cols) == 1 {
		if kv := cb.Col(cols[0]); kv.Homogeneous() && kv.Kind == data.KindInt {
			observe := func(i int) {
				if kv.Nulls.Get(i) {
					cs.ObserveNull()
				} else {
					cs.ObserveInt(kv.Ints[i])
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
			return
		}
	}
	rows := cb.MaterializeRows()
	if cb.Sel == nil {
		for i := 0; i < cb.NRows; i++ {
			observeTupleKey(cs, rows[i], cols)
		}
	} else {
		for _, i := range cb.Sel {
			observeTupleKey(cs, rows[int(i)], cols)
		}
	}
}

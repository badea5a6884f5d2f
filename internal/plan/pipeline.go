// Package plan analyses physical operator trees: it decomposes them into
// pipelines (maximal sets of concurrently executing operators delimited by
// blocking operators, paper §3 / Figure 1) and computes textbook optimizer
// cardinality estimates (uniformity + independence assumptions) that seed
// the progress model before the online estimators refine them.
package plan

import (
	"fmt"
	"strings"

	"qpi/internal/exec"
)

// Pipeline is a maximal set of concurrently executing operators. Every
// operator belongs to exactly one pipeline: the one it emits tuples into.
// Blocking operators (sorts, aggregations) emit into their parent's
// pipeline and act as the sources of that pipeline; their inputs root new
// pipelines.
type Pipeline struct {
	ID   int
	Root exec.Operator
	Ops  []exec.Operator
	// Sources are the operators that feed tuples into this pipeline from
	// outside it: leaf scans and blocking operators' output sides. The
	// first source is the driver node in the sense of the dne estimator.
	Sources []exec.Operator
}

// Driver returns the pipeline's driver node (first source), or nil.
func (p *Pipeline) Driver() exec.Operator {
	if len(p.Sources) == 0 {
		return nil
	}
	return p.Sources[0]
}

// Contains reports whether op belongs to the pipeline.
func (p *Pipeline) Contains(op exec.Operator) bool {
	for _, o := range p.Ops {
		if o == op {
			return true
		}
	}
	return false
}

// Emitted returns C(p): the getnext() calls satisfied so far by the
// pipeline's operators.
func (p *Pipeline) Emitted() int64 {
	var c int64
	for _, o := range p.Ops {
		c += o.Stats().Emitted.Load()
	}
	return c
}

// EstimatedTotal returns T(p): the current estimate of the total
// getnext() calls over the pipeline's lifetime.
func (p *Pipeline) EstimatedTotal() float64 {
	var t float64
	for _, o := range p.Ops {
		t += o.Stats().Total()
	}
	return t
}

// Done reports whether every operator in the pipeline has finished.
func (p *Pipeline) Done() bool {
	for _, o := range p.Ops {
		if !o.Stats().IsDone() {
			return false
		}
	}
	return true
}

// Started reports whether any operator in the pipeline has produced output.
func (p *Pipeline) Started() bool {
	for _, o := range p.Ops {
		if o.Stats().Emitted.Load() > 0 || o.Stats().IsDone() {
			return true
		}
	}
	return false
}

// String renders the pipeline for diagnostics.
func (p *Pipeline) String() string {
	names := make([]string, len(p.Ops))
	for i, o := range p.Ops {
		names[i] = o.Name()
	}
	return fmt.Sprintf("P%d{%s}", p.ID, strings.Join(names, ", "))
}

// Decompose splits a plan into pipelines, root pipeline first, in
// depth-first discovery order.
func Decompose(root exec.Operator) []*Pipeline {
	d := &decomposer{}
	d.newPipeline(root)
	// Building a pipeline may enqueue further pipelines; the queue is
	// drained in discovery order.
	for i := 0; i < len(d.pipelines); i++ {
		d.build(d.pipelines[i], d.pending[i])
	}
	return d.pipelines
}

type decomposer struct {
	pipelines []*Pipeline
	pending   []exec.Operator // root operator of each pipeline, by index
}

func (d *decomposer) newPipeline(root exec.Operator) *Pipeline {
	p := &Pipeline{ID: len(d.pipelines), Root: root}
	d.pipelines = append(d.pipelines, p)
	d.pending = append(d.pending, root)
	return p
}

// build assigns op and its streaming descendants to p.
func (d *decomposer) build(p *Pipeline, op exec.Operator) {
	p.Ops = append(p.Ops, op)
	switch o := op.(type) {
	case *exec.Scan:
		p.Sources = append(p.Sources, o)
	case *exec.Filter, *exec.Project, *exec.Limit:
		d.build(p, op.Children()[0])
	case *exec.HashJoin:
		// The build input roots its own pipeline (it terminates at the
		// join's hash table); the probe input streams through the join.
		d.newPipeline(o.Build())
		d.build(p, o.Probe())
	case *exec.NestedLoopsJoin:
		// The inner input is materialized once (its own pipeline); the
		// outer streams.
		d.newPipeline(o.Inner())
		d.build(p, o.Outer())
	case *exec.MergeJoin:
		// Both inputs stream into the merge; sorts beneath (the usual
		// case) cut new pipelines via the *exec.Sort case.
		d.build(p, o.Left())
		d.build(p, o.Right())
	case *exec.Sort:
		// The sort's output side feeds this pipeline (it is a source);
		// its input pass is the lifetime of the child pipeline.
		p.Sources = append(p.Sources, o)
		d.newPipeline(op.Children()[0])
	case *exec.HashAgg:
		p.Sources = append(p.Sources, o)
		d.newPipeline(op.Children()[0])
	case *exec.SortAgg:
		p.Sources = append(p.Sources, o)
		d.newPipeline(op.Children()[0]) // the internal sort
	default:
		// Unknown leaves (e.g. disk scans) feed the pipeline; unknown
		// inner operators are treated as streaming.
		if len(op.Children()) == 0 {
			p.Sources = append(p.Sources, op)
			return
		}
		for _, c := range op.Children() {
			d.build(p, c)
		}
	}
}

// Explain renders the plan tree with estimates, one operator per line,
// each with its output width (cols), which pruning narrows.
func Explain(root exec.Operator) string {
	var b strings.Builder
	var rec func(op exec.Operator, depth int)
	rec = func(op exec.Operator, depth int) {
		st := op.Stats()
		fmt.Fprintf(&b, "%s%s  (est=%.0f cols=%d src=%s emitted=%d)\n",
			strings.Repeat("  ", depth), op.Name(), st.Estimate(), op.Schema().Len(), st.Source(), st.Emitted.Load())
		for _, c := range op.Children() {
			rec(c, depth+1)
		}
	}
	rec(root, 0)
	return b.String()
}

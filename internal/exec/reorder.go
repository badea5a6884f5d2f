package exec

import (
	"fmt"

	"qpi/internal/data"
)

// Reorder projects the columns of its input: output column i is child
// column Perm()[i]. It is the wrapper the mid-query re-optimizer inserts
// above a restructured join segment — the joins below it carry their
// honest (re-ordered, possibly side-swapped, full-width) schemas, and one
// Reorder puts back the columns, in the order, the rest of the plan was
// compiled against. Schema().Project preserves the full Column metadata
// (table qualifiers included), so name resolution above the wrapper is
// unaffected.
type Reorder struct {
	base
	child Operator
	perm  []int

	cchild ColOperator
	colOut data.ColBatch
}

// NewReorder creates a projection of child's columns. perm names each
// output column's child column; it need not cover every child column, but
// may name none twice.
func NewReorder(child Operator, perm []int) *Reorder {
	w := child.Schema().Len()
	seen := make([]bool, w)
	for _, p := range perm {
		if p < 0 || p >= w || seen[p] {
			panic(fmt.Sprintf("exec: NewReorder perm %v is not a projection of %d columns", perm, w))
		}
		seen[p] = true
	}
	r := &Reorder{child: child, perm: append([]int(nil), perm...)}
	r.schema = child.Schema().Project(r.perm)
	// Cardinality passes through 1:1; seed the belief from the child so
	// progress floors stay sane before the chain estimators re-attach.
	r.stats.SetEstimate(child.Stats().Total(), "optimizer")
	return r
}

// Perm returns the projection (output column i = child column Perm()[i]).
func (r *Reorder) Perm() []int { return r.perm }

// Name implements Operator.
func (r *Reorder) Name() string { return fmt.Sprintf("Reorder(%d)", len(r.perm)) }

// Children implements Operator.
func (r *Reorder) Children() []Operator { return []Operator{r.child} }

// Open implements Operator.
func (r *Reorder) Open() error { return r.child.Open() }

// Close implements Operator.
func (r *Reorder) Close() error { return r.child.Close() }

// Next implements Operator.
func (r *Reorder) Next() (data.Tuple, error) {
	t, err := r.child.Next()
	if err != nil {
		return nil, err
	}
	if t == nil {
		return r.finish()
	}
	out := make(data.Tuple, len(r.perm))
	for i, p := range r.perm {
		out[i] = t[p]
	}
	return r.emit(out)
}

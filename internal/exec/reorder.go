package exec

import (
	"fmt"

	"qpi/internal/data"
)

// Reorder permutes the columns of its input: output column i is child
// column Perm()[i]. It is the identity-restoring wrapper the mid-query
// re-optimizer inserts above a restructured join segment — the joins
// below it carry their honest (re-ordered, possibly side-swapped)
// schemas, and one Reorder puts the columns back in the order the rest
// of the plan was compiled against. Schema().Project preserves the
// full Column metadata (table qualifiers included), so name resolution
// above the wrapper is unaffected.
type Reorder struct {
	base
	child Operator
	perm  []int

	cchild ColOperator
	colOut data.ColBatch
}

// NewReorder creates a column permutation over child. perm must be a
// permutation of child's column indexes.
func NewReorder(child Operator, perm []int) *Reorder {
	w := child.Schema().Len()
	if len(perm) != w {
		panic(fmt.Sprintf("exec: NewReorder perm width %d vs schema width %d", len(perm), w))
	}
	seen := make([]bool, w)
	for _, p := range perm {
		if p < 0 || p >= w || seen[p] {
			panic(fmt.Sprintf("exec: NewReorder perm %v is not a permutation of %d columns", perm, w))
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

// Perm returns the permutation (output column i = child column Perm()[i]).
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

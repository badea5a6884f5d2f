package exec

import (
	"errors"
	"fmt"

	"qpi/internal/data"
	"qpi/internal/expr"
)

// NestedLoopsJoin materializes the inner input once, batch by batch
// (OnInnerCol sees each batch), then joins each outer tuple against it as
// the outer is read (no preprocessing pass over the outer — which is why
// the paper's framework cannot do better than the dne estimator here,
// §4.1.3, unless the outer is a Sort whose input pass it can ride).
//
// When Indexed is set, a temporary hash index on the inner join column is
// built during materialization (the common engine optimization the paper
// notes); the join predicate is then an equijoin on the key columns.
// Otherwise an arbitrary predicate over the concatenated tuple is
// supported (theta joins). It is a row operator (see rowops.go).
type NestedLoopsJoin struct {
	base
	outer, inner Operator

	// Equijoin configuration (used when Indexed is true).
	outerKey, innerKey int
	// Pred is the general join predicate over outer⧺inner (used when
	// Indexed is false). A nil Pred means cross product.
	Pred expr.Expr
	// Indexed selects the temporary-index variant.
	Indexed bool

	// OnInnerCol fires once per inner batch during materialization.
	OnInnerCol func(*data.ColBatch)

	outerIn   rowReader
	out       rowBatches
	innerRows []data.Tuple
	index     map[data.Value][]data.Tuple
	loaded    bool
	innerRead int64
	spanEnded bool

	outerTup data.Tuple
	matches  []data.Tuple
	matchPos int
}

// NewNestedLoopsJoin creates a theta nested-loops join with predicate pred
// over the concatenated (outer ⧺ inner) tuple.
func NewNestedLoopsJoin(outer, inner Operator, pred expr.Expr) *NestedLoopsJoin {
	j := &NestedLoopsJoin{outer: outer, inner: inner, Pred: pred}
	j.schema = outer.Schema().Concat(inner.Schema())
	return j
}

// NewIndexedNLJoin creates an equijoin nested-loops join with a temporary
// hash index on the inner join column.
func NewIndexedNLJoin(outer, inner Operator, outerKey, innerKey int) *NestedLoopsJoin {
	j := &NestedLoopsJoin{
		outer: outer, inner: inner,
		outerKey: outerKey, innerKey: innerKey,
		Indexed: true,
	}
	j.schema = outer.Schema().Concat(inner.Schema())
	return j
}

// Name implements Operator.
func (j *NestedLoopsJoin) Name() string {
	if j.Indexed {
		return fmt.Sprintf("IndexedNLJoin(%s = %s)",
			j.outer.Schema().Cols[j.outerKey].Qualified(),
			j.inner.Schema().Cols[j.innerKey].Qualified())
	}
	if j.Pred == nil {
		return "NLJoin(cross)"
	}
	return fmt.Sprintf("NLJoin(%s)", j.Pred)
}

// Children implements Operator.
func (j *NestedLoopsJoin) Children() []Operator { return []Operator{j.outer, j.inner} }

// Outer returns the outer child; Inner the inner child.
func (j *NestedLoopsJoin) Outer() Operator { return j.outer }

// Inner returns the inner child.
func (j *NestedLoopsJoin) Inner() Operator { return j.inner }

// OuterKey returns the outer join column index (indexed variant).
func (j *NestedLoopsJoin) OuterKey() int { return j.outerKey }

// InnerKey returns the inner join column index (indexed variant).
func (j *NestedLoopsJoin) InnerKey() int { return j.innerKey }

// Open implements Operator.
func (j *NestedLoopsJoin) Open() error {
	j.outerIn = rowReader{child: j.outer}
	if err := j.outer.Open(); err != nil {
		return err
	}
	return j.inner.Open()
}

// NextColBatch implements Operator.
func (j *NestedLoopsJoin) NextColBatch() (*data.ColBatch, error) {
	return j.out.next(j.nextRow, j.schema.Len())
}

// nextRow is the row step: the inner input's materialization on the first
// call, one joined tuple per call.
func (j *NestedLoopsJoin) nextRow() (data.Tuple, error) {
	if !j.loaded {
		if err := j.loadInner(); err != nil {
			return nil, err
		}
	}
	for {
		if err := j.pollCtx(); err != nil {
			return nil, err
		}
		if j.matchPos < len(j.matches) {
			m := j.matches[j.matchPos]
			j.matchPos++
			return j.emit(j.outerTup.Concat(m))
		}
		t, err := j.outerIn.next()
		if err != nil {
			return nil, err
		}
		if t == nil {
			if !j.spanEnded {
				j.spanEnded = true
				j.traceEnd("join", j.stats.Emitted.Load(), 0, 0)
			}
			return j.finish()
		}
		j.outerTup = t
		j.matchPos = 0
		if j.Indexed {
			k := t[j.outerKey]
			if k.IsNull() {
				j.matches = nil
				continue
			}
			j.matches = j.index[k]
			continue
		}
		// Theta join: filter the materialized inner.
		j.matches = j.matches[:0]
		for _, in := range j.innerRows {
			if j.Pred == nil || j.Pred.Eval(t.Concat(in)).IsTrue() {
				j.matches = append(j.matches, in)
			}
		}
	}
}

// loadInner materializes the inner input from its batches: the rows
// (ToTuples) are retained in the index or the row list.
func (j *NestedLoopsJoin) loadInner() error {
	j.traceBegin("inner-build")
	if j.Indexed {
		j.index = map[data.Value][]data.Tuple{}
	}
	var rows data.Batch
	for {
		if err := j.ctxErr(); err != nil {
			return err
		}
		cb, err := j.inner.NextColBatch()
		if err != nil {
			return err
		}
		if cb == nil {
			break
		}
		if j.OnInnerCol != nil {
			j.OnInnerCol(cb)
		}
		rows = cb.ToTuples(rows[:0])
		j.innerRead += int64(len(rows))
		if !j.Indexed {
			j.innerRows = append(j.innerRows, rows...)
			continue
		}
		for _, t := range rows {
			if k := t[j.innerKey]; !k.IsNull() {
				j.index[k] = append(j.index[k], t)
			}
		}
	}
	j.loaded = true
	j.traceEnd("inner-build", j.innerRead, 0, 0)
	j.traceBegin("join")
	return nil
}

// Close implements Operator. Both children are always closed; errors
// from either side are reported via errors.Join.
func (j *NestedLoopsJoin) Close() error {
	j.innerRows, j.index, j.matches = nil, nil, nil
	return errors.Join(j.outer.Close(), j.inner.Close())
}

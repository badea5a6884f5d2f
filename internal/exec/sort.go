package exec

import (
	"errors"
	"fmt"
	"sort"

	"qpi/internal/data"
)

// Sort is a blocking operator that materializes and sorts its input by one
// or more key columns (ascending). The input pass fires OnInput for every
// tuple, which is where the online estimation framework builds histograms
// for sort-merge joins (§4.1.2: "every tuple of R is seen at least once
// before any output is produced").
type Sort struct {
	base
	child Operator
	keys  []int
	desc  []bool // per-key descending flags (nil = all ascending)
	label string // rendered at construction: Prune rebinds keys, not labels

	// OnInput fires for every input tuple during the (blocking) sort read.
	OnInput func(data.Tuple)
	// OnInputEnd fires when the input is exhausted, before output starts.
	OnInputEnd func()

	rows      []data.Tuple
	pos       int
	sorted    bool
	inputRows int64 // total input tuples read (survives spill resets)
	spanEnded bool

	// Columnar input (SetColumnar): the input pass consumes the child's
	// ColBatches, extracts the key columns into contiguous lanes, and
	// sorts an index vector with typed lane comparators instead of
	// per-tuple data.Compare chains. keyVecs holds the extracted lanes,
	// keyIdx the index scratch.
	colMode bool
	keyVecs []data.ColVec
	keyIdx  []int32

	// External sorting (see extsort.go).
	memBudget int64
	bufBytes  int64
	arena     spillArena // the spilled runs' temporary file
	runs      []*spillFile
	merge     *mergeState
}

// NewSort sorts child by the given column indexes, ascending.
func NewSort(child Operator, keys ...int) *Sort {
	s := &Sort{child: child, keys: keys, label: fmt.Sprintf("Sort(%v)", keys)}
	s.schema = child.Schema()
	return s
}

// NewSortDirs sorts child with per-key directions (desc[i] true =
// descending). len(desc) must equal len(keys).
func NewSortDirs(child Operator, keys []int, desc []bool) *Sort {
	if len(keys) != len(desc) {
		panic("exec: NewSortDirs: keys/desc length mismatch")
	}
	s := &Sort{child: child, keys: keys, desc: desc, label: fmt.Sprintf("Sort(%v)", keys)}
	s.schema = child.Schema()
	return s
}

// SetColumnar selects the columnar input pass: when the child serves
// column vectors natively and no memory budget is set (the external
// path's run spilling stays row-oriented), the sort extracts its key
// columns into lanes and sorts an index vector over them. Output order,
// OnInput firing order, and trace spans are identical to the row path.
func (s *Sort) SetColumnar(on bool) *Sort {
	s.colMode = on
	return s
}

// Columnar reports whether the columnar input pass is selected.
func (s *Sort) Columnar() bool { return s.colMode }

// columnarInput returns the child as the input pass will pull it
// column-at-a-time, or nil when the pass reads tuples: not selected, a
// memory budget (run spilling is row-oriented), or a child without a
// native columnar path.
func (s *Sort) columnarInput() ColOperator {
	if !s.colMode || s.memBudget > 0 {
		return nil
	}
	in, _ := s.child.(ColOperator)
	return in
}

// Name implements Operator.
func (s *Sort) Name() string { return s.label }

// Children implements Operator.
func (s *Sort) Children() []Operator { return []Operator{s.child} }

// Open implements Operator.
func (s *Sort) Open() error { return s.child.Open() }

// Next implements Operator.
func (s *Sort) Next() (data.Tuple, error) {
	if err := s.pollCtx(); err != nil {
		return nil, err
	}
	if !s.sorted {
		s.traceBegin("input")
		colIn := s.columnarInput()
		if colIn != nil {
			if err := s.readInputColumnar(colIn); err != nil {
				return nil, err
			}
		} else {
			for {
				if err := s.pollCtx(); err != nil {
					return nil, err
				}
				t, err := s.child.Next()
				if err != nil {
					return nil, err
				}
				if t == nil {
					break
				}
				if s.OnInput != nil {
					s.OnInput(t)
				}
				s.inputRows++
				s.rows = append(s.rows, t)
				if s.memBudget > 0 {
					s.bufBytes += int64(t.Size())
					if s.bufBytes > s.memBudget {
						if err := s.spillRun(); err != nil {
							return nil, err
						}
					}
				}
			}
		}
		s.traceEnd("input", s.inputRows, 0, int64(len(s.runs)))
		if s.OnInputEnd != nil {
			s.OnInputEnd()
		}
		switch {
		case len(s.runs) > 0:
			// External path: flush the tail as the final run and merge.
			if err := s.spillRun(); err != nil {
				return nil, err
			}
			s.traceBegin("merge")
			if err := s.startMerge(); err != nil {
				return nil, err
			}
		case colIn != nil:
			s.sortColumnar()
			s.traceMark("sort", int64(len(s.rows)), 0)
		default:
			sort.SliceStable(s.rows, func(i, j int) bool { return s.less(s.rows[i], s.rows[j]) })
			s.traceMark("sort", int64(len(s.rows)), 0)
		}
		s.sorted = true
	}
	if s.merge != nil {
		t, err := s.mergeNext()
		if err != nil {
			return nil, err
		}
		if t == nil {
			if !s.spanEnded {
				s.spanEnded = true
				s.traceEnd("merge", s.stats.Emitted.Load(), 0, int64(len(s.runs)))
			}
			return s.finish()
		}
		return s.emit(t)
	}
	if s.pos >= len(s.rows) {
		return s.finish()
	}
	t := s.rows[s.pos]
	s.pos++
	return s.emit(t)
}

// readInputColumnar drains the child batch-at-a-time: rows materialize
// once per batch (OnInput fires per tuple in row order, as the row pass
// would), and the key columns are extracted lane-to-lane into contiguous
// key lanes indexed alongside s.rows.
func (s *Sort) readInputColumnar(in ColOperator) error {
	if s.keyVecs == nil {
		s.keyVecs = make([]data.ColVec, len(s.keys))
	}
	for k := range s.keyVecs {
		s.keyVecs[k].Reset()
	}
	var idx []int32
	for {
		if err := s.pollCtx(); err != nil {
			return err
		}
		cb, err := in.NextColBatch()
		if err != nil {
			return err
		}
		if cb == nil {
			return nil
		}
		base := len(s.rows)
		s.rows = cb.ToTuples(s.rows)
		added := len(s.rows) - base
		if s.OnInput != nil {
			for _, t := range s.rows[base:] {
				s.OnInput(t)
			}
		}
		s.inputRows += int64(added)
		idx = idx[:0]
		if cb.Sel == nil {
			for i := 0; i < cb.NRows; i++ {
				idx = append(idx, int32(i))
			}
		} else {
			idx = append(idx, cb.Sel...)
		}
		for k, key := range s.keys {
			s.keyVecs[k].GatherFrom(cb.Col(key), idx, base)
		}
	}
}

// colVecCompare mirrors data.Compare over one extracted key lane: NULLs
// first, typed same-kind comparisons off the lane, mixed lanes through
// ValueAt + data.Compare.
func colVecCompare(v *data.ColVec, a, b int) int {
	if !v.Homogeneous() {
		return data.Compare(v.ValueAt(a), v.ValueAt(b))
	}
	na, nb := v.Nulls.Get(a), v.Nulls.Get(b)
	if na || nb {
		switch {
		case na && nb:
			return 0
		case na:
			return -1
		default:
			return 1
		}
	}
	switch v.Kind {
	case data.KindInt:
		x, y := v.Ints[a], v.Ints[b]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	case data.KindFloat:
		x, y := v.Floats[a], v.Floats[b]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	case data.KindString:
		x, y := v.Strs[a], v.Strs[b]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	}
	return 0
}

// sortColumnar stable-sorts an index vector over the extracted key lanes
// and permutes the row buffer into that order — the same ordering the
// row path's tuple comparator produces, with the key loads hitting
// contiguous lanes instead of scattered tuple headers.
func (s *Sort) sortColumnar() {
	n := len(s.rows)
	idx := s.keyIdx[:0]
	for i := 0; i < n; i++ {
		idx = append(idx, int32(i))
	}
	sort.SliceStable(idx, func(i, j int) bool {
		a, b := int(idx[i]), int(idx[j])
		for ki := range s.keyVecs {
			if c := colVecCompare(&s.keyVecs[ki], a, b); c != 0 {
				if s.desc != nil && s.desc[ki] {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	sorted := make([]data.Tuple, n)
	for out, i := range idx {
		sorted[out] = s.rows[i]
	}
	s.rows = sorted
	s.keyIdx = idx
	for k := range s.keyVecs {
		s.keyVecs[k].Reset()
	}
}

// Close implements Operator. The child is always closed and every run
// file released; all errors are reported via errors.Join.
func (s *Sort) Close() error {
	s.rows = nil
	var errs []error
	for _, f := range s.runs {
		errs = append(errs, f.close())
	}
	s.runs, s.merge = nil, nil
	errs = append(errs, s.child.Close())
	return errors.Join(errs...)
}

// MergeJoin merges two inputs that are sorted on the join keys, emitting
// the cross product of each matching key group. Compose it over Sort
// operators (see NewSortMergeJoin) unless the inputs are already sorted —
// the case where the paper's framework cannot push estimation down and
// falls back to dne (§4.1.2 end).
type MergeJoin struct {
	base
	left, right       Operator
	leftKey, rightKey int

	// OnOutput fires for every emitted join tuple.
	OnOutput func(data.Tuple)

	leftTup   data.Tuple
	rightTup  data.Tuple
	group     []data.Tuple // right tuples matching current left key
	groupPos  int
	started   bool
	done      bool
	leftRead  int64
	rightRead int64
}

// Progress returns the fraction of the (sorted) inputs consumed by the
// merge pass, the driver progress dne/byte observe for sort-merge joins.
func (j *MergeJoin) Progress() float64 {
	lt := j.left.Stats().Total()
	rt := j.right.Stats().Total()
	if lt+rt == 0 {
		if j.done {
			return 1
		}
		return 0
	}
	return float64(j.leftRead+j.rightRead) / (lt + rt)
}

// NewMergeJoin joins two key-sorted inputs.
func NewMergeJoin(left, right Operator, leftKey, rightKey int) *MergeJoin {
	j := &MergeJoin{left: left, right: right, leftKey: leftKey, rightKey: rightKey}
	j.schema = left.Schema().Concat(right.Schema())
	return j
}

// NewSortMergeJoin wraps both children in Sort operators and merges them.
// It returns the join and the two sorts (for estimator attachment).
func NewSortMergeJoin(left, right Operator, leftKey, rightKey int) (*MergeJoin, *Sort, *Sort) {
	ls := NewSort(left, leftKey)
	rs := NewSort(right, rightKey)
	return NewMergeJoin(ls, rs, leftKey, rightKey), ls, rs
}

// Name implements Operator.
func (j *MergeJoin) Name() string {
	return fmt.Sprintf("MergeJoin(%s = %s)",
		j.left.Schema().Cols[j.leftKey].Qualified(),
		j.right.Schema().Cols[j.rightKey].Qualified())
}

// Children implements Operator.
func (j *MergeJoin) Children() []Operator { return []Operator{j.left, j.right} }

// Open implements Operator.
func (j *MergeJoin) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	return j.right.Open()
}

// LeftKey returns the left join column index.
func (j *MergeJoin) LeftKey() int { return j.leftKey }

// RightKey returns the right join column index.
func (j *MergeJoin) RightKey() int { return j.rightKey }

// Left returns the left child; Right the right child.
func (j *MergeJoin) Left() Operator { return j.left }

// Right returns the right child.
func (j *MergeJoin) Right() Operator { return j.right }

// nextLeft advances the left cursor, counting consumed tuples.
func (j *MergeJoin) nextLeft() error {
	t, err := j.left.Next()
	if err != nil {
		return err
	}
	if t != nil {
		j.leftRead++
	}
	j.leftTup = t
	return nil
}

// nextRight advances the right cursor, counting consumed tuples.
func (j *MergeJoin) nextRight() error {
	t, err := j.right.Next()
	if err != nil {
		return err
	}
	if t != nil {
		j.rightRead++
	}
	j.rightTup = t
	return nil
}

// Next implements Operator.
func (j *MergeJoin) Next() (data.Tuple, error) {
	if j.done {
		return j.finish()
	}
	if !j.started {
		j.traceBegin("merge")
		if err := j.nextLeft(); err != nil {
			return nil, err
		}
		if err := j.nextRight(); err != nil {
			return nil, err
		}
		j.started = true
	}
	for {
		if err := j.pollCtx(); err != nil {
			return nil, err
		}
		// Emit pending pairs for the current left tuple and group.
		if j.groupPos < len(j.group) {
			out := j.leftTup.Concat(j.group[j.groupPos])
			j.groupPos++
			if j.OnOutput != nil {
				j.OnOutput(out)
			}
			return j.emit(out)
		}
		// Current left tuple's group exhausted: advance left; if the key
		// is unchanged reuse the group.
		if j.group != nil {
			prevKey := j.leftTup[j.leftKey]
			if err := j.nextLeft(); err != nil {
				return nil, err
			}
			if j.leftTup != nil && data.Equal(j.leftTup[j.leftKey], prevKey) {
				j.groupPos = 0
				continue
			}
			j.group = nil
		}
		if j.leftTup == nil || j.rightTup == nil {
			j.done = true
			j.traceEnd("merge", j.leftRead+j.rightRead, 0, 0)
			return j.finish()
		}
		lk := j.leftTup[j.leftKey]
		rk := j.rightTup[j.rightKey]
		// NULL keys never join; NULLs sort first so skip them.
		if lk.IsNull() {
			if err := j.nextLeft(); err != nil {
				return nil, err
			}
			continue
		}
		if rk.IsNull() {
			if err := j.nextRight(); err != nil {
				return nil, err
			}
			continue
		}
		switch c := data.Compare(lk, rk); {
		case c < 0:
			if err := j.nextLeft(); err != nil {
				return nil, err
			}
		case c > 0:
			if err := j.nextRight(); err != nil {
				return nil, err
			}
		default:
			// Collect the right group for this key.
			j.group = j.group[:0]
			for j.rightTup != nil && data.Equal(j.rightTup[j.rightKey], lk) {
				j.group = append(j.group, j.rightTup)
				if err := j.nextRight(); err != nil {
					return nil, err
				}
			}
			j.groupPos = 0
		}
	}
}

// Close implements Operator. Both children are always closed; errors
// from either side are reported via errors.Join.
func (j *MergeJoin) Close() error {
	j.group = nil
	return errors.Join(j.left.Close(), j.right.Close())
}

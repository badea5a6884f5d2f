package exec

import (
	"cmp"
	"errors"
	"fmt"
	"sort"

	"qpi/internal/data"
)

// Sort is a blocking operator that materializes and sorts its input by one
// or more key columns. The input pass reads the child batch by batch and
// fires OnInputCol for every batch before buffering its rows, which is
// where the online estimation framework builds histograms for sort-merge
// joins (§4.1.2: "every tuple of R is seen at least once before any
// output is produced"). Its output is a row operator's (see rowops.go).
type Sort struct {
	base
	child Operator
	keys  []int
	desc  []bool // per-key descending flags (nil = all ascending)
	label string // rendered at construction: Prune rebinds keys, not labels

	// OnInputCol fires once per input batch during the (blocking) sort
	// read, before the batch's rows are buffered.
	OnInputCol func(*data.ColBatch)
	// OnInputEnd fires when the input is exhausted, before output starts.
	OnInputEnd func()

	out       rowBatches
	rows      []data.Tuple
	pos       int
	sorted    bool
	inputRows int64 // total input tuples read (survives spill resets)
	spanEnded bool

	// The input pass extracts the key columns into contiguous lanes
	// (keyVecs, row i of each lane is rows[i]) and sorts an index vector
	// (keyIdx) over them with typed lane comparators.
	keyVecs []data.ColVec
	keyIdx  []int32

	// External sorting (see extsort.go).
	memBudget int64
	bufBytes  int64
	arena     spillArena    // the spilled runs' temporary file
	runs      []*spillFile  // sorted runs of column frames
	runView   data.ColBatch // rows pivoted to lanes as a run is written
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

// Name implements Operator.
func (s *Sort) Name() string { return s.label }

// Children implements Operator.
func (s *Sort) Children() []Operator { return []Operator{s.child} }

// Open implements Operator.
func (s *Sort) Open() error { return s.child.Open() }

// NextColBatch implements Operator.
func (s *Sort) NextColBatch() (*data.ColBatch, error) {
	return s.out.next(s.nextRow, s.schema.Len())
}

// nextRow is the row step: the input pass and the sort (or the spill and
// merge set-up) on the first call, one sorted tuple per call.
func (s *Sort) nextRow() (data.Tuple, error) {
	if err := s.pollCtx(); err != nil {
		return nil, err
	}
	if !s.sorted {
		s.traceBegin("input")
		if err := s.readInput(); err != nil {
			return nil, err
		}
		s.traceEnd("input", s.inputRows, 0, int64(len(s.runs)))
		if s.OnInputEnd != nil {
			s.OnInputEnd()
		}
		if len(s.runs) > 0 {
			// External path: flush the tail as the final run and merge.
			if err := s.spillRun(); err != nil {
				return nil, err
			}
			s.traceBegin("merge")
			if err := s.startMerge(); err != nil {
				return nil, err
			}
		} else {
			idx := s.sortColumnar()
			sorted := make([]data.Tuple, len(idx))
			for out, i := range idx {
				sorted[out] = s.rows[i]
			}
			s.rows = sorted
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

// readInput drains the child batch by batch: rows materialize once per
// batch (after OnInputCol has seen it), and the key columns are
// extracted lane-to-lane into contiguous key lanes indexed alongside
// s.rows. Under a memory budget, the row that takes the buffered rows past
// it closes a sorted run, which spills.
func (s *Sort) readInput() error {
	if s.keyVecs == nil {
		s.keyVecs = make([]data.ColVec, len(s.keys))
	}
	for k := range s.keyVecs {
		s.keyVecs[k].Reset()
	}
	var batch []data.Tuple
	var idx []int32
	for {
		if err := s.ctxErr(); err != nil {
			return err
		}
		cb, err := s.child.NextColBatch()
		if err != nil {
			return err
		}
		if cb == nil {
			return nil
		}
		if s.OnInputCol != nil {
			s.OnInputCol(cb)
		}
		batch = cb.ToTuples(batch[:0])
		s.inputRows += int64(len(batch))
		idx = idx[:0]
		if cb.Sel == nil {
			for i := 0; i < cb.NRows; i++ {
				idx = append(idx, int32(i))
			}
		} else {
			idx = append(idx, cb.Sel...)
		}
		for rows, live := batch, idx; len(rows) > 0; {
			n := len(rows)
			if s.memBudget > 0 {
				n = s.budgetCut(rows)
			}
			base := len(s.rows)
			s.rows = append(s.rows, rows[:n]...)
			for k, key := range s.keys {
				s.keyVecs[k].GatherFrom(cb.Col(key), live[:n], base)
			}
			rows, live = rows[n:], live[n:]
			if s.memBudget > 0 && s.bufBytes > s.memBudget {
				if err := s.spillRun(); err != nil {
					return err
				}
			}
		}
	}
}

// budgetCut adds rows to the buffered bytes up to and including the first
// that takes them past the memory budget, and returns how many it added.
func (s *Sort) budgetCut(rows []data.Tuple) int {
	for i, t := range rows {
		s.bufBytes += int64(t.Size())
		if s.bufBytes > s.memBudget {
			return i + 1
		}
	}
	return len(rows)
}

// colVecCompare mirrors data.Compare between row a of lane va and row b of
// lane vb: NULLs first, typed comparisons when both lanes hold one and the
// same kind, ValueAt + data.Compare otherwise.
func colVecCompare(va *data.ColVec, a int, vb *data.ColVec, b int) int {
	if !va.Homogeneous() || !vb.Homogeneous() || va.Kind != vb.Kind {
		return data.Compare(va.ValueAt(a), vb.ValueAt(b))
	}
	na, nb := va.Nulls.Get(a), vb.Nulls.Get(b)
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
	switch va.Kind {
	case data.KindInt:
		return cmp.Compare(va.Ints[a], vb.Ints[b])
	case data.KindFloat:
		x, y := va.Floats[a], vb.Floats[b]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	case data.KindString:
		return cmp.Compare(va.Strs[a], vb.Strs[b])
	}
	return 0
}

// keyOrder turns the comparison c of sort key ki into the key's direction.
func (s *Sort) keyOrder(ki, c int) int {
	if s.desc != nil && s.desc[ki] {
		return -c
	}
	return c
}

// sortColumnar stable-sorts an index vector of the buffered rows over the
// key lanes and clears the lanes for the next run: in key order the rows
// are s.rows[idx[0]], s.rows[idx[1]], … The key loads hit contiguous
// lanes instead of scattered tuple headers.
func (s *Sort) sortColumnar() []int32 {
	idx := s.keyIdx[:0]
	for i := range s.rows {
		idx = append(idx, int32(i))
	}
	sort.SliceStable(idx, func(i, j int) bool {
		a, b := int(idx[i]), int(idx[j])
		for ki := range s.keyVecs {
			v := &s.keyVecs[ki]
			if c := colVecCompare(v, a, v, b); c != 0 {
				return s.keyOrder(ki, c) < 0
			}
		}
		return false
	})
	s.keyIdx = idx
	for k := range s.keyVecs {
		s.keyVecs[k].Reset()
	}
	return idx
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
// falls back to dne (§4.1.2 end). It is a row operator (see rowops.go);
// OnOutputCol sees each of its output batches as it leaves.
type MergeJoin struct {
	base
	left, right       Operator
	leftKey, rightKey int

	// OnOutputCol fires once per filled output batch, before it is
	// returned.
	OnOutputCol func(*data.ColBatch)

	leftIn    rowReader
	rightIn   rowReader
	out       rowBatches
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
	j.leftIn, j.rightIn = rowReader{child: j.left}, rowReader{child: j.right}
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
	t, err := j.leftIn.next()
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
	t, err := j.rightIn.next()
	if err != nil {
		return err
	}
	if t != nil {
		j.rightRead++
	}
	j.rightTup = t
	return nil
}

// NextColBatch implements Operator.
func (j *MergeJoin) NextColBatch() (*data.ColBatch, error) {
	cb, err := j.out.next(j.nextRow, j.schema.Len())
	if cb != nil && j.OnOutputCol != nil {
		j.OnOutputCol(cb)
	}
	return cb, err
}

// nextRow is the row step: one joined tuple per call.
func (j *MergeJoin) nextRow() (data.Tuple, error) {
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

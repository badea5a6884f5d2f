package exec

import (
	"container/heap"
	"io"

	"qpi/internal/data"
	"qpi/internal/vfs"
)

// External sorting support for the Sort operator: when a memory budget is
// set, the input pass buffers rows until one takes them past the budget,
// sorts their index vector over the key lanes (sortColumnar) and spills
// them in that order as one run of column frames (the join's spill
// format), then merges the runs with a k-way heap that compares run heads
// on the decoded frames' key lanes. Equal keys come out in run order, so
// the merge is as stable as the in-memory sort. The OnInputCol hook still
// fires for every input batch during the (unsorted) input pass, so the
// estimation framework behaves identically in both modes.

// SetMemoryBudget caps the bytes buffered during the sort (0 = unlimited,
// fully in-memory). Overflowing input spills as sorted runs merged on
// output.
func (s *Sort) SetMemoryBudget(bytes int64) *Sort {
	s.memBudget = bytes
	return s
}

// Runs reports how many sorted runs spilled to disk.
func (s *Sort) Runs() int { return len(s.runs) }

// SetSpillFS routes the sort's run I/O through fs (nil restores the real
// filesystem); tests inject a vfs.FaultFS here.
func (s *Sort) SetSpillFS(fs vfs.FS) *Sort {
	s.arena.fs = fs
	return s
}

// spillRun sorts the buffered rows and writes them as one run.
func (s *Sort) spillRun() error {
	if len(s.rows) == 0 {
		return nil
	}
	idx := s.sortColumnar()
	f, err := s.arena.newRun(s.schema.Len())
	if err != nil {
		return err
	}
	s.runView.SetRows(s.rows, s.schema.Len())
	if err := f.appendColRows(&s.runView, idx); err != nil {
		f.close()
		return err
	}
	s.runs = append(s.runs, f)
	s.stats.SpillFiles.Add(1)
	s.stats.SpillBytes.Add(s.bufBytes)
	s.traceMark("spill-run", int64(len(s.rows)), s.bufBytes)
	s.rows = s.rows[:0]
	s.bufBytes = 0
	return nil
}

// mergeRun is one run's merge cursor: the frame it is in, decoded into
// the run's pooled batch, that frame's rows, and the head row's position.
type mergeRun struct {
	f    *spillFile
	rows []data.Tuple
	pos  int
}

// advance moves to the run's next row, decoding the next frame when the
// current one is used up; false at the end of the run.
func (r *mergeRun) advance() (bool, error) {
	r.pos++
	for r.pos >= len(r.rows) {
		if err := r.f.nextColFrame(r.f.dec); err == io.EOF {
			return false, nil
		} else if err != nil {
			return false, err
		}
		r.rows = r.f.dec.ToTuples(r.rows[:0])
		r.pos = 0
	}
	return true, nil
}

// mergeState is the k-way merge: a heap of indexes into runs, which are
// in spill order.
type mergeState struct {
	s     *Sort
	runs  []mergeRun
	order []int
}

func (m *mergeState) Len() int { return len(m.order) }

// Less orders run heads by the sort keys on the frames' lanes, and equal
// heads by run.
func (m *mergeState) Less(i, j int) bool {
	a, b := &m.runs[m.order[i]], &m.runs[m.order[j]]
	for ki, k := range m.s.keys {
		if c := colVecCompare(a.f.dec.Col(k), a.pos, b.f.dec.Col(k), b.pos); c != 0 {
			return m.s.keyOrder(ki, c) < 0
		}
	}
	return m.order[i] < m.order[j]
}
func (m *mergeState) Swap(i, j int) { m.order[i], m.order[j] = m.order[j], m.order[i] }
func (m *mergeState) Push(x any)    { m.order = append(m.order, x.(int)) }
func (m *mergeState) Pop() any {
	x := m.order[len(m.order)-1]
	m.order = m.order[:len(m.order)-1]
	return x
}

// startMerge opens all runs at their first row and primes the heap.
func (s *Sort) startMerge() error {
	m := &mergeState{s: s}
	for _, f := range s.runs {
		if err := f.startRead(); err != nil {
			return err
		}
		f.dec = data.GetColBatch()
		r := mergeRun{f: f, pos: -1}
		ok, err := r.advance()
		if err != nil {
			return err
		}
		if !ok {
			if err := f.close(); err != nil {
				return err
			}
			continue
		}
		m.runs = append(m.runs, r)
		m.order = append(m.order, len(m.runs)-1)
	}
	heap.Init(m)
	s.merge = m
	return nil
}

// mergeNext pops the smallest head across runs.
func (s *Sort) mergeNext() (data.Tuple, error) {
	m := s.merge
	if m.Len() == 0 {
		return nil, nil
	}
	r := &m.runs[m.order[0]]
	out := r.rows[r.pos]
	ok, err := r.advance()
	if err != nil {
		return nil, err
	}
	if ok {
		heap.Fix(m, 0)
		return out, nil
	}
	err = r.f.close()
	heap.Pop(m)
	if err != nil {
		return nil, err
	}
	return out, nil
}

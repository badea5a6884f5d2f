package exec

import (
	"container/heap"
	"sort"

	"qpi/internal/data"
	"qpi/internal/vfs"
)

// External sorting support for the Sort operator: when a memory budget is
// set, the input pass accumulates runs of at most the budget, sorts each
// and spills it, then merges the runs with a k-way heap. The OnInput hook
// still fires for every input tuple during the (unsorted) input pass, so
// the estimation framework behaves identically in both modes.

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

// less orders two tuples by the sort keys and directions.
func (s *Sort) less(a, b data.Tuple) bool {
	for ki, k := range s.keys {
		if c := data.Compare(a[k], b[k]); c != 0 {
			if s.desc != nil && s.desc[ki] {
				return c > 0
			}
			return c < 0
		}
	}
	return false
}

// spillRun sorts and writes the current buffer as one run.
func (s *Sort) spillRun() error {
	if len(s.rows) == 0 {
		return nil
	}
	sort.SliceStable(s.rows, func(i, j int) bool { return s.less(s.rows[i], s.rows[j]) })
	f, err := s.arena.newRun(s.schema.Len())
	if err != nil {
		return err
	}
	for _, t := range s.rows {
		if err := f.append(t); err != nil {
			f.close()
			return err
		}
	}
	s.runs = append(s.runs, f)
	s.stats.SpillFiles.Add(1)
	s.stats.SpillBytes.Add(s.bufBytes)
	s.traceMark("spill-run", int64(len(s.rows)), s.bufBytes)
	s.rows = s.rows[:0]
	s.bufBytes = 0
	return nil
}

// mergeState is the k-way merge cursor set.
type mergeState struct {
	s       *Sort
	heads   []data.Tuple
	sources []*spillFile
	order   []int // heap of source indexes
}

func (m *mergeState) Len() int { return len(m.order) }
func (m *mergeState) Less(i, j int) bool {
	return m.s.less(m.heads[m.order[i]], m.heads[m.order[j]])
}
func (m *mergeState) Swap(i, j int) { m.order[i], m.order[j] = m.order[j], m.order[i] }
func (m *mergeState) Push(x any)    { m.order = append(m.order, x.(int)) }
func (m *mergeState) Pop() any {
	x := m.order[len(m.order)-1]
	m.order = m.order[:len(m.order)-1]
	return x
}

// startMerge opens all runs and primes the heap.
func (s *Sort) startMerge() error {
	m := &mergeState{s: s}
	for _, f := range s.runs {
		if err := f.startRead(); err != nil {
			return err
		}
		t, err := f.next()
		if err != nil {
			return err
		}
		if t == nil {
			if err := f.close(); err != nil {
				return err
			}
			continue
		}
		m.sources = append(m.sources, f)
		m.heads = append(m.heads, t)
		m.order = append(m.order, len(m.sources)-1)
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
	src := m.order[0]
	out := m.heads[src]
	t, err := m.sources[src].next()
	if err != nil {
		return nil, err
	}
	if t == nil {
		err := m.sources[src].close()
		heap.Pop(m)
		if err != nil {
			return nil, err
		}
	} else {
		m.heads[src] = t
		heap.Fix(m, 0)
	}
	return out, nil
}

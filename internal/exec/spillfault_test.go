package exec

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"qpi/internal/data"
	"qpi/internal/vfs"
)

// Fault-injection matrix over the spill I/O seam: every file operation of
// the spilling hash join and the external sort can fail, and in every
// case the injected error must surface through Run while all descriptors
// are released. (An operator's spill file is unlinked at creation, so "no
// leftover temp files" is exactly "no open descriptors".)

var spillOps = []vfs.Op{vfs.OpCreate, vfs.OpWrite, vfs.OpRead, vfs.OpSeek, vfs.OpClose}

func expectInjectedIO(t *testing.T, fs *vfs.FaultFS, err error) {
	t.Helper()
	if !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("want vfs.ErrInjected, got %v", err)
	}
	if open := fs.OpenFiles(); open != 0 {
		t.Errorf("%d spill files still open after injected fault", open)
	}
}

// spillFaultMatrix fails every spill op at its first, middle and last
// occurrence, counted from a clean run of the same operator. The later
// cases land while other runs of the operator's spill arena are open.
// Each case is a subtest named after the op, suffixed @n past the first.
func spillFaultMatrix(t *testing.T, run func(t *testing.T, fs *vfs.FaultFS) error) {
	t.Helper()
	clean := vfs.NewFaultFS(nil)
	if err := run(t, clean); err != nil {
		t.Fatal(err)
	}
	for _, op := range spillOps {
		n := clean.Count(op)
		if n == 0 {
			t.Fatalf("clean run never issued a %s; fault not exercised", op)
		}
		prev := 0
		for _, at := range []int{1, (n + 1) / 2, n} {
			if at == prev {
				continue
			}
			prev = at
			name := op.String()
			if at > 1 {
				name = fmt.Sprintf("%s@%d", op, at)
			}
			t.Run(name, func(t *testing.T) {
				fs := vfs.NewFaultFS(nil).FailAt(op, at)
				expectInjectedIO(t, fs, run(t, fs))
			})
		}
	}
}

func TestSpillFaultHashJoin(t *testing.T) {
	a := randTable("a", 3000, 100, 23)
	b := randTable("b", 4000, 100, 24)
	spillFaultMatrix(t, func(t *testing.T, fs *vfs.FaultFS) error {
		j := NewHashJoinOn(
			NewScan(makeTable("a", a), ""),
			NewScan(makeTable("b", b), ""),
			"a", "k", "b", "k")
		j.SetMemoryBudget(16 * 1024)
		j.SetSpillFS(fs)
		_, err := Run(j)
		return err
	})
}

func TestSpillFaultExternalSort(t *testing.T) {
	vals := randTable("t", 5000, 100000, 27)
	spillFaultMatrix(t, func(t *testing.T, fs *vfs.FaultFS) error {
		s := NewSort(NewScan(makeTable("t", vals), ""), 0)
		s.SetMemoryBudget(8 * 1024)
		s.SetSpillFS(fs)
		_, err := Run(s)
		return err
	})
}

// TestSpillFaultLateClose injects a close failure that only fires during
// the join's final Close (after a clean drain), proving spill cleanup
// errors are not swallowed.
func TestSpillFaultLateClose(t *testing.T) {
	a := randTable("a", 3000, 100, 28)
	b := randTable("b", 4000, 100, 29)
	fs := vfs.NewFaultFS(nil)
	j := NewHashJoinOn(
		NewScan(makeTable("a", a), ""),
		NewScan(makeTable("b", b), ""),
		"a", "k", "b", "k")
	j.SetMemoryBudget(16 * 1024)
	j.SetSpillFS(fs)
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := Drain(j); err != nil {
		t.Fatal(err)
	}
	// Every partition has been consumed and its descriptor closed by now;
	// a clean run must end descriptor-clean even before Close.
	if open := fs.OpenFiles(); open != 0 {
		t.Fatalf("%d spill files open after full drain", open)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSpillFaultCleanRunLeaksNothing(t *testing.T) {
	vals := randTable("t", 5000, 100000, 30)
	fs := vfs.NewFaultFS(nil)
	s := NewSort(NewScan(makeTable("t", vals), ""), 0)
	s.SetMemoryBudget(8 * 1024)
	s.SetSpillFS(fs)
	if _, err := Run(s); err != nil {
		t.Fatal(err)
	}
	if open := fs.OpenFiles(); open != 0 {
		t.Errorf("%d spill files open after clean run", open)
	}
	if fs.MaxOpenFiles() == 0 {
		t.Error("sort never spilled; nothing was tested")
	}
}

// TestSpillFaultPooledBuffersIsolated churns spill files through the
// shared bufio pools with faults interleaved: a buffer recycled from a
// faulted (or abandoned-before-read) file must serve the next file
// correctly — no stale bytes, no retained descriptor, no poisoned error
// state. Each iteration alternates a victim file that dies at a different
// op with a clean file whose round-trip is verified byte-exactly.
func TestSpillFaultPooledBuffersIsolated(t *testing.T) {
	mkTuple := func(i int64) data.Tuple { return data.Tuple{data.Int(i), data.Str("row")} }
	ops := []vfs.Op{vfs.OpWrite, vfs.OpRead, vfs.OpSeek, vfs.OpClose}
	for round := 0; round < 8; round++ {
		// Victim: fault at the round's op, then close (idempotent, returns
		// its buffers to the pools regardless of where the fault hit).
		op := ops[round%len(ops)]
		fs := vfs.NewFaultFS(nil).FailAt(op, 1)
		victim, err := (&spillArena{fs: fs}).newRun(2)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 2000; i++ { // >64 KiB: forces mid-write flushes
			if err := victim.append(mkTuple(i)); err != nil {
				break
			}
		}
		if err := victim.startRead(); err == nil {
			for {
				tu, err := victim.next()
				if tu == nil || err != nil {
					break
				}
			}
		}
		victim.close()
		if open := fs.OpenFiles(); open != 0 {
			t.Fatalf("round %d (%s): %d descriptors open after faulted victim", round, op, open)
		}

		// Clean file: its pooled buffers almost certainly just served the
		// victim; the round-trip must still be exact.
		cleanFS := vfs.NewFaultFS(nil)
		f, err := (&spillArena{fs: cleanFS}).newRun(2)
		if err != nil {
			t.Fatal(err)
		}
		const n = 500
		for i := int64(0); i < n; i++ {
			if err := f.append(mkTuple(i)); err != nil {
				t.Fatal(err)
			}
		}
		rows, err := f.readAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != n {
			t.Fatalf("round %d: clean file read %d rows, want %d", round, len(rows), n)
		}
		for i, tu := range rows {
			if tu[0].I != int64(i) || tu[1].S != "row" {
				t.Fatalf("round %d: row %d corrupted: %v", round, i, tu)
			}
		}
		if err := f.close(); err != nil {
			t.Fatal(err)
		}
		if open := cleanFS.OpenFiles(); open != 0 {
			t.Fatalf("round %d: %d descriptors open after clean round-trip", round, open)
		}
	}
}

// TestSpillFaultOneFilePerOperator holds each spilling operator to one
// temporary file however many runs it spills: the columnar and the tuple
// pass of a budgeted join that spills partitions on both sides, and an
// external sort of several runs. The file is closed once the operator is
// drained, before Close, and the rows are the unbudgeted run's.
func TestSpillFaultOneFilePerOperator(t *testing.T) {
	expectOneFile := func(t *testing.T, fs *vfs.FaultFS) {
		t.Helper()
		if n := fs.Count(vfs.OpCreate); n != 1 {
			t.Errorf("%d spill files created, want 1", n)
		}
		if n := fs.MaxOpenFiles(); n != 1 {
			t.Errorf("%d spill files open at once, want 1", n)
		}
		if n := fs.OpenFiles(); n != 0 {
			t.Errorf("%d spill files open after the drain", n)
		}
	}
	a := randTable("a", 3000, 100, 71)
	b := randTable("b", 4000, 100, 72)
	join := func(budget int64, columnar bool, fs vfs.FS) *HashJoin {
		j := NewHashJoinOn(
			NewScan(makeTable("a", a), ""),
			NewScan(makeTable("b", b), ""),
			"a", "k", "b", "k")
		return j.SetMemoryBudget(budget).SetSpillFS(fs).SetColumnar(columnar)
	}
	want := sortedStrings(drainMode(t, join(0, true, nil), true))
	for _, pass := range []string{"columnar", "tuple"} {
		columnar := pass == "columnar"
		t.Run(pass, func(t *testing.T) {
			fs := vfs.NewFaultFS(nil)
			j := join(16*1024, columnar, fs)
			var builds, probes int
			j.OnProbeEnd = func() {
				for p := range j.parts {
					if j.buildSpill[p] != nil {
						builds++
					}
					if j.probeSpill[p] != nil {
						probes++
					}
				}
			}
			if err := j.Open(); err != nil {
				t.Fatal(err)
			}
			var rows []data.Tuple
			var err error
			if columnar {
				rows, err = DrainCol(AsColOperator(j))
			} else {
				rows, err = Drain(j)
			}
			if err != nil {
				t.Fatal(err)
			}
			if builds < 2 || probes < 2 {
				t.Fatalf("%d build and %d probe partitions spilled, want at least 2 each", builds, probes)
			}
			if got := j.Stats().SpillFiles.Load(); got != int64(builds+probes) {
				t.Errorf("SpillFiles = %d, want one per spilled run, %d", got, builds+probes)
			}
			expectOneFile(t, fs)
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if got := sortedStrings(rows); !reflect.DeepEqual(got, want) {
				t.Errorf("%d rows differ from the unbudgeted join's %d", len(got), len(want))
			}
		})
	}
	t.Run("sort", func(t *testing.T) {
		vals := randTable("t", 5000, 100000, 73)
		sorted := func(budget int64, fs vfs.FS) ([]data.Tuple, *Sort) {
			s := NewSort(NewScan(makeTable("t", vals), ""), 0)
			s.SetMemoryBudget(budget).SetSpillFS(fs)
			if err := s.Open(); err != nil {
				t.Fatal(err)
			}
			rows, err := Drain(s)
			if err != nil {
				t.Fatal(err)
			}
			return rows, s
		}
		want, s := sorted(0, nil)
		s.Close()
		fs := vfs.NewFaultFS(nil)
		rows, s := sorted(8*1024, fs)
		if s.Runs() < 3 {
			t.Fatalf("%d sorted runs, want at least 3", s.Runs())
		}
		expectOneFile(t, fs)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		requireSameRows(t, want, rows, "external sort")
	})
}

package exec

import (
	"errors"
	"testing"

	"qpi/internal/data"
	"qpi/internal/vfs"
)

// Fault-injection matrix over the spill I/O seam: every file operation of
// the spilling hash join and the external sort can fail, and in every
// case the injected error must surface through Run while all descriptors
// are released. (Spill files are unlinked at creation, so "no leftover
// temp files" is exactly "no open descriptors".)

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

func TestSpillFaultHashJoin(t *testing.T) {
	a := randTable("a", 3000, 100, 23)
	b := randTable("b", 4000, 100, 24)
	for _, op := range spillOps {
		t.Run(op.String(), func(t *testing.T) {
			fs := vfs.NewFaultFS(nil).FailAt(op, 1)
			j := NewHashJoinOn(
				NewScan(makeTable("a", a), ""),
				NewScan(makeTable("b", b), ""),
				"a", "k", "b", "k")
			j.SetMemoryBudget(16 * 1024)
			j.SetSpillFS(fs)
			_, err := Run(j)
			expectInjectedIO(t, fs, err)
			if fs.Count(op) == 0 {
				t.Fatalf("join never issued a %s; fault not exercised", op)
			}
		})
	}
}

func TestSpillFaultExternalSort(t *testing.T) {
	vals := randTable("t", 5000, 100000, 27)
	for _, op := range spillOps {
		t.Run(op.String(), func(t *testing.T) {
			fs := vfs.NewFaultFS(nil).FailAt(op, 1)
			s := NewSort(NewScan(makeTable("t", vals), ""), 0)
			s.SetMemoryBudget(8 * 1024)
			s.SetSpillFS(fs)
			_, err := Run(s)
			expectInjectedIO(t, fs, err)
			if fs.Count(op) == 0 {
				t.Fatalf("sort never issued a %s; fault not exercised", op)
			}
		})
	}
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
		victim, err := newSpillFile(fs, 2)
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
		f, err := newSpillFile(cleanFS, 2)
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

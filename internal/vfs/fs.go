package vfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// This file is the injectable filesystem seam for the engine's temporary
// spill I/O (grace hash-join partitions, external sort runs). Production
// code uses OS; tests wrap it in a FaultFS to force create/write/read/
// close failures at any point of a spilling operator's lifecycle, to
// count the operations issued and to assert descriptor-clean shutdown.

// File is the I/O surface the spill paths need from a temporary file:
// positional reads and writes (the spill paths keep every offset
// themselves, so a file has no offset to move), Close, and the Name it
// is unlinked by. *os.File satisfies it.
type File interface {
	io.ReaderAt
	io.WriterAt
	io.Closer
	Name() string
}

// FS creates (and removes) temporary files. Implementations must be safe
// for concurrent use.
type FS interface {
	// CreateTemp creates a new temporary file in the default temp
	// directory, named after pattern as in os.CreateTemp.
	CreateTemp(pattern string) (File, error)
	// Remove unlinks a file by name.
	Remove(name string) error
}

// OS is the real filesystem.
type OS struct{}

// CreateTemp implements FS.
func (OS) CreateTemp(pattern string) (File, error) { return os.CreateTemp("", pattern) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// Op enumerates the fault-injectable file operations.
type Op uint8

// Fault-injectable operations.
const (
	OpCreate Op = iota
	OpWrite
	OpRead
	OpClose
	numOps
)

func (o Op) String() string {
	switch o {
	case OpCreate:
		return "create"
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	default:
		return "close"
	}
}

// ErrInjected is the sentinel error FaultFS fails with; injected faults
// wrap it, so callers assert propagation with errors.Is.
var ErrInjected = errors.New("vfs: injected I/O fault")

// FaultFS wraps an FS, counting every operation and failing the
// configured n-th occurrence of each kind with ErrInjected — a
// deterministic fault-injection seam for spill I/O. It also tracks how
// many of its files are currently open, so tests can assert that error
// and cancellation paths release every descriptor. A close that fails by
// injection still closes the underlying file (the descriptor is gone
// either way, as with a real failed close(2)).
type FaultFS struct {
	base FS

	mu      sync.Mutex
	failAt  [numOps]int // fail the n-th op, 1-based; 0 = never
	count   [numOps]int
	open    int
	maxOpen int
}

// NewFaultFS wraps base (nil = the real filesystem) with fault injection.
func NewFaultFS(base FS) *FaultFS {
	if base == nil {
		base = OS{}
	}
	return &FaultFS{base: base}
}

// FailAt arranges for the n-th (1-based) operation of the given kind to
// fail; n <= 0 clears the trigger. Returns the FaultFS for chaining.
func (f *FaultFS) FailAt(op Op, n int) *FaultFS {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n < 0 {
		n = 0
	}
	f.failAt[op] = n
	return f
}

// Count returns how many operations of the given kind have been issued.
func (f *FaultFS) Count(op Op) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.count[op]
}

// OpenFiles returns the number of currently open files created through
// this FS; 0 after clean shutdown.
func (f *FaultFS) OpenFiles() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.open
}

// MaxOpenFiles returns the high-water mark of simultaneously open files.
func (f *FaultFS) MaxOpenFiles() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.maxOpen
}

// trip counts one operation and returns the injected error when it is the
// configured trigger.
func (f *FaultFS) trip(op Op) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.count[op]++
	if f.failAt[op] != 0 && f.count[op] == f.failAt[op] {
		return fmt.Errorf("%w: %s #%d", ErrInjected, op, f.count[op])
	}
	return nil
}

// CreateTemp implements FS.
func (f *FaultFS) CreateTemp(pattern string) (File, error) {
	if err := f.trip(OpCreate); err != nil {
		return nil, err
	}
	file, err := f.base.CreateTemp(pattern)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.open++
	if f.open > f.maxOpen {
		f.maxOpen = f.open
	}
	f.mu.Unlock()
	return &faultFile{file: file, fs: f}, nil
}

// Remove implements FS.
func (f *FaultFS) Remove(name string) error { return f.base.Remove(name) }

// faultFile routes every operation through the owning FaultFS's triggers.
type faultFile struct {
	file   File
	fs     *FaultFS
	closed bool
}

func (ff *faultFile) Name() string { return ff.file.Name() }

func (ff *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if err := ff.fs.trip(OpWrite); err != nil {
		return 0, err
	}
	return ff.file.WriteAt(p, off)
}

func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if err := ff.fs.trip(OpRead); err != nil {
		return 0, err
	}
	return ff.file.ReadAt(p, off)
}

func (ff *faultFile) Close() error {
	err := ff.fs.trip(OpClose)
	if !ff.closed {
		ff.closed = true
		ff.fs.mu.Lock()
		ff.fs.open--
		ff.fs.mu.Unlock()
		if cerr := ff.file.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

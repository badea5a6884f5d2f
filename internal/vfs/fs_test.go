package vfs

import (
	"errors"
	"io"
	"os"
	"testing"
)

func TestOSCreateTempRoundTrip(t *testing.T) {
	f, err := OS{}.CreateTemp("qpi-vfs-test-*")
	if err != nil {
		t.Fatal(err)
	}
	name := f.Name()
	defer OS{}.Remove(name)
	if _, err := f.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte(", world"), 5); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := f.ReadAt(buf, 7); err != nil || string(buf) != "world" {
		t.Fatalf("read back %q, %v", buf, err)
	}
	if n, err := f.ReadAt(buf, 10); n != 2 || err != io.EOF {
		t.Fatalf("read across the end: %d bytes, %v; want 2, io.EOF", n, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := (OS{}).Remove(name); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(name); !os.IsNotExist(err) {
		t.Fatalf("file still exists after Remove: %v", err)
	}
}

// TestFaultFSFailsNthOp: WriteAt counts as OpWrite and ReadAt as OpRead;
// only the configured occurrence of each fails, and a failed op touches
// nothing.
func TestFaultFSFailsNthOp(t *testing.T) {
	fs := NewFaultFS(nil).FailAt(OpWrite, 2).FailAt(OpRead, 2)
	f, err := fs.CreateTemp("qpi-vfs-test-*")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Remove(f.Name())
	if _, err := f.WriteAt([]byte("a"), 0); err != nil {
		t.Fatalf("first write: %v", err)
	}
	if _, err := f.WriteAt([]byte("b"), 1); !errors.Is(err, ErrInjected) {
		t.Fatalf("second write: want ErrInjected, got %v", err)
	}
	// The trigger is one-shot: only the exact n-th op fails.
	if _, err := f.WriteAt([]byte("c"), 1); err != nil {
		t.Fatalf("third write: %v", err)
	}
	buf := make([]byte, 2)
	for i, want := range []error{nil, ErrInjected, nil} {
		buf[0], buf[1] = 0, 0
		_, err := f.ReadAt(buf, 0)
		if want == nil && (err != nil || string(buf) != "ac") {
			t.Fatalf("read %d: %q, %v; want \"ac\"", i+1, buf, err)
		}
		if want != nil && (!errors.Is(err, want) || buf[0] != 0) {
			t.Fatalf("read %d: %q, %v; want ErrInjected and nothing read", i+1, buf, err)
		}
	}
	if fs.Count(OpWrite) != 3 || fs.Count(OpRead) != 3 {
		t.Fatalf("write count = %d, read count = %d, want 3 and 3", fs.Count(OpWrite), fs.Count(OpRead))
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFaultFSFailsCreate(t *testing.T) {
	fs := NewFaultFS(nil).FailAt(OpCreate, 1)
	if _, err := fs.CreateTemp("qpi-vfs-test-*"); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if fs.OpenFiles() != 0 {
		t.Fatalf("open files after failed create: %d", fs.OpenFiles())
	}
}

func TestFaultFSOpenCounting(t *testing.T) {
	fs := NewFaultFS(nil)
	var files []File
	for i := 0; i < 3; i++ {
		f, err := fs.CreateTemp("qpi-vfs-test-*")
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Remove(f.Name())
		files = append(files, f)
	}
	if fs.OpenFiles() != 3 || fs.MaxOpenFiles() != 3 {
		t.Fatalf("open=%d max=%d, want 3/3", fs.OpenFiles(), fs.MaxOpenFiles())
	}
	for _, f := range files {
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if fs.OpenFiles() != 0 {
		t.Fatalf("open files after close: %d", fs.OpenFiles())
	}
	if fs.MaxOpenFiles() != 3 {
		t.Fatalf("high-water mark changed: %d", fs.MaxOpenFiles())
	}
}

func TestFaultFSInjectedCloseStillReleases(t *testing.T) {
	fs := NewFaultFS(nil).FailAt(OpClose, 1)
	f, err := fs.CreateTemp("qpi-vfs-test-*")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Remove(f.Name())
	if err := f.Close(); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	// As with a real failed close(2), the descriptor is gone either way.
	if fs.OpenFiles() != 0 {
		t.Fatalf("open files after injected close: %d", fs.OpenFiles())
	}
}

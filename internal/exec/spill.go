package exec

import (
	"bufio"
	"io"
	"sync"

	"qpi/internal/data"
	"qpi/internal/vfs"
)

// Spill I/O buffers are 64 KiB each; a budgeted join can run through
// 2×partitions spill files per execution, so the bufio.Writer/Reader pair
// dominated spill-path allocations. Both are pooled: a spillFile takes a
// writer at creation and a reader at startRead, and returns them — Reset
// to nil first, so a pooled buffer never pins a file descriptor — when the
// file closes. The pools are shared across operators and concurrent
// queries; sync.Pool handles the concurrency.
var (
	spillWriterPool = sync.Pool{
		New: func() any { return bufio.NewWriterSize(nil, 1<<16) },
	}
	spillReaderPool = sync.Pool{
		New: func() any { return bufio.NewReaderSize(nil, 1<<16) },
	}
)

// spillFile is a temporary on-disk run of tuples used by the
// memory-budgeted operators (grace hash join partitions, external sort
// runs). Write everything first, then iterate; the file is deleted on
// close. All I/O goes through an injectable vfs.FS so tests can force
// failures at every phase and count descriptors.
type spillFile struct {
	f     vfs.File
	w     *bufio.Writer
	r     *bufio.Reader
	ncols int
	rows  int64

	// Columnar frame mode (setColumnar): append buffers tuples and
	// flushes them to disk as columnar frames of up to colFrameRows rows
	// (data.EncodeColFrame); next decodes one frame at a time and serves
	// its rows sequentially. The scratch ColBatches are pooled.
	col     bool
	pending data.Batch
	enc     *data.ColBatch
	dec     *data.ColBatch
	decRows data.Batch
	decPos  int

	// Lane-native appends (appendColRows) buffer rows in pcol — a pooled
	// lane batch filled by typed lane-to-lane copies, no tuple
	// materialization — and flush it as columnar frames. win is the frame
	// window of a whole partition dump (appendColAll).
	pcol *data.ColBatch
	win  data.ColBatch
}

// colFrameRows is the number of tuples per columnar spill frame: large
// enough to amortize the frame header and give the typed spans some
// length, small enough that a partially filled partition flushes
// promptly.
const colFrameRows = 256

// setColumnar switches the file to the columnar frame format; must be
// called before the first append.
func (s *spillFile) setColumnar() { s.col = true }

// newSpillFile creates a spill file in the default temp directory via fs
// (nil = the real filesystem).
func newSpillFile(fs vfs.FS, ncols int) (*spillFile, error) {
	if fs == nil {
		fs = vfs.OS{}
	}
	f, err := fs.CreateTemp("qpi-spill-*")
	if err != nil {
		return nil, err
	}
	// Unlink immediately: the file lives until the descriptor closes,
	// and crashes can't leak it.
	fs.Remove(f.Name())
	w := spillWriterPool.Get().(*bufio.Writer)
	w.Reset(f)
	return &spillFile{f: f, w: w, ncols: ncols}, nil
}

// append writes one tuple (columnar mode: buffers it toward the next
// frame flush).
func (s *spillFile) append(t data.Tuple) error {
	s.rows++
	if !s.col {
		return data.EncodeTuple(s.w, t)
	}
	s.pending = append(s.pending, t)
	if len(s.pending) >= colFrameRows {
		return s.flushFrame()
	}
	return nil
}

// flushFrame writes the buffered tuples as one columnar frame.
func (s *spillFile) flushFrame() error {
	if len(s.pending) == 0 {
		return nil
	}
	if s.enc == nil {
		s.enc = data.GetColBatch()
	}
	s.enc.SetRows(s.pending, s.ncols)
	err := data.EncodeColFrame(s.w, s.enc)
	s.pending = s.pending[:0]
	return err
}

// appendColRows writes src's rows idx lane-to-lane toward the next frame
// flushes, cutting at colFrameRows so frames keep their size (columnar
// mode only).
func (s *spillFile) appendColRows(src *data.ColBatch, idx []int32) error {
	s.rows += int64(len(idx))
	if s.pcol == nil {
		s.pcol = data.GetColBatch()
		s.pcol.BeginBuild(s.ncols)
	}
	for len(idx) > 0 {
		take := min(len(idx), colFrameRows-s.pcol.NRows)
		s.pcol.AppendRowsFrom(src, idx[:take])
		idx = idx[take:]
		if s.pcol.NRows >= colFrameRows {
			if err := s.flushColLanes(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flushColLanes writes the buffered lane rows as one columnar frame.
func (s *spillFile) flushColLanes() error {
	if s.pcol == nil || s.pcol.NRows == 0 {
		return nil
	}
	err := data.EncodeColFrame(s.w, s.pcol)
	s.pcol.BeginBuild(s.ncols)
	return err
}

// appendColAll dumps an entire partition lane batch as columnar frames of
// colFrameRows rows, so decode buffers stay bounded. Partition lane
// batches are dense (built by the scatter's appends), so each frame is
// encoded from a window of the lanes, not a copy.
func (s *spillFile) appendColAll(cb *data.ColBatch) error {
	for start := 0; start < cb.NRows; start += colFrameRows {
		s.win.SetWindow(cb.Cols, start, min(start+colFrameRows, cb.NRows))
		if err := data.EncodeColFrame(s.w, &s.win); err != nil {
			return err
		}
	}
	s.rows += int64(cb.NRows)
	return nil
}

// nextColFrame decodes the next columnar frame into dst, reusing its
// lanes; io.EOF at end of file.
func (s *spillFile) nextColFrame(dst *data.ColBatch) error {
	return data.DecodeColFrame(s.r, s.ncols, dst)
}

// readAllCol reads every remaining frame back into dst's lanes.
func (s *spillFile) readAllCol(dst *data.ColBatch) error {
	if err := s.startRead(); err != nil {
		return err
	}
	dst.BeginBuild(s.ncols)
	if s.dec == nil {
		s.dec = data.GetColBatch()
	}
	for {
		err := data.DecodeColFrame(s.r, s.ncols, s.dec)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		dst.AppendBatchFrom(s.dec)
	}
}

// releaseBuffers returns the bufio pair to the pools, detached from the
// file so pooled buffers hold no descriptor (and a stale reader can never
// serve bytes from a previous file).
func (s *spillFile) releaseBuffers() {
	if s.w != nil {
		s.w.Reset(nil)
		spillWriterPool.Put(s.w)
		s.w = nil
	}
	if s.r != nil {
		s.r.Reset(nil)
		spillReaderPool.Put(s.r)
		s.r = nil
	}
}

// startRead flushes writes and rewinds for iteration.
func (s *spillFile) startRead() error {
	if s.col && s.w != nil {
		if err := s.flushFrame(); err != nil {
			return err
		}
		s.pending = nil
		if err := s.flushColLanes(); err != nil {
			return err
		}
	}
	if s.w != nil {
		err := s.w.Flush()
		s.w.Reset(nil)
		spillWriterPool.Put(s.w)
		s.w = nil
		if err != nil {
			return err
		}
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	s.r = spillReaderPool.Get().(*bufio.Reader)
	s.r.Reset(s.f)
	return nil
}

// next returns the next tuple, or (nil, nil) at end of file.
func (s *spillFile) next() (data.Tuple, error) {
	if s.col {
		return s.nextCol()
	}
	t, err := data.DecodeTuple(s.r, s.ncols)
	if err == io.EOF {
		return nil, nil
	}
	return t, err
}

// nextCol serves tuples out of decoded columnar frames.
func (s *spillFile) nextCol() (data.Tuple, error) {
	for s.decPos >= len(s.decRows) {
		if s.dec == nil {
			s.dec = data.GetColBatch()
		}
		err := data.DecodeColFrame(s.r, s.ncols, s.dec)
		if err == io.EOF {
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		s.decRows = s.dec.ToTuples(s.decRows[:0])
		s.decPos = 0
	}
	t := s.decRows[s.decPos]
	s.decPos++
	return t, nil
}

// readAll materializes the remaining tuples.
func (s *spillFile) readAll() ([]data.Tuple, error) {
	if err := s.startRead(); err != nil {
		return nil, err
	}
	out := make([]data.Tuple, 0, s.rows)
	for {
		t, err := s.next()
		if err != nil {
			return nil, err
		}
		if t == nil {
			return out, nil
		}
		out = append(out, t)
	}
}

// close deletes the spill file. Idempotent.
func (s *spillFile) close() error {
	if s.f == nil {
		return nil
	}
	if s.enc != nil {
		data.PutColBatch(s.enc)
		s.enc = nil
	}
	if s.dec != nil {
		data.PutColBatch(s.dec)
		s.dec = nil
	}
	if s.pcol != nil {
		data.PutColBatch(s.pcol)
		s.pcol = nil
	}
	s.pending, s.decRows = nil, nil
	s.releaseBuffers()
	err := s.f.Close()
	s.f = nil
	return err
}

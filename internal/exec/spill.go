package exec

import (
	"bufio"
	"io"
	"sync"

	"qpi/internal/data"
	"qpi/internal/vfs"
)

// Spill I/O buffers are 64 KiB each, one writer per spilled run while it
// is written and one reader while it is read, so the bufio.Writer/Reader
// pair dominated spill-path allocations. Both are pooled: a spillFile
// takes a writer at creation and a reader at startRead, and returns them —
// Reset to nil first, so a pooled buffer never holds a run's extents —
// when the run closes. The pools are shared across operators and
// concurrent queries; sync.Pool handles the concurrency.
var (
	spillWriterPool = sync.Pool{
		New: func() any { return bufio.NewWriterSize(nil, 1<<16) },
	}
	spillReaderPool = sync.Pool{
		New: func() any { return bufio.NewReaderSize(nil, 1<<16) },
	}
)

// spillArena is one spilling operator's temporary file. Every run the
// operator spills (grace partitions of both sides, external sort runs) is
// a list of extents of it, so an operator pays one file create however
// many runs it spills. The file is created on the first run and unlinked
// at once — it lives until the descriptor closes, and crashes can't leak
// it — and closed when its last open run closes; a later spill creates a
// fresh one. All I/O goes through an injectable vfs.FS so tests can force
// failures at every phase and count descriptors. An arena belongs to one
// operator and is used from its executor goroutine only. The operator
// holds only the FS and a pointer; the file's state is allocated with the
// file, only when the operator spills.
type spillArena struct {
	fs  vfs.FS     // nil = the real filesystem
	cur *arenaFile // the file of the open runs; nil or closed when none is open
}

// arenaFile is an arena's temporary file, shared by the runs in it.
type arenaFile struct {
	f    vfs.File
	end  int64 // append point: bytes written to f
	pos  int64 // f's offset; -1 when unknown after a failed op
	runs int   // runs created and not yet closed
}

// extent is a byte range of the arena's file.
type extent struct{ off, n int64 }

// newRun starts a spilled run of ncols-wide tuples in the arena, creating
// the file if no run holds it open.
func (a *spillArena) newRun(ncols int) (*spillFile, error) {
	if a.cur == nil || a.cur.runs == 0 {
		fs := a.fs
		if fs == nil {
			fs = vfs.OS{}
		}
		f, err := fs.CreateTemp("qpi-spill-*")
		if err != nil {
			return nil, err
		}
		// A failed unlink leaves only the name behind; the runs still work.
		_ = fs.Remove(f.Name())
		a.cur = &arenaFile{f: f}
	}
	a.cur.runs++
	s := &spillFile{af: a.cur, ncols: ncols}
	s.w = spillWriterPool.Get().(*bufio.Writer)
	s.w.Reset(runWriter{s})
	return s, nil
}

// seek moves the file offset to off unless it is already there.
func (af *arenaFile) seek(off int64) error {
	if af.pos == off {
		return nil
	}
	if _, err := af.f.Seek(off, io.SeekStart); err != nil {
		af.pos = -1
		return err
	}
	af.pos = off
	return nil
}

// release closes one run; the last one closes the file.
func (af *arenaFile) release() error {
	af.runs--
	if af.runs > 0 {
		return nil
	}
	err := af.f.Close()
	af.f = nil
	return err
}

// runWriter appends a run's flushed bytes at the arena's end, growing the
// run's last extent when it ends there.
type runWriter struct{ s *spillFile }

func (w runWriter) Write(p []byte) (int, error) {
	s, a := w.s, w.s.af
	if err := a.seek(a.end); err != nil {
		return 0, err
	}
	n, err := a.f.Write(p)
	if n > 0 {
		if k := len(s.ext) - 1; k >= 0 && s.ext[k].off+s.ext[k].n == a.end {
			s.ext[k].n += int64(n)
		} else {
			s.ext = append(s.ext, extent{a.end, int64(n)})
		}
		a.end += int64(n)
		a.pos += int64(n)
	}
	if err != nil {
		a.pos = -1
	}
	return n, err
}

// runReader serves a run's extents in order, seeking only when another
// run's I/O moved the offset; io.EOF at the run's end.
type runReader struct{ s *spillFile }

func (r runReader) Read(p []byte) (int, error) {
	s, a := r.s, r.s.af
	for s.rext < len(s.ext) && s.roff == s.ext[s.rext].n {
		s.rext, s.roff = s.rext+1, 0
	}
	if s.rext == len(s.ext) {
		return 0, io.EOF
	}
	e := s.ext[s.rext]
	if err := a.seek(e.off + s.roff); err != nil {
		return 0, err
	}
	if rest := e.n - s.roff; int64(len(p)) > rest {
		p = p[:rest]
	}
	n, err := a.f.Read(p)
	s.roff += int64(n)
	a.pos += int64(n)
	switch {
	case err == io.EOF && n > 0:
		err = nil
	case err == io.EOF:
		err = io.ErrUnexpectedEOF // the file is shorter than the run
	}
	if err != nil {
		a.pos = -1
	}
	return n, err
}

// spillFile is a run of tuples spilled by a memory-budgeted operator (a
// grace hash join partition, an external sort run), stored as extents of
// the operator's spillArena. Write everything first, then iterate; the
// run's bytes are freed with the arena's file.
type spillFile struct {
	af    *arenaFile // nil once closed
	ext   []extent
	rext  int   // extent being read
	roff  int64 // bytes of ext[rext] already read
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
// lanes; io.EOF at the end of the run.
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
// run so pooled buffers hold no reference to it (and a stale reader can
// never serve bytes from a previous run).
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

// startRead flushes writes and rewinds to the run's first extent.
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
	s.rext, s.roff = 0, 0
	if s.r == nil {
		s.r = spillReaderPool.Get().(*bufio.Reader)
	}
	s.r.Reset(runReader{s})
	return nil
}

// next returns the next tuple, or (nil, nil) at the end of the run.
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

// close releases the run's buffers and its hold on the arena, closing
// the arena's file if it was the last open run. Idempotent.
func (s *spillFile) close() error {
	if s.af == nil {
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
	err := s.af.release()
	s.af, s.ext = nil, nil
	return err
}

// Package disk persists tables in a block-structured binary file format
// and scans them back with the same block-level random-sampling semantics
// as the in-memory scans. It makes the paper's setting literal: the
// evaluation ran against on-disk PostgreSQL tables, where the estimation
// framework's CPU cost hides behind I/O (§5.2.2's argument for why the
// overheads are small). The ext-disk experiment uses this path.
//
// File layout (all integers little-endian):
//
//	magic "QPIT" | version u16 | schema | block data... | block index | footer
//	schema: ncols u16, then per column: alias, name (u16-len strings), kind u8
//	block:  tupleCount u32, then tuples (data.EncodeTuple); per value: kind u8 + payload
//	        (int: i64, float: f64, string: u32-len bytes, null: none)
//	index:  numBlocks u32, then per block: offset u64, tupleCount u32
//	footer: rowCount u64 | index offset u64 | magic "TIPQ"
package disk

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"qpi/internal/data"
	"qpi/internal/storage"
)

const (
	magic       = "QPIT"
	footerMagic = "TIPQ"
	version     = 1
)

// WriteTable serializes a table to path.
func WriteTable(path string, t *storage.Table) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	w := newCountingWriter(f)

	// Header + schema.
	w.WriteString(magic)
	w.U16(version)
	cols := t.Schema().Cols
	w.U16(uint16(len(cols)))
	for _, c := range cols {
		w.Str16(c.Table)
		w.Str16(c.Name)
		w.U8(uint8(c.Kind))
	}

	// Blocks, each row's cells read from the table's lanes.
	type blockMeta struct {
		offset uint64
		count  uint32
	}
	metas := make([]blockMeta, 0, t.NumBlocks())
	row := make(data.Tuple, len(cols))
	for lo := 0; lo < t.NumRows(); lo += storage.BlockSize {
		hi := min(lo+storage.BlockSize, t.NumRows())
		metas = append(metas, blockMeta{offset: w.offset(), count: uint32(hi - lo)})
		w.U32(uint32(hi - lo))
		for r := lo; r < hi; r++ {
			for c := range cols {
				row[c] = t.Lane(c).ValueAt(r)
			}
			w.Tuple(row)
		}
	}

	// Index + footer.
	indexOffset := w.offset()
	w.U32(uint32(len(metas)))
	for _, m := range metas {
		w.U64(m.offset)
		w.U32(m.count)
	}
	w.U64(uint64(t.NumRows()))
	w.U64(indexOffset)
	w.WriteString(footerMagic)
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// byteCounter counts the bytes written through it.
type byteCounter struct {
	w io.Writer
	n uint64
}

func (c *byteCounter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += uint64(n)
	return n, err
}

// countingWriter buffers writes to a file, tracking the byte offset and
// the first error.
type countingWriter struct {
	file *byteCounter
	w    *bufio.Writer
	err  error
}

func newCountingWriter(f io.Writer) *countingWriter {
	file := &byteCounter{w: f}
	return &countingWriter{file: file, w: bufio.NewWriterSize(file, 1<<16)}
}

// offset returns the number of bytes written so far.
func (c *countingWriter) offset() uint64 { return c.file.n + uint64(c.w.Buffered()) }

func (c *countingWriter) write(p []byte) {
	if c.err == nil {
		_, c.err = c.w.Write(p)
	}
}

// Tuple writes t in the tuple wire format (data.EncodeTuple).
func (c *countingWriter) Tuple(t data.Tuple) {
	if c.err == nil {
		c.err = data.EncodeTuple(c.w, t)
	}
}

func (c *countingWriter) WriteString(s string) { c.write([]byte(s)) }
func (c *countingWriter) U8(v uint8)           { c.write([]byte{v}) }
func (c *countingWriter) U16(v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	c.write(b[:])
}
func (c *countingWriter) U32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	c.write(b[:])
}
func (c *countingWriter) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	c.write(b[:])
}
func (c *countingWriter) Str16(s string) {
	if len(s) > 65535 {
		c.err = fmt.Errorf("disk: string too long (%d bytes)", len(s))
		return
	}
	c.U16(uint16(len(s)))
	c.WriteString(s)
}

// TableFile is an opened on-disk table with random block access.
type TableFile struct {
	f       *os.File
	schema  *data.Schema
	rows    int64
	offsets []uint64
	counts  []uint32
}

// OpenTable opens a table file written by WriteTable.
func OpenTable(path string) (*TableFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	t := &TableFile{f: f}
	if err := t.readMeta(); err != nil {
		f.Close()
		return nil, err
	}
	return t, nil
}

func (t *TableFile) readMeta() error {
	// Footer.
	fi, err := t.f.Stat()
	if err != nil {
		return err
	}
	const footerLen = 8 + 8 + 4
	if fi.Size() < footerLen+6 {
		return fmt.Errorf("disk: file too short")
	}
	foot := make([]byte, footerLen)
	if _, err := t.f.ReadAt(foot, fi.Size()-footerLen); err != nil {
		return err
	}
	if string(foot[16:20]) != footerMagic {
		return fmt.Errorf("disk: bad footer magic")
	}
	t.rows = int64(binary.LittleEndian.Uint64(foot[0:8]))
	indexOffset := int64(binary.LittleEndian.Uint64(foot[8:16]))

	// Header + schema.
	r := bufio.NewReader(io.NewSectionReader(t.f, 0, fi.Size()))
	head := make([]byte, 6)
	if _, err := io.ReadFull(r, head); err != nil {
		return err
	}
	if string(head[:4]) != magic {
		return fmt.Errorf("disk: bad magic %q", head[:4])
	}
	if v := binary.LittleEndian.Uint16(head[4:6]); v != version {
		return fmt.Errorf("disk: unsupported version %d", v)
	}
	ncols, err := readU16(r)
	if err != nil {
		return err
	}
	cols := make([]data.Column, ncols)
	for i := range cols {
		alias, err := readStr16(r)
		if err != nil {
			return err
		}
		name, err := readStr16(r)
		if err != nil {
			return err
		}
		kind, err := r.ReadByte()
		if err != nil {
			return err
		}
		cols[i] = data.Column{Table: alias, Name: name, Kind: data.Kind(kind)}
	}
	t.schema = data.NewSchema(cols...)

	// Index.
	ir := bufio.NewReader(io.NewSectionReader(t.f, indexOffset, fi.Size()-indexOffset))
	var nb uint32
	if err := binary.Read(ir, binary.LittleEndian, &nb); err != nil {
		return err
	}
	t.offsets = make([]uint64, nb)
	t.counts = make([]uint32, nb)
	for i := uint32(0); i < nb; i++ {
		if err := binary.Read(ir, binary.LittleEndian, &t.offsets[i]); err != nil {
			return err
		}
		if err := binary.Read(ir, binary.LittleEndian, &t.counts[i]); err != nil {
			return err
		}
	}
	return nil
}

// Schema returns the stored schema.
func (t *TableFile) Schema() *data.Schema { return t.schema }

// NumRows returns the stored row count.
func (t *TableFile) NumRows() int64 { return t.rows }

// NumBlocks returns the number of stored blocks.
func (t *TableFile) NumBlocks() int { return len(t.offsets) }

// Close releases the file handle.
func (t *TableFile) Close() error { return t.f.Close() }

// ReadBlock decodes block i.
func (t *TableFile) ReadBlock(i int) ([]data.Tuple, error) {
	if i < 0 || i >= len(t.offsets) {
		return nil, fmt.Errorf("disk: block %d out of range [0,%d)", i, len(t.offsets))
	}
	var end uint64
	if i+1 < len(t.offsets) {
		end = t.offsets[i+1]
	} else {
		fi, err := t.f.Stat()
		if err != nil {
			return nil, err
		}
		end = uint64(fi.Size())
	}
	r := bufio.NewReader(io.NewSectionReader(t.f, int64(t.offsets[i]), int64(end-t.offsets[i])))
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, err
	}
	if count != t.counts[i] {
		return nil, fmt.Errorf("disk: block %d count mismatch (%d vs index %d)", i, count, t.counts[i])
	}
	out := make([]data.Tuple, count)
	for ti := range out {
		tu, err := data.DecodeTuple(r, t.schema.Len())
		if err == io.EOF {
			err = fmt.Errorf("disk: block %d ends after %d of its %d tuples: %w", i, ti, count, io.ErrUnexpectedEOF)
		}
		if err != nil {
			return nil, err
		}
		out[ti] = tu
	}
	return out, nil
}

// Load materializes the whole file as an in-memory table.
func (t *TableFile) Load(name string) (*storage.Table, error) {
	schema := t.schema
	if name != "" {
		schema = schema.Rename(name)
	} else if len(schema.Cols) > 0 {
		name = schema.Cols[0].Table
	}
	out := storage.NewTable(name, schema)
	for b := 0; b < t.NumBlocks(); b++ {
		tuples, err := t.ReadBlock(b)
		if err != nil {
			return nil, err
		}
		for _, tu := range tuples {
			if err := out.Append(tu); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func readU16(r io.Reader) (uint16, error) {
	var v uint16
	err := binary.Read(r, binary.LittleEndian, &v)
	return v, err
}

func readStr16(r io.Reader) (string, error) {
	n, err := readU16(r)
	if err != nil {
		return "", err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

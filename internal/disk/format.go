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
//	block:  tupleCount u32, then tuples; per value: kind u8 + payload
//	        (int: i64, float: f64, string: u32-len bytes, null: none)
//	index:  numBlocks u32, then per block: offset u64, tupleCount u32
//	footer: rowCount u64 | index offset u64 | magic "TIPQ"
package disk

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
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
	w := &countingWriter{w: bufio.NewWriterSize(f, 1<<16)}

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
	for lo := 0; lo < t.NumRows(); lo += storage.BlockSize {
		hi := min(lo+storage.BlockSize, t.NumRows())
		metas = append(metas, blockMeta{offset: w.n, count: uint32(hi - lo)})
		w.U32(uint32(hi - lo))
		for r := lo; r < hi; r++ {
			for c := range cols {
				v := t.Lane(c).ValueAt(r)
				w.U8(uint8(v.Kind))
				switch v.Kind {
				case data.KindInt:
					w.U64(uint64(v.I))
				case data.KindFloat:
					w.U64(math.Float64bits(v.F))
				case data.KindString:
					w.U32(uint32(len(v.S)))
					w.WriteString(v.S)
				}
			}
		}
	}

	// Index + footer.
	indexOffset := w.n
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
	return w.w.(*bufio.Writer).Flush()
}

// countingWriter tracks the byte offset while writing.
type countingWriter struct {
	w   io.Writer
	n   uint64
	err error
}

func (c *countingWriter) write(p []byte) {
	if c.err != nil {
		return
	}
	n, err := c.w.Write(p)
	c.n += uint64(n)
	c.err = err
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
	ncols := t.schema.Len()
	out := make([]data.Tuple, count)
	for ti := range out {
		tu := make(data.Tuple, ncols)
		for c := 0; c < ncols; c++ {
			kind, err := r.ReadByte()
			if err != nil {
				return nil, err
			}
			switch data.Kind(kind) {
			case data.KindNull:
				tu[c] = data.Null()
			case data.KindInt:
				var v uint64
				if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
					return nil, err
				}
				tu[c] = data.Int(int64(v))
			case data.KindFloat:
				var v uint64
				if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
					return nil, err
				}
				tu[c] = data.Float(math.Float64frombits(v))
			case data.KindString:
				var n uint32
				if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
					return nil, err
				}
				b := make([]byte, n)
				if _, err := io.ReadFull(r, b); err != nil {
					return nil, err
				}
				tu[c] = data.Str(string(b))
			default:
				return nil, fmt.Errorf("disk: block %d: unknown value kind %d", i, kind)
			}
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

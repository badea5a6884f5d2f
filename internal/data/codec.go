package data

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strings"
)

// Tuple wire format, used by the table-file format (internal/disk), whose
// blocks are runs of encoded tuples, and by composite group and join keys
// (exec.GroupKey), which are their components' encodings concatenated:
// per value a kind byte followed by the payload — int64/float64
// little-endian, strings with a u32 length prefix, NULL with no payload.
// The kind byte and the length prefix keep every encoding self-delimiting,
// so two tuples encode alike only if they are equal value by value.

// AppendValue appends the wire encoding of v to dst. A value of unknown
// kind appends nothing and reports an error.
func AppendValue(dst []byte, v Value) ([]byte, error) {
	switch v.Kind {
	case KindNull:
		return append(dst, byte(v.Kind)), nil
	case KindInt:
		return binary.LittleEndian.AppendUint64(append(dst, byte(v.Kind)), uint64(v.I)), nil
	case KindFloat:
		return binary.LittleEndian.AppendUint64(append(dst, byte(v.Kind)), math.Float64bits(v.F)), nil
	case KindString:
		dst = binary.LittleEndian.AppendUint32(append(dst, byte(v.Kind)), uint32(len(v.S)))
		return append(dst, v.S...), nil
	}
	return dst, fmt.Errorf("data: encode: unknown kind %d", v.Kind)
}

// EncodeTuple writes the wire encoding of t to w.
func EncodeTuple(w *bufio.Writer, t Tuple) error {
	b := w.AvailableBuffer()
	for _, v := range t {
		var err error
		if b, err = AppendValue(b, v); err != nil {
			return err
		}
	}
	_, err := w.Write(b)
	return err
}

// DecodeTuple reads one ncols-wide tuple from r. It returns io.EOF
// cleanly when the stream ends exactly at a tuple boundary.
func DecodeTuple(r *bufio.Reader, ncols int) (Tuple, error) {
	t := make(Tuple, ncols)
	var b [8]byte
	for c := 0; c < ncols; c++ {
		kind, err := r.ReadByte()
		if err != nil {
			if err == io.EOF && c == 0 {
				return nil, io.EOF
			}
			return nil, fmt.Errorf("data: decode: truncated tuple: %w", err)
		}
		switch Kind(kind) {
		case KindNull:
			t[c] = Null()
		case KindInt:
			if _, err := io.ReadFull(r, b[:]); err != nil {
				return nil, fmt.Errorf("data: decode int: %w", err)
			}
			t[c] = Int(int64(binary.LittleEndian.Uint64(b[:])))
		case KindFloat:
			if _, err := io.ReadFull(r, b[:]); err != nil {
				return nil, fmt.Errorf("data: decode float: %w", err)
			}
			t[c] = Float(math.Float64frombits(binary.LittleEndian.Uint64(b[:])))
		case KindString:
			if _, err := io.ReadFull(r, b[:4]); err != nil {
				return nil, fmt.Errorf("data: decode string length: %w", err)
			}
			n := binary.LittleEndian.Uint32(b[:4])
			s := make([]byte, n)
			if _, err := io.ReadFull(r, s); err != nil {
				return nil, fmt.Errorf("data: decode string: %w", err)
			}
			t[c] = Str(string(s))
		default:
			return nil, fmt.Errorf("data: decode: unknown kind %d", kind)
		}
	}
	return t, nil
}

// Columnar frame wire format, used by the spill files of columnar-mode
// operators: a frame packs the live rows of one ColBatch column-major —
// a magic byte, a u32 row count, then per column a kind/flags byte
// followed by the column payload. Homogeneous columns encode a packed
// NULL bitmap (only when NULLs are present) and one typed span: int64
// and float64 lanes as n×8 little-endian bytes, string lanes as n u32
// cumulative end-offsets followed by the concatenated bytes (the
// dictionary/offsets layout). Mixed columns fall back to n per-row kind
// tags with per-row payloads.
//
// Both directions move lanes, not values: the encoder fills the
// bufio.Writer's free space with a run of a lane at a time, and the
// decoder reads fixed-width spans (lanes, end-offsets, tags, bitmap
// bytes) straight out of the bufio.Reader's buffer a buffered chunk at a
// time. A string column's bytes are read as one string per frame column,
// which every row of the column is a substring of.

// colFrameMagic marks the start of a columnar frame.
const colFrameMagic = 0xCF

// Column flag bits in the high nibble of the kind/flags byte.
const (
	colFlagNulls = 0x10
	colFlagMixed = 0x20
)

// EncodeColFrame appends one frame holding cb's live rows (selection
// compacted away) to w.
func EncodeColFrame(w *bufio.Writer, cb *ColBatch) error {
	n := cb.Live()
	hdr := binary.LittleEndian.AppendUint32(append(w.AvailableBuffer(), colFrameMagic), uint32(n))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	for c := 0; c < cb.Width(); c++ {
		if err := encodeColumn(w, cb, c, n); err != nil {
			return err
		}
	}
	return nil
}

// liveValue returns the k-th live row's value of column c.
func (cb *ColBatch) liveValue(c, k int) Value {
	if cb.Sel != nil {
		return cb.Value(c, int(cb.Sel[k]))
	}
	return cb.Value(c, k)
}

func encodeColumn(w *bufio.Writer, cb *ColBatch, c, n int) error {
	if v := &cb.Cols[c]; cb.Sel == nil && v.built && v.Tags == nil && v.Kind != KindNull {
		return encodeLane(w, v, n)
	}
	// One detection pass over the live rows decides the layout.
	kind := KindNull
	mixed := false
	hasNulls := false
	for k := 0; k < n; k++ {
		vk := cb.liveValue(c, k).Kind
		if vk == KindNull {
			hasNulls = true
			continue
		}
		if kind == KindNull {
			kind = vk
		} else if vk != kind {
			mixed = true
			break
		}
	}
	var b [8]byte
	if mixed {
		if err := w.WriteByte(byte(kind) | colFlagMixed); err != nil {
			return err
		}
		for k := 0; k < n; k++ {
			if err := w.WriteByte(byte(cb.liveValue(c, k).Kind)); err != nil {
				return err
			}
		}
		for k := 0; k < n; k++ {
			v := cb.liveValue(c, k)
			switch v.Kind {
			case KindInt:
				binary.LittleEndian.PutUint64(b[:], uint64(v.I))
				if _, err := w.Write(b[:]); err != nil {
					return err
				}
			case KindFloat:
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.F))
				if _, err := w.Write(b[:]); err != nil {
					return err
				}
			case KindString:
				binary.LittleEndian.PutUint32(b[:4], uint32(len(v.S)))
				if _, err := w.Write(b[:4]); err != nil {
					return err
				}
				if _, err := w.WriteString(v.S); err != nil {
					return err
				}
			}
		}
		return nil
	}
	flags := byte(kind)
	if hasNulls {
		flags |= colFlagNulls
	}
	if err := w.WriteByte(flags); err != nil {
		return err
	}
	if hasNulls {
		if err := writeNullBits(w, cb, c, n); err != nil {
			return err
		}
	}
	switch kind {
	case KindNull:
		// All rows NULL: no payload.
	case KindInt:
		for k := 0; k < n; k++ {
			binary.LittleEndian.PutUint64(b[:], uint64(cb.liveValue(c, k).I))
			if _, err := w.Write(b[:]); err != nil {
				return err
			}
		}
	case KindFloat:
		for k := 0; k < n; k++ {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(cb.liveValue(c, k).F))
			if _, err := w.Write(b[:]); err != nil {
				return err
			}
		}
	case KindString:
		// Cumulative end-offsets (NULL rows repeat the previous offset),
		// then the concatenated bytes.
		off := uint32(0)
		for k := 0; k < n; k++ {
			off += uint32(len(cb.liveValue(c, k).S))
			binary.LittleEndian.PutUint32(b[:4], off)
			if _, err := w.Write(b[:4]); err != nil {
				return err
			}
		}
		for k := 0; k < n; k++ {
			if s := cb.liveValue(c, k).S; s != "" {
				if _, err := w.WriteString(s); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// encodeLane writes the first n rows of a built single-kind vector
// straight from its lane and bitmap — the bytes encodeColumn's per-value
// walk produces, without building a Value per cell. NULL rows encode the
// zero value whatever the lane holds under them; a lane without NULL
// rows is copied without looking at its bitmap.
func encodeLane(w *bufio.Writer, v *ColVec, n int) error {
	nulls := 0
	for i, x := range v.Nulls {
		if rest := n - i<<6; rest <= 0 {
			break
		} else if rest < 64 {
			x &= 1<<uint(rest) - 1
		}
		nulls += bits.OnesCount64(x)
	}
	kind := v.Kind
	if nulls == n {
		kind = KindNull
	}
	flags := byte(kind)
	if nulls > 0 {
		flags |= colFlagNulls
	}
	if err := w.WriteByte(flags); err != nil {
		return err
	}
	if nulls > 0 {
		err := writeChunks(w, (n+7)/8, 1, func(b []byte, k int) {
			for i := range b {
				row := 8 * (k + i)
				var x uint64
				if row>>6 < len(v.Nulls) {
					x = v.Nulls[row>>6] >> uint(row&63)
				}
				if rest := n - row; rest < 8 {
					x &= 1<<uint(rest) - 1
				}
				b[i] = byte(x)
			}
		})
		if err != nil {
			return err
		}
	}
	hasNulls := nulls > 0
	switch kind {
	case KindInt:
		return writeChunks(w, n, 8, func(b []byte, k int) {
			for i, x := range v.Ints[k : k+len(b)/8] {
				if hasNulls && v.Nulls.Get(k+i) {
					x = 0
				}
				binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
			}
		})
	case KindFloat:
		return writeChunks(w, n, 8, func(b []byte, k int) {
			for i, x := range v.Floats[k : k+len(b)/8] {
				if hasNulls && v.Nulls.Get(k+i) {
					x = 0
				}
				binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
			}
		})
	case KindString:
		off := uint32(0)
		err := writeChunks(w, n, 4, func(b []byte, k int) {
			for i, s := range v.Strs[k : k+len(b)/4] {
				if !hasNulls || !v.Nulls.Get(k+i) {
					off += uint32(len(s))
				}
				binary.LittleEndian.PutUint32(b[4*i:], off)
			}
		})
		for k := 0; err == nil && k < n; k++ {
			if !hasNulls || !v.Nulls.Get(k) {
				_, err = w.WriteString(v.Strs[k])
			}
		}
		return err
	}
	return nil
}

// writeChunks writes n values of size bytes each to w straight into its
// free buffer space: fill(b, k) encodes values k, k+1, … into the whole
// of b, as many as fit before w must flush.
func writeChunks(w *bufio.Writer, n, size int, fill func(b []byte, k int)) error {
	for k := 0; k < n; {
		if w.Available() < size {
			if err := w.Flush(); err != nil {
				return err
			}
		}
		m := min(n-k, w.Available()/size)
		b := w.AvailableBuffer()[:m*size]
		fill(b, k)
		if _, err := w.Write(b); err != nil {
			return err
		}
		k += m
	}
	return nil
}

// writeNullBits packs the live rows' NULL flags LSB-first.
func writeNullBits(w *bufio.Writer, cb *ColBatch, c, n int) error {
	var cur byte
	for k := 0; k < n; k++ {
		if cb.liveValue(c, k).Kind == KindNull {
			cur |= 1 << uint(k&7)
		}
		if k&7 == 7 {
			if err := w.WriteByte(cur); err != nil {
				return err
			}
			cur = 0
		}
	}
	if n&7 != 0 {
		return w.WriteByte(cur)
	}
	return nil
}

// DecodeColFrame reads one ncols-wide frame from r into cb (reusing its
// lane capacity). It returns io.EOF cleanly when the stream ends exactly
// at a frame boundary.
func DecodeColFrame(r *bufio.Reader, ncols int, cb *ColBatch) error {
	magic, err := r.ReadByte()
	if err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("data: decode frame: %w", err)
	}
	if magic != colFrameMagic {
		return fmt.Errorf("data: decode frame: bad magic 0x%x", magic)
	}
	hdr, err := next(r, 4)
	if err != nil {
		return fmt.Errorf("data: decode frame header: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	cb.ensureWidth(ncols)
	cb.NRows = n
	cb.Sel = nil
	cb.Rows = nil
	for c := 0; c < ncols; c++ {
		if err := decodeColumn(r, &cb.Cols[c], n); err != nil {
			return fmt.Errorf("data: decode frame col %d: %w", c, err)
		}
	}
	return nil
}

func decodeColumn(r *bufio.Reader, v *ColVec, n int) error {
	flags, err := r.ReadByte()
	if err != nil {
		return short(err)
	}
	v.reset()
	kind := Kind(flags & 0x0f)
	if flags&colFlagMixed != 0 {
		return decodeMixed(r, v, kind, n)
	}
	v.Kind = kind
	if flags&colFlagNulls != 0 {
		if err := readNulls(r, &v.Nulls, n); err != nil {
			return err
		}
	}
	switch kind {
	case KindNull:
		for k := 0; k < n; k++ {
			v.Nulls.Set(k)
		}
	case KindInt:
		lane := growLane(v.Ints, n)
		v.Ints = lane
		return readChunks(r, n, 8, func(b []byte, k int) {
			for i := range lane[k : k+len(b)/8] {
				lane[k+i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
			}
		})
	case KindFloat:
		lane := growLane(v.Floats, n)
		v.Floats = lane
		return readChunks(r, n, 8, func(b []byte, k int) {
			for i := range lane[k : k+len(b)/8] {
				lane[k+i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
			}
		})
	case KindString:
		offs := make([]uint32, n)
		err := readChunks(r, n, 4, func(b []byte, k int) {
			for i := range offs[k : k+len(b)/4] {
				offs[k+i] = binary.LittleEndian.Uint32(b[4*i:])
			}
		})
		if err != nil {
			return err
		}
		prev := uint32(0)
		for _, off := range offs {
			if off < prev {
				return fmt.Errorf("bad string offset %d", off)
			}
			prev = off
		}
		// One string holds the column's bytes and every row is a
		// substring of it, so a row kept past the frame keeps that
		// column's bytes alive and nothing else.
		blob, err := readString(r, int(prev))
		if err != nil {
			return err
		}
		v.Strs = growLane(v.Strs, n)
		prev = 0
		for k, off := range offs {
			v.Strs[k], prev = blob[prev:off], off
		}
	default:
		return fmt.Errorf("bad kind %d", kind)
	}
	return nil
}

// decodeMixed decodes an n-row mixed frame column into the reset vector
// v: per-row tags, then each row's payload into its kind's lane.
func decodeMixed(r *bufio.Reader, v *ColVec, kind Kind, n int) error {
	tags := make([]Kind, n)
	err := readChunks(r, n, 1, func(b []byte, k int) {
		for i, x := range b {
			tags[k+i] = Kind(x)
		}
	})
	if err != nil {
		return err
	}
	v.Kind = kind
	v.Tags = tags
	v.Ints = growLane(v.Ints, n)
	v.Floats = growLane(v.Floats, n)
	v.Strs = growLane(v.Strs, n)
	for k, tag := range tags {
		v.Ints[k], v.Floats[k], v.Strs[k] = 0, 0, ""
		var b []byte
		switch tag {
		case KindInt, KindFloat:
			if b, err = next(r, 8); err != nil {
				return err
			}
			if tag == KindInt {
				v.Ints[k] = int64(binary.LittleEndian.Uint64(b))
			} else {
				v.Floats[k] = math.Float64frombits(binary.LittleEndian.Uint64(b))
			}
		case KindString:
			if b, err = next(r, 4); err != nil {
				return err
			}
			if v.Strs[k], err = readString(r, int(binary.LittleEndian.Uint32(b))); err != nil {
				return err
			}
		case KindNull:
		default:
			return fmt.Errorf("bad tag %d", tag)
		}
	}
	return nil
}

// readNulls reads the packed NULL bits of an n-row frame column into the
// cleared bitmap bm a byte at a time; bits past the last row are dropped.
func readNulls(r *bufio.Reader, bm *Bitmap, n int) error {
	for len(*bm) < (n+63)>>6 {
		*bm = append(*bm, 0)
	}
	return readChunks(r, (n+7)/8, 1, func(b []byte, k int) {
		for i, x := range b {
			row := 8 * (k + i)
			bits := uint64(x)
			if rest := n - row; rest < 8 {
				bits &= 1<<uint(rest) - 1
			}
			(*bm)[row>>6] |= bits << uint(row&63)
		}
	})
}

// readChunks decodes n values of size bytes each straight out of r's
// buffer: fill(b, k) gets values k, k+1, … — all that r holds buffered,
// or one value after a refill.
func readChunks(r *bufio.Reader, n, size int, fill func(b []byte, k int)) error {
	for k := 0; k < n; {
		m := min(n-k, max(r.Buffered()/size, 1))
		b, err := next(r, m*size)
		if err != nil {
			return err
		}
		fill(b, k)
		k += m
	}
	return nil
}

// readString reads r's next n bytes as one newly allocated string.
func readString(r *bufio.Reader, n int) (string, error) {
	var sb strings.Builder
	sb.Grow(n)
	err := readChunks(r, n, 1, func(b []byte, _ int) { sb.Write(b) })
	return sb.String(), err
}

// next consumes r's next n bytes (n ≤ r.Size()) and returns them from r's
// buffer, valid until the next read from r.
func next(r *bufio.Reader, n int) ([]byte, error) {
	b, err := r.Peek(n)
	if len(b) < n {
		return nil, short(err)
	}
	_, _ = r.Discard(n) // cannot fail: Peek buffered the n bytes
	return b, nil
}

// short is the error of a frame that ends early.
func short(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

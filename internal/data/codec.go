package data

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
)

// Tuple wire format, shared by the table-file format (internal/disk) and
// the operator spill files (internal/exec): per value a kind byte
// followed by the payload — int64/float64 little-endian, strings with a
// u32 length prefix, NULL with no payload.

// EncodeTuple appends the wire encoding of t to w.
func EncodeTuple(w *bufio.Writer, t Tuple) error {
	var b [8]byte
	for _, v := range t {
		if err := w.WriteByte(byte(v.Kind)); err != nil {
			return err
		}
		switch v.Kind {
		case KindNull:
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
		default:
			return fmt.Errorf("data: encode: unknown kind %d", v.Kind)
		}
	}
	return nil
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
	if err := w.WriteByte(colFrameMagic); err != nil {
		return err
	}
	var b [8]byte
	binary.LittleEndian.PutUint32(b[:4], uint32(n))
	if _, err := w.Write(b[:4]); err != nil {
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
// zero value whatever the lane holds under them.
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
		for k := 0; k < n; k += 8 {
			var x uint64
			if k>>6 < len(v.Nulls) {
				x = v.Nulls[k>>6] >> uint(k&63)
			}
			if rest := n - k; rest < 8 {
				x &= 1<<uint(rest) - 1
			}
			if err := w.WriteByte(byte(x)); err != nil {
				return err
			}
		}
	}
	switch kind {
	case KindInt:
		return writeLane(w, v.Ints[:n], v.Nulls, func(b []byte, x int64) []byte {
			return binary.LittleEndian.AppendUint64(b, uint64(x))
		})
	case KindFloat:
		return writeLane(w, v.Floats[:n], v.Nulls, func(b []byte, x float64) []byte {
			return binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		})
	case KindString:
		off := uint32(0)
		err := writeLane(w, v.Strs[:n], v.Nulls, func(b []byte, s string) []byte {
			off += uint32(len(s))
			return binary.LittleEndian.AppendUint32(b, off)
		})
		for k := 0; err == nil && k < n; k++ {
			if !v.Nulls.Get(k) {
				_, err = w.WriteString(v.Strs[k])
			}
		}
		return err
	}
	return nil
}

// writeLane appends put(x) for every x of lane to w, filling w's free
// buffer space in place; rows set in nulls put the zero value.
func writeLane[T any](w *bufio.Writer, lane []T, nulls Bitmap, put func([]byte, T) []byte) error {
	var zero T
	for k := 0; k < len(lane); {
		buf := w.AvailableBuffer()
		for room := max(cap(buf)/8, 1); room > 0 && k < len(lane); room, k = room-1, k+1 {
			if nulls.Get(k) {
				buf = put(buf, zero)
			} else {
				buf = put(buf, lane[k])
			}
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
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
	var b [8]byte
	if _, err := io.ReadFull(r, b[:4]); err != nil {
		return fmt.Errorf("data: decode frame header: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(b[:4]))
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
		return err
	}
	v.reset()
	kind := Kind(flags & 0x0f)
	var b [8]byte
	if flags&colFlagMixed != 0 {
		tags := make([]Kind, n)
		for k := 0; k < n; k++ {
			tb, err := r.ReadByte()
			if err != nil {
				return err
			}
			tags[k] = Kind(tb)
		}
		v.Kind = kind
		v.Tags = tags
		v.Ints = growLane(v.Ints, n)
		v.Floats = growLane(v.Floats, n)
		v.Strs = growLane(v.Strs, n)
		for k := 0; k < n; k++ {
			v.Ints[k], v.Floats[k], v.Strs[k] = 0, 0, ""
			switch tags[k] {
			case KindInt:
				if _, err := io.ReadFull(r, b[:]); err != nil {
					return err
				}
				v.Ints[k] = int64(binary.LittleEndian.Uint64(b[:]))
			case KindFloat:
				if _, err := io.ReadFull(r, b[:]); err != nil {
					return err
				}
				v.Floats[k] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
			case KindString:
				if _, err := io.ReadFull(r, b[:4]); err != nil {
					return err
				}
				s := make([]byte, binary.LittleEndian.Uint32(b[:4]))
				if _, err := io.ReadFull(r, s); err != nil {
					return err
				}
				v.Strs[k] = string(s)
			case KindNull:
			default:
				return fmt.Errorf("bad tag %d", tags[k])
			}
		}
		return nil
	}
	v.Kind = kind
	if flags&colFlagNulls != 0 {
		nb := (n + 7) / 8
		for i := 0; i < nb; i++ {
			bb, err := r.ReadByte()
			if err != nil {
				return err
			}
			for j := 0; j < 8; j++ {
				if bb&(1<<uint(j)) != 0 {
					v.Nulls.Set(i*8 + j)
				}
			}
		}
	}
	switch kind {
	case KindNull:
		for k := 0; k < n; k++ {
			v.Nulls.Set(k)
		}
	case KindInt:
		v.Ints = growLane(v.Ints, n)
		for k := 0; k < n; k++ {
			if _, err := io.ReadFull(r, b[:]); err != nil {
				return err
			}
			v.Ints[k] = int64(binary.LittleEndian.Uint64(b[:]))
		}
	case KindFloat:
		v.Floats = growLane(v.Floats, n)
		for k := 0; k < n; k++ {
			if _, err := io.ReadFull(r, b[:]); err != nil {
				return err
			}
			v.Floats[k] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
	case KindString:
		offs := make([]uint32, n)
		for k := 0; k < n; k++ {
			if _, err := io.ReadFull(r, b[:4]); err != nil {
				return err
			}
			offs[k] = binary.LittleEndian.Uint32(b[:4])
		}
		total := uint32(0)
		if n > 0 {
			total = offs[n-1]
		}
		blob := make([]byte, total)
		if _, err := io.ReadFull(r, blob); err != nil {
			return err
		}
		v.Strs = growLane(v.Strs, n)
		prev := uint32(0)
		for k := 0; k < n; k++ {
			if offs[k] < prev || offs[k] > total {
				return fmt.Errorf("bad string offset %d", offs[k])
			}
			v.Strs[k] = string(blob[prev:offs[k]])
			prev = offs[k]
		}
	default:
		return fmt.Errorf("bad kind %d", kind)
	}
	return nil
}

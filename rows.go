package qpi

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"unicode/utf8"

	"qpi/internal/data"
)

// This file is the client boundary of the columnar engine: the one place
// where column batches become the [][]any rows Query.Rows returns (each
// value an int64, float64, string or nil), or the JSON text of those rows
// that Query.RowsJSON writes straight from the lanes.

// valueAny converts one engine value to its client form.
func valueAny(v data.Value) any {
	switch v.Kind {
	case data.KindInt:
		return v.I
	case data.KindFloat:
		return v.F
	case data.KindString:
		return v.S
	default:
		return nil
	}
}

// tupleRow converts one tuple into dst (len(dst) == len(t)).
func tupleRow(dst []any, t data.Tuple) {
	for c, v := range t {
		dst[c] = valueAny(v)
	}
}

// appendRows appends cb's live rows to out in selection order. The rows
// of one batch are carved from a single allocation. A batch that carries
// its rows (a scan's, or anything behind a row adapter) converts them
// directly; a lane-backed one is read a column at a time, dispatching on
// the lane's kind once per column instead of once per value.
func appendRows(out [][]any, cb *data.ColBatch) [][]any {
	live, w := cb.Live(), cb.Width()
	if live == 0 {
		return out
	}
	cells := make([]any, live*w)
	first := len(out)
	for k := 0; k < live; k++ {
		out = append(out, cells[k*w:(k+1)*w:(k+1)*w])
	}
	rows := out[first:]
	if cb.Rows != nil {
		if cb.Sel == nil {
			for k, t := range cb.Rows[:cb.NRows] {
				tupleRow(rows[k], t)
			}
		} else {
			for k, i := range cb.Sel {
				tupleRow(rows[k], cb.Rows[i])
			}
		}
		return out
	}
	for c := 0; c < w; c++ {
		laneCells(rows, c, cb.Col(c), cb.Sel)
	}
	return out
}

// laneCells writes column c of every row from the vector v; sel lists the
// live row indexes (nil = the first len(rows)).
func laneCells(rows [][]any, c int, v *data.ColVec, sel []int32) {
	at := func(k int) int {
		if sel != nil {
			return int(sel[k])
		}
		return k
	}
	if !v.Homogeneous() {
		for k := range rows {
			rows[k][c] = valueAny(v.ValueAt(at(k)))
		}
		return
	}
	// Cells start nil, so a NULL row is one that is skipped.
	switch v.Kind {
	case data.KindInt:
		for k := range rows {
			if i := at(k); !v.Nulls.Get(i) {
				rows[k][c] = v.Ints[i]
			}
		}
	case data.KindFloat:
		for k := range rows {
			if i := at(k); !v.Nulls.Get(i) {
				rows[k][c] = v.Floats[i]
			}
		}
	case data.KindString:
		for k := range rows {
			if i := at(k); !v.Nulls.Get(i) {
				rows[k][c] = v.Strs[i]
			}
		}
	}
}

// RowsJSON is RowsContext with the rows encoded as JSON: data is exactly
// the bytes encoding/json's Marshal writes for the [][]any RowsContext
// would return (null when there are no rows), and n is their count. The
// text is written from the column lanes as the batches arrive, so no row
// is boxed. On an execution error data holds the rows drained before it,
// as RowsContext's do. A float JSON cannot represent (NaN, ±Inf) ends the
// run with the *json.UnsupportedValueError Marshal would return; data is
// then not valid JSON.
func (q *Query) RowsJSON(ctx context.Context) ([]byte, int64, error) {
	if err := q.claim(); err != nil {
		return nil, 0, err
	}
	var buf []byte
	done := 0
	cfg := newRunCfg(nil)
	n, err := q.execRun(ctx, &cfg, func(cb *data.ColBatch) (err error) {
		buf = growRowsJSON(buf, done, cb.Live(), cb.Width(), q.root.Stats().Total())
		buf, err = appendRowsJSON(buf, cb)
		done += cb.Live()
		return err
	})
	if len(buf) == 0 {
		return append(buf, "null"...), n, err
	}
	return append(buf, ']'), n, err
}

// growRowsJSON makes room in dst, the text of the first done rows, for
// the next live rows of the given width, sizing the buffer by the root's
// current cardinality estimate, total: what the estimate still expects is
// reserved at the bytes per row written so far (trusted up to four times
// the text so far, since an estimate may be far off), so a result whose
// estimate is right grows its buffer about twice, not once per append
// step. A buffer that must grow at least doubles. Before the first row
// the bytes per row are guessed from the width.
func growRowsJSON(dst []byte, done, live, width int, total float64) []byte {
	perRow := 8*width + 2
	if done > 0 {
		perRow = len(dst)/done + 1
	}
	need := live * perRow
	if cap(dst)-len(dst) >= need {
		return dst
	}
	grow := max(need, len(dst))
	if rest := (total - float64(done)) * float64(perRow); done > 0 && rest > float64(grow) {
		grow = int(min(rest, float64(max(grow, 4*len(dst)))))
	}
	return slices.Grow(dst, grow)
}

// appendRowsJSON appends cb's live rows to dst in selection order, each
// a JSON array preceded by '[' when dst is empty (the first row opens the
// outer array) and by ',' otherwise; the caller closes the outer array.
// Cells are read in place, from the row cache of a batch that carries one
// and from the lanes otherwise, so nothing is pivoted or boxed; a non-NULL
// cell of an int lane, the common case, goes straight to AppendInt.
func appendRowsJSON(dst []byte, cb *data.ColBatch) ([]byte, error) {
	var err error
	for k, live := 0, cb.Live(); k < live; k++ {
		i := k
		if cb.Sel != nil {
			i = int(cb.Sel[k])
		}
		if len(dst) == 0 {
			dst = append(dst, "[["...)
		} else {
			dst = append(dst, ",["...)
		}
		for c := range cb.Cols {
			if c > 0 {
				dst = append(dst, ',')
			}
			var v data.Value
			if cb.Rows != nil {
				v = cb.Rows[i][c]
			} else if lane := cb.Col(c); lane.Kind == data.KindInt && lane.Tags == nil && !lane.Nulls.Get(i) {
				dst = strconv.AppendInt(dst, lane.Ints[i], 10)
				continue
			} else {
				v = lane.ValueAt(i)
			}
			if dst, err = appendValueJSON(dst, v); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	return dst, nil
}

// appendValueJSON appends v as encoding/json writes valueAny(v).
func appendValueJSON(dst []byte, v data.Value) ([]byte, error) {
	switch v.Kind {
	case data.KindInt:
		return strconv.AppendInt(dst, v.I, 10), nil
	case data.KindFloat:
		return appendFloatJSON(dst, v.F)
	case data.KindString:
		return appendStringJSON(dst, v.S), nil
	default:
		return append(dst, "null"...), nil
	}
}

// appendFloatJSON appends f as encoding/json writes a float64: the
// shortest representation that round-trips, in 'f' form unless its
// magnitude is below 1e-6 or at least 1e21, where it is 'e' form with
// the exponent's leading zero dropped (1e-07 becomes 1e-7). NaN and ±Inf
// have no JSON form and give Marshal's error.
func appendFloatJSON(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// appendStringJSON appends s quoted as encoding/json writes a string with
// HTML escaping on (Marshal's default): '"' and '\\' are backslashed,
// \b \f \n \r \t take their short escapes, other control bytes and
// '<', '>', '&' become \u00XX, each byte of invalid UTF-8 becomes
// \ufffd, and U+2028 and U+2029 are escaped.
func appendStringJSON(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

package qpi

import "qpi/internal/data"

// This file is the client boundary of the columnar engine: the one place
// where column batches become the [][]any rows Query.Rows returns. Each
// value is an int64, float64, string or nil.

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

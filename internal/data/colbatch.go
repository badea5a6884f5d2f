package data

import (
	"sync"
	"sync/atomic"
)

// This file is the columnar (SoA) counterpart of Batch: a ColBatch holds
// one typed vector per column plus a selection vector, so the vectorized
// kernels in internal/exec can run tight loops over flat []int64 /
// []float64 / []string lanes instead of dispatching on boxed Values per
// row. A ColBatch converts losslessly to and from the row representation
// (FromTuples/ToTuples) and can carry the original rows alongside the
// vectors, which lets operators pivot only the columns they touch.
//
// Ownership contract (the columnar extension of the Batch contract in
// batch.go): a *ColBatch returned by NextColBatch — the struct, its
// vectors and its selection — is valid until the next NextColBatch call
// on the same operator; producers reuse all backing arrays. Consumers
// narrowing the selection must copy the struct header (a shallow copy
// sharing the column lanes) and substitute their own selection slice
// rather than mutate the producer's. String lane entries and row
// references persist in reused backing arrays until overwritten or the
// batch is released; Release (and PutColBatch) clears them so a pooled
// batch never pins string or tuple backing memory.
//
// Table-resident lanes (SetWindow — what a table scan hands out, and a
// hash aggregation over its finished group lanes): every column lane is a
// window of the stored table itself (or of lanes the producer no longer
// writes), not of a buffer the producer refills, and the batch carries no
// Rows. The lanes are read-only for everyone, the producer included; they
// stay valid for the whole query (a table is append-only and a window
// never sees the appended rows), so the until-the-next-call rule above
// only binds the struct and its NULL bitmaps, which the producer does
// reuse. A window's capacity ends where
// the window does, so a stray append reallocates instead of writing into
// the table — but reset, BeginBuild, Release and PutColBatch would
// truncate or clear the table's own memory (release clears Strs across
// capacity): a view is dropped by assignment, never reset, released or
// pooled.

// Bitmap is a packed per-row bit set, used to mark NULL rows in a column
// vector. The zero value is an empty bitmap with no bits set; bits past
// the stored words read as unset.
type Bitmap []uint64

// Get reports whether bit i is set.
func (b Bitmap) Get(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<uint(i&63)) != 0
}

// Set sets bit i, growing the bitmap as needed.
func (b *Bitmap) Set(i int) {
	w := i >> 6
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << uint(i&63)
}

// Clear unsets every bit, retaining capacity.
func (b *Bitmap) Clear() {
	s := *b
	for i := range s {
		s[i] = 0
	}
	*b = s[:0]
}

// Any reports whether any bit is set.
func (b Bitmap) Any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// window appends bits [lo, hi) of b, re-based at bit 0, to dst.
func (b Bitmap) window(dst Bitmap, lo, hi int) Bitmap {
	n := hi - lo
	first, shift := lo>>6, uint(lo&63)
	for w := first; w < first+(n+63)>>6; w++ {
		var x uint64
		if w < len(b) {
			x = b[w] >> shift
			if shift != 0 && w+1 < len(b) {
				x |= b[w+1] << (64 - shift)
			}
		}
		dst = append(dst, x)
	}
	if r := uint(n & 63); r != 0 {
		dst[len(dst)-1] &= 1<<r - 1
	}
	return dst
}

// ColVec is one column's vector: a typed lane per value kind plus a NULL
// bitmap. Kind is the column's value kind; when every non-NULL row shares
// one kind (the overwhelmingly common case) only that kind's lane is
// populated and Tags is nil. Mixed-kind columns carry a per-row Tags
// slice and populate every lane, trading memory for correctness.
type ColVec struct {
	Kind   Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Nulls  Bitmap
	// Tags holds per-row kinds for mixed columns; nil means homogeneous
	// (every non-NULL row is v.Kind).
	Tags []Kind

	built bool
}

// Homogeneous reports whether the vector is single-kinded (no per-row
// tags), the precondition of every typed fast path.
func (v *ColVec) Homogeneous() bool { return v.Tags == nil }

// ValueAt reconstructs the row's Value without allocating.
func (v *ColVec) ValueAt(i int) Value {
	if v.Tags != nil {
		switch v.Tags[i] {
		case KindInt:
			return Int(v.Ints[i])
		case KindFloat:
			return Float(v.Floats[i])
		case KindString:
			return Str(v.Strs[i])
		default:
			return Null()
		}
	}
	if v.Nulls.Get(i) {
		return Null()
	}
	switch v.Kind {
	case KindInt:
		return Int(v.Ints[i])
	case KindFloat:
		return Float(v.Floats[i])
	case KindString:
		return Str(v.Strs[i])
	default:
		return Null()
	}
}

// reset prepares the vector for refilling. Lanes are truncated, not
// zeroed: stale string entries persist in the backing array until
// overwritten or Release, mirroring how a reused Batch retains tuple
// references between fills.
func (v *ColVec) reset() {
	v.Kind = KindNull
	v.Ints = v.Ints[:0]
	v.Floats = v.Floats[:0]
	v.Strs = v.Strs[:0]
	v.Nulls.Clear()
	v.Tags = nil
	v.built = true
}

// release clears the vector for pooling: string lane entries are zeroed
// across the full capacity so a pooled vector never pins string backing
// arrays.
func (v *ColVec) release() {
	clear(v.Strs[:cap(v.Strs)])
	v.reset()
	v.built = false
}

// Reset prepares the vector for refilling (exported for the vectorized
// expression evaluator, which writes computed columns directly).
func (v *ColVec) Reset() { v.reset() }

// AppendVal appends val as row index row; rows must be appended in
// ascending order starting at 0.
func (v *ColVec) AppendVal(row int, val Value) { v.appendVal(row, val) }

// appendGrow appends x to a lane, reserving a full batch worth of
// capacity on the lane's first growth: a building vector pays one
// allocation per lane instead of log2(BatchSize) doublings, and reuse
// via reset/BeginBuild then never reallocates.
func appendGrow[T any](s []T, x T) []T {
	if len(s) == cap(s) {
		n := 2 * cap(s)
		if bs := BatchSize(); n < bs {
			n = bs
		}
		ns := make([]T, len(s), n)
		copy(ns, s)
		s = ns
	}
	return append(s, x)
}

// padTo extends the active lane with zero values up to length n, so rows
// written after a NULL- or other-kind prefix still index correctly.
func (v *ColVec) padTo(n int) {
	switch v.Kind {
	case KindInt:
		for len(v.Ints) < n {
			v.Ints = appendGrow(v.Ints, 0)
		}
	case KindFloat:
		for len(v.Floats) < n {
			v.Floats = appendGrow(v.Floats, 0)
		}
	case KindString:
		for len(v.Strs) < n {
			v.Strs = appendGrow(v.Strs, "")
		}
	}
}

// promoteMixed converts a homogeneous vector holding row rows into the
// tagged mixed representation.
func (v *ColVec) promoteMixed(rows int) {
	tags := make([]Kind, rows)
	for i := 0; i < rows; i++ {
		if v.Nulls.Get(i) {
			tags[i] = KindNull
		} else {
			tags[i] = v.Kind
		}
	}
	v.Tags = tags
	v.padTo(rows)
	for len(v.Ints) < rows {
		v.Ints = append(v.Ints, 0)
	}
	for len(v.Floats) < rows {
		v.Floats = append(v.Floats, 0)
	}
	for len(v.Strs) < rows {
		v.Strs = append(v.Strs, "")
	}
}

// appendVal appends val as row index row (rows must be appended in
// order starting at 0). The leading branch is the dense hot path — a
// matching-kind value landing exactly at the lane's end, which is every
// value of a homogeneous NULL-free column — and touches one lane once;
// padding, kind adoption and mixed promotion live in the cold tail.
func (v *ColVec) appendVal(row int, val Value) {
	if v.Tags != nil {
		v.appendMixed(val)
		return
	}
	if k := val.Kind; k == v.Kind && k != KindNull {
		switch k {
		case KindInt:
			if len(v.Ints) == row {
				v.Ints = appendGrow(v.Ints, val.I)
				return
			}
		case KindFloat:
			if len(v.Floats) == row {
				v.Floats = appendGrow(v.Floats, val.F)
				return
			}
		case KindString:
			if len(v.Strs) == row {
				v.Strs = appendGrow(v.Strs, val.S)
				return
			}
		}
		// Sparse lane (a NULL run left it short): pad, then push.
		v.padTo(row)
		v.push(val)
		return
	}
	switch {
	case val.Kind == KindNull:
		v.Nulls.Set(row)
		v.padTo(row + 1)
	case v.Kind == KindNull:
		// First non-NULL value: the vector adopts its kind.
		v.Kind = val.Kind
		v.padTo(row)
		v.push(val)
	default:
		v.promoteMixed(row)
		v.appendMixed(val)
	}
}

// push appends val to the active lane (val.Kind == v.Kind).
func (v *ColVec) push(val Value) {
	switch val.Kind {
	case KindInt:
		v.Ints = appendGrow(v.Ints, val.I)
	case KindFloat:
		v.Floats = appendGrow(v.Floats, val.F)
	case KindString:
		v.Strs = appendGrow(v.Strs, val.S)
	}
}

// appendMixed appends val to a tagged vector, keeping every lane aligned.
func (v *ColVec) appendMixed(val Value) {
	v.Tags = append(v.Tags, val.Kind)
	var iv int64
	var fv float64
	var sv string
	switch val.Kind {
	case KindInt:
		iv = val.I
	case KindFloat:
		fv = val.F
	case KindString:
		sv = val.S
	}
	v.Ints = appendGrow(v.Ints, iv)
	v.Floats = appendGrow(v.Floats, fv)
	v.Strs = appendGrow(v.Strs, sv)
}

// ColBatch is a batch in columnar form: NRows rows across len(Cols)
// columns, with an optional selection vector and an optional row-major
// cache of the same rows.
type ColBatch struct {
	NRows int
	Cols  []ColVec
	// Sel is the selection vector: the live row indexes in ascending
	// order. nil selects all NRows rows (the fast path); an empty non-nil
	// Sel selects none.
	Sel []int32
	// Rows optionally carries the same rows in row-major form, indexed by
	// row number like the vectors. Operators wrapping a row producer set
	// Rows and pivot columns lazily via Col; purely columnar producers
	// leave it nil.
	Rows []Tuple
}

// Width returns the number of columns.
func (cb *ColBatch) Width() int { return len(cb.Cols) }

// Live returns the number of selected rows.
func (cb *ColBatch) Live() int {
	if cb.Sel != nil {
		return len(cb.Sel)
	}
	return cb.NRows
}

// EachLive calls f with every live row's index in row order.
func (cb *ColBatch) EachLive(f func(i int)) {
	if cb.Sel == nil {
		for i := 0; i < cb.NRows; i++ {
			f(i)
		}
		return
	}
	for _, i := range cb.Sel {
		f(int(i))
	}
}

// ensureWidth sizes Cols to w columns, retaining existing vector buffers.
func (cb *ColBatch) ensureWidth(w int) {
	if cap(cb.Cols) >= w {
		cb.Cols = cb.Cols[:w]
		return
	}
	nc := make([]ColVec, w)
	copy(nc, cb.Cols)
	cb.Cols = nc
}

// EnsureWidth sizes the batch to w columns, retaining vector buffers
// (exported for columnar operators assembling output batches).
func (cb *ColBatch) EnsureWidth(w int) { cb.ensureWidth(w) }

// ShareCol makes column i a shallow copy of v, sharing its lanes — the
// projection pass-through path. The share is valid exactly as long as v
// is (until the producer's next NextColBatch).
func (cb *ColBatch) ShareCol(i int, v *ColVec) { cb.Cols[i] = *v }

// OwnCol returns column i for in-place vector writing (computed
// projection columns), marking it built.
func (cb *ColBatch) OwnCol(i int) *ColVec {
	v := &cb.Cols[i]
	v.built = true
	return v
}

// SetRows points the batch at a row-major slice without pivoting any
// column: columns materialize lazily on first Col access. The rows are
// referenced, not copied, and must stay valid for the batch's lifetime.
func (cb *ColBatch) SetRows(rows []Tuple, width int) {
	cb.ensureWidth(width)
	cb.NRows = len(rows)
	cb.Sel = nil
	cb.Rows = rows
	for c := range cb.Cols {
		cb.Cols[c].built = false
	}
}

// SetWindow makes the batch a read-only view of rows [lo, hi) of a stored
// table's column vectors, or of other finished lanes (dense: one entry per
// row, as AppendVal and the batch appends build them). Nothing is copied
// but the NULL bits, which are re-based into bitmaps the batch owns and
// reuses (lo need not be word-aligned). See the table-resident clause of the ownership
// contract above.
func (cb *ColBatch) SetWindow(lanes []ColVec, lo, hi int) {
	cb.ensureWidth(len(lanes))
	cb.NRows = hi - lo
	cb.Sel = nil
	cb.Rows = nil
	for c := range lanes {
		cb.Cols[c] = lanes[c].window(lo, hi, cb.Cols[c].Nulls[:0])
	}
}

// window returns a view of rows [lo, hi) of v; nulls is the cleared bitmap
// the view's NULL bits go to. A homogeneous vector has only its own kind's
// lane (as long as the vector), a mixed one all three.
func (v *ColVec) window(lo, hi int, nulls Bitmap) ColVec {
	w := ColVec{Kind: v.Kind, Nulls: nulls, built: true}
	if len(v.Ints) >= hi {
		w.Ints = v.Ints[lo:hi:hi]
	}
	if len(v.Floats) >= hi {
		w.Floats = v.Floats[lo:hi:hi]
	}
	if len(v.Strs) >= hi {
		w.Strs = v.Strs[lo:hi:hi]
	}
	if v.Tags != nil {
		w.Tags = v.Tags[lo:hi:hi]
	}
	if len(v.Nulls) > 0 {
		w.Nulls = v.Nulls.window(nulls, lo, hi)
	}
	return w
}

// Col returns column c, pivoting it out of the row cache on first
// access. Untouched columns of a row-backed batch are never pivoted —
// that is the pass-through path projections and scans rely on.
func (cb *ColBatch) Col(c int) *ColVec {
	v := &cb.Cols[c]
	if !v.built {
		cb.materialize(c)
	}
	return v
}

// materialize pivots column c from the row cache in one pass over all
// rows (selection independent, so a narrowed view shares the pivot): the
// column's kind is that of its first non-NULL value, and the typed copy
// runs until a row of another kind shows the column to be mixed, which
// redoes it value by value into the tagged form.
func (cb *ColBatch) materialize(c int) {
	if cb.Rows == nil {
		panic("data: ColBatch.Col: column not built and no row cache")
	}
	v := &cb.Cols[c]
	v.reset()
	rows := cb.Rows[:cb.NRows]
	for _, t := range rows {
		if v.Kind = t[c].Kind; v.Kind != KindNull {
			break
		}
	}
	mixed := false
	switch kind := v.Kind; kind {
	case KindInt:
		v.Ints = growLane(v.Ints, len(rows))
		for i, t := range rows {
			if val := &t[c]; val.Kind == kind {
				v.Ints[i] = val.I
			} else if val.Kind == KindNull {
				v.Ints[i] = 0
				v.Nulls.Set(i)
			} else {
				mixed = true
				break
			}
		}
	case KindFloat:
		v.Floats = growLane(v.Floats, len(rows))
		for i, t := range rows {
			if val := &t[c]; val.Kind == kind {
				v.Floats[i] = val.F
			} else if val.Kind == KindNull {
				v.Floats[i] = 0
				v.Nulls.Set(i)
			} else {
				mixed = true
				break
			}
		}
	case KindString:
		v.Strs = growLane(v.Strs, len(rows))
		for i, t := range rows {
			if val := &t[c]; val.Kind == kind {
				v.Strs[i] = val.S
			} else if val.Kind == KindNull {
				v.Strs[i] = ""
				v.Nulls.Set(i)
			} else {
				mixed = true
				break
			}
		}
	default:
		// All-NULL column: no lane, ValueAt returns NULL for every row.
		for i := range rows {
			v.Nulls.Set(i)
		}
	}
	if mixed {
		v.reset()
		for i, t := range rows {
			v.appendVal(i, t[c])
		}
	}
}

func growLane[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// Value returns the value at (col, row) without allocating, preferring
// the row cache so reads never force a pivot.
func (cb *ColBatch) Value(col, row int) Value {
	if cb.Rows != nil {
		return cb.Rows[row][col]
	}
	return cb.Col(col).ValueAt(row)
}

// FromTuples pivots rows into a pure columnar image: every column is
// materialized eagerly and the row cache is dropped, so the result
// depends only on the vectors. width is the schema arity (needed when
// rows is empty).
func (cb *ColBatch) FromTuples(rows []Tuple, width int) {
	cb.SetRows(rows, width)
	for c := range cb.Cols {
		cb.Col(c)
	}
	cb.Rows = nil
}

// ToTuples appends the live rows to buf in selection order and returns
// it. Row-backed batches hand out the cached tuples; columnar batches
// materialize fresh tuples carved from one arena allocation.
func (cb *ColBatch) ToTuples(buf Batch) Batch {
	if cb.Rows != nil {
		if cb.Sel == nil {
			return append(buf, cb.Rows[:cb.NRows]...)
		}
		for _, i := range cb.Sel {
			buf = append(buf, cb.Rows[i])
		}
		return buf
	}
	w := len(cb.Cols)
	live := cb.Live()
	arena := make([]Value, live*w)
	cb.EachLive(func(i int) {
		row := arena[:w:w]
		arena = arena[w:]
		for c := range cb.Cols {
			row[c] = cb.Cols[c].ValueAt(i)
		}
		buf = append(buf, Tuple(row))
	})
	return buf
}

// BeginBuild prepares the batch for row-at-a-time appending via
// AppendRow/AppendRow2: width columns, all built, no selection, no row
// cache. Lane backing arrays are retained across calls; stale string
// entries beyond the new fill persist until Release, exactly like tuple
// references in a reused Batch.
func (cb *ColBatch) BeginBuild(width int) {
	cb.ensureWidth(width)
	cb.NRows = 0
	cb.Sel = nil
	cb.Rows = nil
	for c := range cb.Cols {
		cb.Cols[c].reset()
	}
}

// AppendRow appends t as the next row.
func (cb *ColBatch) AppendRow(t Tuple) {
	row := cb.NRows
	for c := range cb.Cols {
		cb.Cols[c].appendVal(row, t[c])
	}
	cb.NRows++
}

// AppendRow2 appends the concatenation a ⧺ b as the next row without
// materializing the concatenated tuple — the join's zero-copy output
// path.
func (cb *ColBatch) AppendRow2(a, b Tuple) {
	row := cb.NRows
	for c := range a {
		cb.Cols[c].appendVal(row, a[c])
	}
	off := len(a)
	for c := range b {
		cb.Cols[off+c].appendVal(row, b[c])
	}
	cb.NRows++
}

// appendFrom appends src's row i as row index row of v — the per-row
// lane-to-lane copy: what the spill reader reassembles a build partition
// with and what appendRowsFrom falls back to. The
// fast path is a matching-kind typed push straight from src's lane, no
// Value construction; NULLs, kind adoption and mixed sources fall back to
// the appendVal cold tail, which reproduces row-major appends exactly.
func (v *ColVec) appendFrom(src *ColVec, i, row int) {
	if v.Tags != nil || src.Tags != nil {
		v.appendVal(row, src.ValueAt(i))
		return
	}
	if src.Nulls.Get(i) {
		v.Nulls.Set(row)
		v.padTo(row + 1)
		return
	}
	if src.Kind != v.Kind {
		v.appendVal(row, src.ValueAt(i))
		return
	}
	switch v.Kind {
	case KindInt:
		if len(v.Ints) == row {
			v.Ints = appendGrow(v.Ints, src.Ints[i])
			return
		}
	case KindFloat:
		if len(v.Floats) == row {
			v.Floats = appendGrow(v.Floats, src.Floats[i])
			return
		}
	case KindString:
		if len(v.Strs) == row {
			v.Strs = appendGrow(v.Strs, src.Strs[i])
			return
		}
	case KindNull:
		// Both sides all-NULL so far and src row i is non-NULL only when
		// src has a lane; src.Kind == KindNull means the row is NULL.
		v.Nulls.Set(row)
		v.padTo(row + 1)
		return
	}
	// Sparse lane (a NULL run left it short): pad, then push.
	v.padTo(row)
	v.push(src.ValueAt(i))
}

// AppendFrom appends src's row i (an unselected row index) as the next
// row of cb, copying lane-to-lane. cb must be in build form (BeginBuild)
// with the same width as src.
func (cb *ColBatch) AppendFrom(src *ColBatch, i int) {
	row := cb.NRows
	for c := range cb.Cols {
		cb.Cols[c].appendFrom(src.Col(c), i, row)
	}
	cb.NRows++
}

// ReserveLike grows each column's lane of the kind like's column holds
// to n rows, so appending up to n rows of batches shaped like like
// (AppendBatchFrom) reallocates no lane — how the spill reader sizes a
// build partition once from its run's row count.
func (cb *ColBatch) ReserveLike(like *ColBatch, n int) {
	for c := range cb.Cols {
		v := &cb.Cols[c]
		switch like.Col(c).Kind {
		case KindInt:
			v.Ints = reserveLane(v.Ints, n)
		case KindFloat:
			v.Floats = reserveLane(v.Floats, n)
		case KindString:
			v.Strs = reserveLane(v.Strs, n)
		}
	}
}

// AppendBatchFrom appends every live row of src to cb in selection
// order — how the spill reader reassembles a build partition from its
// frames and a sample-order scan a batch from its storage runs.
// Equivalent to AppendFrom row by row; an unselected batch moves a column
// at a time, one typed copy per lane.
func (cb *ColBatch) AppendBatchFrom(src *ColBatch) {
	if src.Sel != nil {
		cb.AppendRowsFrom(src, src.Sel)
		return
	}
	for c := range cb.Cols {
		v, from := &cb.Cols[c], src.Col(c)
		if !v.copiesLane(from) {
			for i := 0; i < src.NRows; i++ {
				v.appendFrom(from, i, cb.NRows+i)
			}
			continue
		}
		v.Kind = from.Kind
		v.padTo(cb.NRows)
		switch n := cb.NRows + src.NRows; v.Kind {
		case KindInt:
			v.Ints = append(reserveLane(v.Ints, n), from.Ints[:src.NRows]...)
		case KindFloat:
			v.Floats = append(reserveLane(v.Floats, n), from.Floats[:src.NRows]...)
		case KindString:
			v.Strs = append(reserveLane(v.Strs, n), from.Strs[:src.NRows]...)
		}
	}
	cb.NRows += src.NRows
}

// copiesLane reports whether rows of src can land in v by a typed lane
// copy alone: a NULL-free single-kind source, into a lane of its own kind
// or into a vector that is all NULL so far, which adopts the kind exactly
// as appendVal does on its first non-NULL value. Everything else goes
// through appendFrom row by row, so the vector ends up in the state the
// row-major append leaves it in either way.
func (v *ColVec) copiesLane(src *ColVec) bool {
	return v.Tags == nil && src.Tags == nil && src.Kind != KindNull && !src.Nulls.Any() &&
		(v.Kind == src.Kind || v.Kind == KindNull)
}

// AppendRowsFrom appends src's rows idx (unselected row indexes) to cb in
// idx order, a column at a time — the kernel of the join's partition
// scatter, which groups a batch's row indexes by partition and moves each
// group with one call. Equivalent to AppendFrom row by row.
func (cb *ColBatch) AppendRowsFrom(src *ColBatch, idx []int32) {
	for c := range cb.Cols {
		cb.Cols[c].appendRowsFrom(src.Col(c), idx, cb.NRows)
	}
	cb.NRows += len(idx)
}

// appendRowsFrom appends src's rows idx as rows base+k of v: where
// copiesLane allows, the lane is reserved once and copied in one typed
// loop.
func (v *ColVec) appendRowsFrom(src *ColVec, idx []int32, base int) {
	if len(idx) == 0 {
		return
	}
	if !v.copiesLane(src) {
		for k, i := range idx {
			v.appendFrom(src, int(i), base+k)
		}
		return
	}
	v.Kind = src.Kind
	v.gatherLanes(src, idx, base, false)
}

// gatherLanes appends src's rows idx to v's active lane as rows base+k
// (src homogeneous of v's kind). With nulls set, a negative index or a
// NULL source row becomes a NULL row; without, idx and src hold neither.
func (v *ColVec) gatherLanes(src *ColVec, idx []int32, base int, nulls bool) {
	v.padTo(base)
	var mark *Bitmap
	if nulls {
		mark = &v.Nulls
	}
	switch v.Kind {
	case KindInt:
		v.Ints = gatherLane(v.Ints, src.Ints, idx, src.Nulls, mark)
	case KindFloat:
		v.Floats = gatherLane(v.Floats, src.Floats, idx, src.Nulls, mark)
	case KindString:
		v.Strs = gatherLane(v.Strs, src.Strs, idx, src.Nulls, mark)
	}
}

// gatherLane appends src[i] for every i of idx to dst, growing it at most
// once. A non-nil mark gets the appended rows that are NULL — a negative
// index or a row set in srcNulls — and those rows append the zero value.
func gatherLane[T any](dst, src []T, idx []int32, srcNulls Bitmap, mark *Bitmap) []T {
	base := len(dst)
	dst = reserveLane(dst, base+len(idx))[:base+len(idx)]
	out := dst[base:]
	if mark == nil {
		for k, i := range idx {
			out[k] = src[i]
		}
		return dst
	}
	var zero T
	for k, i := range idx {
		if i < 0 || srcNulls.Get(int(i)) {
			mark.Set(base + k)
			out[k] = zero
		} else {
			out[k] = src[i]
		}
	}
	return dst
}

// GatherFrom appends src's rows idx[0..n) as rows base+k of v — the
// join's lane-to-lane output gather. A negative index (or a nil src)
// appends NULL, which is how the outer join NULL-pads its build columns.
// The fast paths copy typed lanes with one dispatch per column per call;
// mixed or kind-conflicting columns fall back to appendVal, reproducing
// the row-major gather exactly.
func (v *ColVec) GatherFrom(src *ColVec, idx []int32, base int) {
	n := len(idx)
	if src == nil || (src.Tags == nil && src.Kind == KindNull) {
		for k := 0; k < n; k++ {
			v.appendVal(base+k, Null())
		}
		return
	}
	if src.Tags != nil || v.Tags != nil || (v.Kind != src.Kind && v.Kind != KindNull) {
		for k, i := range idx {
			if i < 0 {
				v.appendVal(base+k, Null())
			} else {
				v.appendVal(base+k, src.ValueAt(int(i)))
			}
		}
		return
	}
	if v.Kind == KindNull {
		v.Kind = src.Kind // adoption: every prior row of v is NULL
	}
	nulls := src.Nulls.Any()
	for k := 0; !nulls && k < len(idx); k++ {
		nulls = idx[k] < 0 // an outer join's NULL pad
	}
	v.gatherLanes(src, idx, base, nulls)
}

// reserveLane grows s's capacity to at least n without changing its
// length, with appendGrow's reservation policy.
func reserveLane[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s
	}
	c := 2 * cap(s)
	if c < n {
		c = n
	}
	if bs := BatchSize(); c < bs {
		c = bs
	}
	ns := make([]T, len(s), c)
	copy(ns, s)
	return ns
}

// RowsBytes returns the summed Tuple.Size of rows idx as if materialized
// — the spill accounting mirror of the row-major partition path — a
// column at a time: the fixed part of every row, plus the string bytes.
func (cb *ColBatch) RowsBytes(idx []int32) int64 {
	n := len(idx) * (24 + 40*len(cb.Cols)) // slice header + one Value struct per column
	for c := range cb.Cols {
		v := cb.Col(c)
		switch {
		case v.Tags != nil:
			for _, i := range idx {
				if v.Tags[i] == KindString {
					n += len(v.Strs[i])
				}
			}
		case v.Kind == KindString:
			for _, i := range idx {
				if !v.Nulls.Get(int(i)) {
					n += len(v.Strs[i])
				}
			}
		}
	}
	return int64(n)
}

// Release clears the batch for reuse or pooling: row references are
// dropped and string lane entries zeroed across their full capacity, so
// a released batch never pins tuple or string backing arrays. The lane
// backing arrays themselves are retained — also those of the columns a
// narrower use left beyond the batch's width (ensureWidth keeps them).
func (cb *ColBatch) Release() {
	cols := cb.Cols[:cap(cb.Cols)]
	for c := range cols {
		cols[c].release()
	}
	cb.NRows = 0
	cb.Sel = nil
	cb.Rows = nil
}

// colBatchPool recycles ColBatch structs (and their lane capacity)
// across operators; see GetColBatch/PutColBatch.
var colBatchPool = sync.Pool{New: func() any { return new(ColBatch) }}

// poolSlack bounds what the pool retains. Lanes keep the capacity they
// grew to and the pool hands a batch to whoever asks next, so without a
// bound one oversized user ends up sizing every pooled batch. The
// remaining such user is the build side of a hash join: a build partition
// is one batch that grows to the partition's size, and under skew one
// partition is most of the table (probe partitions are lists of chunks of
// BatchSize() rows and never outgrow anything). A batch is pooled while
// its lanes have room for no more than poolSlack times the rows its last
// user filled; beyond that it is left to the collector. A single batch's
// worth of room is always kept: every lane reserves that much on first
// growth, so it says nothing about who used it.
const poolSlack = 16

// laneCap returns the largest row capacity any lane of the batch has,
// counting the columns beyond its width: batches of different widths
// share the pool, and a lane hidden past a narrow user's width is still
// held.
func (cb *ColBatch) laneCap() int {
	n := 0
	cols := cb.Cols[:cap(cb.Cols)]
	for c := range cols {
		v := &cols[c]
		n = max(n, cap(v.Ints), cap(v.Floats), cap(v.Strs))
	}
	return n
}

// colBatchesOut counts batches taken from the pool and not handed back.
var colBatchesOut atomic.Int64

// ColBatchesOut returns how many pooled batches are currently held by
// their users. An operator returns every batch it took by the time it is
// closed, however it ended; the leak tests hold the count level across a
// query.
func ColBatchesOut() int64 { return colBatchesOut.Load() }

// GetColBatch takes a cleared batch from the pool.
func GetColBatch() *ColBatch {
	colBatchesOut.Add(1)
	return colBatchPool.Get().(*ColBatch)
}

// PutColBatch releases cb (clearing row and string references, see
// Release) and returns it to the pool, unless its lanes have outgrown
// what it was last used for (see poolSlack).
func PutColBatch(cb *ColBatch) {
	colBatchesOut.Add(-1)
	if cb.laneCap() > max(BatchSize(), poolSlack*cb.NRows) {
		return
	}
	cb.Release()
	colBatchPool.Put(cb)
}

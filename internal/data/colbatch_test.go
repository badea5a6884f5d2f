package data

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// randColValue draws a value whose kind distribution exercises NULLs,
// homogeneous lanes and (for high mixed probability) mixed columns.
func randColValue(rng *rand.Rand, kinds []Kind) Value {
	switch kinds[rng.Intn(len(kinds))] {
	case KindInt:
		return Int(rng.Int63n(1000) - 500)
	case KindFloat:
		return Float(rng.NormFloat64())
	case KindString:
		return Str(string(rune('a' + rng.Intn(26))))
	default:
		return Null()
	}
}

// randColRows builds n rows of width w. Each column gets its own kind
// palette so the batch mixes homogeneous, nullable, all-NULL and
// mixed-kind columns.
func randColRows(rng *rand.Rand, n, w int) []Tuple {
	palettes := make([][]Kind, w)
	for c := range palettes {
		switch rng.Intn(5) {
		case 0:
			palettes[c] = []Kind{KindInt}
		case 1:
			palettes[c] = []Kind{KindInt, KindNull}
		case 2:
			palettes[c] = []Kind{KindFloat, KindNull}
		case 3:
			palettes[c] = []Kind{KindNull}
		default:
			palettes[c] = []Kind{KindInt, KindFloat, KindString, KindNull}
		}
	}
	rows := make([]Tuple, n)
	for i := range rows {
		t := make(Tuple, w)
		for c := range t {
			t[c] = randColValue(rng, palettes[c])
		}
		rows[i] = t
	}
	return rows
}

// TestColBatchRoundTripProperty is the property test of the pivot:
// FromTuples followed by ToTuples must reproduce the row path exactly,
// for every mix of kinds, NULLs and sizes — including sizes that
// straddle the batch-size boundary (BatchSize-1, BatchSize, BatchSize+1).
func TestColBatchRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sizes := []int{0, 1, 2, 7, BatchSize() - 1, BatchSize(), BatchSize() + 1}
	for trial := 0; trial < 30; trial++ {
		n := sizes[trial%len(sizes)]
		w := 1 + rng.Intn(5)
		rows := randColRows(rng, n, w)
		var cb ColBatch
		cb.FromTuples(rows, w)
		if cb.Rows != nil {
			t.Fatal("FromTuples must drop the row cache")
		}
		if cb.NRows != n || cb.Width() != w || cb.Live() != n {
			t.Fatalf("shape: NRows=%d Width=%d Live=%d want %d/%d/%d",
				cb.NRows, cb.Width(), cb.Live(), n, w, n)
		}
		got := cb.ToTuples(nil)
		if len(got) != n {
			t.Fatalf("trial %d: ToTuples returned %d rows, want %d", trial, len(got), n)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], rows[i]) {
				t.Fatalf("trial %d row %d: got %v want %v", trial, i, got[i], rows[i])
			}
		}
		// Per-cell reads must agree with the row path too.
		for i := 0; i < n; i++ {
			for c := 0; c < w; c++ {
				if v := cb.Col(c).ValueAt(i); v != rows[i][c] {
					t.Fatalf("trial %d ValueAt(%d,%d)=%v want %v", trial, c, i, v, rows[i][c])
				}
			}
		}
	}
}

// TestColBatchEmptySelection: an empty non-nil selection selects no rows
// everywhere — Live, ToTuples and the codec all see zero rows.
func TestColBatchEmptySelection(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := randColRows(rng, 16, 3)
	var cb ColBatch
	cb.FromTuples(rows, 3)
	cb.Sel = []int32{}
	if cb.Live() != 0 {
		t.Fatalf("Live=%d want 0", cb.Live())
	}
	if got := cb.ToTuples(nil); len(got) != 0 {
		t.Fatalf("ToTuples returned %d rows, want 0", len(got))
	}
	// Row-backed variant.
	var rb ColBatch
	rb.SetRows(rows, 3)
	rb.Sel = []int32{}
	if got := rb.ToTuples(nil); len(got) != 0 {
		t.Fatalf("row-backed ToTuples returned %d rows, want 0", len(got))
	}
}

// TestColBatchSelectionFastPath: nil selection (all rows live) and an
// explicit all-rows selection must produce identical output, and a
// narrowed selection must pick exactly the chosen rows in order.
func TestColBatchSelectionFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := randColRows(rng, 64, 4)
	var cb ColBatch
	cb.FromTuples(rows, 4)

	all := cb.ToTuples(nil) // Sel == nil fast path
	sel := make([]int32, len(rows))
	for i := range sel {
		sel[i] = int32(i)
	}
	view := cb     // shallow copy per the ownership contract
	view.Sel = sel // explicit all-rows selection
	explicit := view.ToTuples(nil)
	if !reflect.DeepEqual(all, explicit) {
		t.Fatal("nil selection and explicit all-rows selection disagree")
	}

	// Narrowed selection: every third row.
	var narrow []int32
	for i := 0; i < len(rows); i += 3 {
		narrow = append(narrow, int32(i))
	}
	view.Sel = narrow
	if view.Live() != len(narrow) {
		t.Fatalf("Live=%d want %d", view.Live(), len(narrow))
	}
	got := view.ToTuples(nil)
	for k, i := range narrow {
		if !reflect.DeepEqual(got[k], rows[i]) {
			t.Fatalf("narrowed row %d: got %v want %v", k, got[k], rows[i])
		}
	}
	// The shared producer batch must be untouched by the narrowed view.
	if cb.Sel != nil {
		t.Fatal("narrowing a view mutated the producer's selection")
	}
}

// TestColBatchAllNullColumn: a column of only NULLs pivots to a laneless
// vector that still answers every read correctly and round-trips.
func TestColBatchAllNullColumn(t *testing.T) {
	rows := make([]Tuple, 10)
	for i := range rows {
		rows[i] = Tuple{Int(int64(i)), Null()}
	}
	var cb ColBatch
	cb.FromTuples(rows, 2)
	v := cb.Col(1)
	if v.Kind != KindNull || !v.Homogeneous() {
		t.Fatalf("all-NULL column: Kind=%v Tags=%v", v.Kind, v.Tags)
	}
	for i := range rows {
		if got := v.ValueAt(i); !got.IsNull() {
			t.Fatalf("row %d: got %v want NULL", i, got)
		}
	}
	got := cb.ToTuples(nil)
	for i := range rows {
		if !reflect.DeepEqual(got[i], rows[i]) {
			t.Fatalf("row %d: got %v want %v", i, got[i], rows[i])
		}
	}
}

// TestColBatchMixedColumn: a column that changes kind mid-stream
// promotes to the tagged representation without losing earlier rows.
func TestColBatchMixedColumn(t *testing.T) {
	rows := []Tuple{
		{Int(1)}, {Int(2)}, {Null()}, {Str("x")}, {Float(2.5)},
	}
	var cb ColBatch
	cb.FromTuples(rows, 1)
	v := cb.Col(0)
	if v.Homogeneous() {
		t.Fatal("mixed column should carry per-row tags")
	}
	got := cb.ToTuples(nil)
	for i := range rows {
		if !reflect.DeepEqual(got[i], rows[i]) {
			t.Fatalf("row %d: got %v want %v", i, got[i], rows[i])
		}
	}
}

// TestColBatchAppendRow2 checks the join's zero-copy gather: appending
// (a, b) pairs must equal appending materialized concatenations.
func TestColBatchAppendRow2(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	left := randColRows(rng, 20, 2)
	right := randColRows(rng, 20, 3)
	var viaPairs, viaConcat ColBatch
	viaPairs.BeginBuild(5)
	viaConcat.BeginBuild(5)
	for i := range left {
		viaPairs.AppendRow2(left[i], right[i])
		cat := append(append(Tuple{}, left[i]...), right[i]...)
		viaConcat.AppendRow(cat)
	}
	a := viaPairs.ToTuples(nil)
	b := viaConcat.ToTuples(nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("AppendRow2 output differs from materialized concatenation")
	}
}

// TestColBatchLazyPivot: a row-backed batch must not pivot columns the
// consumer never touches.
func TestColBatchLazyPivot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := randColRows(rng, 8, 3)
	var cb ColBatch
	cb.SetRows(rows, 3)
	_ = cb.Col(1)
	if cb.Cols[0].built || cb.Cols[2].built {
		t.Fatal("untouched columns were pivoted")
	}
	if !cb.Cols[1].built {
		t.Fatal("accessed column was not pivoted")
	}
	// Value prefers the row cache and must agree with the pivot.
	for i := range rows {
		if cb.Value(1, i) != rows[i][1] {
			t.Fatalf("Value(1,%d) mismatch", i)
		}
	}
}

// TestColBatchReuse: BeginBuild/Release cycles must not leak earlier
// fills into later reads, matching the Batch reuse contract.
func TestColBatchReuse(t *testing.T) {
	var cb ColBatch
	cb.BeginBuild(2)
	cb.AppendRow(Tuple{Str("leak"), Int(1)})
	cb.AppendRow(Tuple{Str("leak2"), Int(2)})
	first := cb.ToTuples(nil)
	if len(first) != 2 {
		t.Fatal("bad first fill")
	}
	cb.BeginBuild(2)
	cb.AppendRow(Tuple{Int(9), Null()})
	got := cb.ToTuples(nil)
	want := Tuple{Int(9), Null()}
	if len(got) != 1 || !reflect.DeepEqual(got[0], want) {
		t.Fatalf("refill: got %v want [%v]", got, want)
	}
	cb.Release()
	if cb.NRows != 0 || cb.Rows != nil || cb.Sel != nil {
		t.Fatal("Release left state behind")
	}
	// Pool cycle keeps working.
	p := GetColBatch()
	p.BeginBuild(1)
	p.AppendRow(Tuple{Int(42)})
	PutColBatch(p)
}

// TestBitmapEdges exercises the word-boundary bits of the NULL bitmap.
func TestBitmapEdges(t *testing.T) {
	var b Bitmap
	if b.Get(0) || b.Get(200) || b.Any() {
		t.Fatal("zero bitmap should be empty")
	}
	for _, i := range []int{0, 63, 64, 127, 128} {
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Get(1) || b.Get(62) || b.Get(65) {
		t.Fatal("unexpected bit set")
	}
	if !b.Any() {
		t.Fatal("Any=false after Set")
	}
	b.Clear()
	if b.Any() || b.Get(64) {
		t.Fatal("Clear left bits set")
	}
}

// TestColFrameRoundTripProperty: the spill-frame codec must reproduce
// the live rows exactly — selection compacted away — across kind mixes,
// NULL-heavy columns and frame sizes straddling the batch boundary.
func TestColFrameRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sizes := []int{1, 2, 63, 64, 65, 255, 256, 257}
	for trial := 0; trial < 24; trial++ {
		n := sizes[trial%len(sizes)]
		w := 1 + rng.Intn(4)
		rows := randColRows(rng, n, w)
		var cb ColBatch
		cb.FromTuples(rows, w)
		want := rows
		if trial%3 == 1 && n > 1 {
			// Encode under a narrowed selection: only live rows survive.
			var sel []int32
			want = nil
			for i := 0; i < n; i += 2 {
				sel = append(sel, int32(i))
				want = append(want, rows[i])
			}
			cb.Sel = sel
		}

		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := EncodeColFrame(bw, &cb); err != nil {
			t.Fatalf("trial %d: encode: %v", trial, err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}

		var dec ColBatch
		br := bufio.NewReader(&buf)
		if err := DecodeColFrame(br, w, &dec); err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		got := dec.ToTuples(nil)
		if len(got) != len(want) {
			t.Fatalf("trial %d: decoded %d rows, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("trial %d row %d: got %v want %v", trial, i, got[i], want[i])
			}
		}
		// Stream end behaves like the tuple codec: clean EOF.
		if err := DecodeColFrame(br, w, &dec); err != io.EOF {
			t.Fatalf("trial %d: want io.EOF after last frame, got %v", trial, err)
		}
	}
}

// TestColFrameEmptySelectionFrame: a frame encoded from an
// empty-selection batch decodes to zero rows.
func TestColFrameEmptySelectionFrame(t *testing.T) {
	rows := []Tuple{{Int(1)}, {Int(2)}}
	var cb ColBatch
	cb.FromTuples(rows, 1)
	cb.Sel = []int32{}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := EncodeColFrame(bw, &cb); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	var dec ColBatch
	if err := DecodeColFrame(bufio.NewReader(&buf), 1, &dec); err != nil {
		t.Fatal(err)
	}
	if dec.Live() != 0 || len(dec.ToTuples(nil)) != 0 {
		t.Fatalf("empty-selection frame decoded %d rows", dec.Live())
	}
}

// TestSetBatchSizeKnob: the var-backed knob clamps bad values back to
// the default and round-trips good ones.
func TestSetBatchSizeKnob(t *testing.T) {
	defer SetBatchSize(DefaultBatchSize)
	SetBatchSize(256)
	if BatchSize() != 256 {
		t.Fatalf("BatchSize=%d want 256", BatchSize())
	}
	SetBatchSize(0)
	if BatchSize() != DefaultBatchSize {
		t.Fatalf("BatchSize=%d want default after bad value", BatchSize())
	}
}

package data

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCodecPropertyRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ncols := int(n%6) + 1
		tuples := make([]Tuple, 20)
		for i := range tuples {
			tu := make(Tuple, ncols)
			for c := range tu {
				switch rng.Intn(4) {
				case 0:
					tu[c] = Null()
				case 1:
					tu[c] = Int(rng.Int63() - rng.Int63())
				case 2:
					tu[c] = Float(rng.NormFloat64())
				default:
					b := make([]byte, rng.Intn(20))
					rng.Read(b)
					tu[c] = Str(string(b))
				}
			}
			tuples[i] = tu
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		for _, tu := range tuples {
			if err := EncodeTuple(w, tu); err != nil {
				return false
			}
		}
		w.Flush()
		r := bufio.NewReader(&buf)
		for _, want := range tuples {
			got, err := DecodeTuple(r, ncols)
			if err != nil {
				return false
			}
			for c := range want {
				if got[c] != want[c] {
					return false
				}
			}
		}
		_, err := DecodeTuple(r, ncols)
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := EncodeTuple(w, Tuple{Int(1), Str("abc")}); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	full := buf.Bytes()
	// Every strict prefix must fail (not silently succeed), except the
	// empty prefix which is clean EOF.
	for cut := 1; cut < len(full); cut++ {
		r := bufio.NewReader(bytes.NewReader(full[:cut]))
		if _, err := DecodeTuple(r, 2); err == nil {
			t.Fatalf("prefix of %d bytes decoded successfully", cut)
		}
	}
	r := bufio.NewReader(bytes.NewReader(nil))
	if _, err := DecodeTuple(r, 2); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
}

func TestDecodeBadKind(t *testing.T) {
	r := bufio.NewReader(bytes.NewReader([]byte{0xEE}))
	if _, err := DecodeTuple(r, 1); err == nil {
		t.Fatal("bad kind byte accepted")
	}
}

func TestEncodeBadKind(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := EncodeTuple(w, Tuple{{Kind: Kind(99)}}); err == nil {
		t.Fatal("bad kind encoded")
	}
}

func TestKindStringAndValueSize(t *testing.T) {
	for k, want := range map[Kind]string{
		KindNull: "NULL", KindInt: "BIGINT", KindFloat: "DOUBLE", KindString: "VARCHAR",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q", k, k.String())
		}
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind renders empty")
	}
	if Str("abcd").Size() <= Str("").Size() {
		t.Error("string size should grow with content")
	}
}

// frameShapes is one row of the column shapes a frame can meet: integer,
// float and string lanes, each NULL-free and NULL-bearing, a column that
// is NULL until late, one that is NULL throughout and one of mixed kinds.
func frameShapes(i int) Tuple {
	row := Tuple{
		Int(int64(i) - 3), Float(float64(i) / 8), Str("s" + string(rune('a'+i%5))),
		Int(int64(i % 4)), Float(0.5), Str(""), Int(7), Null(), Int(int64(i)),
	}
	if i%3 == 0 {
		row[3], row[4], row[5] = Null(), Null(), Null()
	}
	if i < 11 {
		row[6] = Null()
	}
	switch i % 5 {
	case 1:
		row[8] = Str("m")
	case 2:
		row[8] = Null()
	}
	return row
}

func encodeFrame(t *testing.T, cb *ColBatch) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriterSize(&buf, 64) // small: lanes cross many buffer fills
	if err := EncodeColFrame(w, cb); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEncodeColFrameGolden: a frame's bytes depend on its rows alone. The
// same rows row-backed (every cell read as a Value), lane-backed (lanes
// and bitmaps written directly), lane-backed with junk under the NULL
// rows, under a selection, and as an unaligned window of table-wide lanes
// must encode to identical bytes, which decode to the rows.
func TestEncodeColFrameGolden(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 63, 64, 65, 200, 256} {
		rows := make([]Tuple, n)
		for i := range rows {
			rows[i] = frameShapes(i)
		}
		w := len(rows[0])
		var rowBacked, laneBacked, junk, selected, window ColBatch
		rowBacked.SetRows(rows, w)
		golden := encodeFrame(t, &rowBacked)

		laneBacked.FromTuples(rows, w)
		junk.FromTuples(rows, w)
		for i := 0; i < n && n > 1; i += 3 { // a single row leaves these columns all NULL, without lanes
			junk.Cols[3].Ints[i], junk.Cols[4].Floats[i], junk.Cols[5].Strs[i] = 99, 9.5, "junk"
		}
		// Twice the rows, the odd ones foreign, selected away again.
		var wide []Tuple
		var sel []int32
		for i, r := range rows {
			wide = append(wide, r, frameShapes(i+1000))
			sel = append(sel, int32(2*i))
		}
		selected.FromTuples(wide, w)
		selected.Sel = sel
		// A table of lead+n rows whose last n are the rows: the window's NULL
		// bits start mid-word.
		const lead = 37
		lanes := make([]ColVec, w)
		for i := 0; i < lead+n; i++ {
			row := frameShapes(i - lead)
			if i < lead {
				row = frameShapes(i + 500)
			}
			for c := range row {
				lanes[c].AppendVal(i, row[c])
			}
		}
		window.SetWindow(nil, lanes, lead, lead+n)

		for name, cb := range map[string]*ColBatch{
			"lane-backed": &laneBacked, "junk under NULLs": &junk, "selected": &selected, "window": &window,
		} {
			if got := encodeFrame(t, cb); !bytes.Equal(got, golden) {
				t.Fatalf("%d rows, %s: %d bytes differ from the row-backed frame's %d", n, name, len(got), len(golden))
			}
		}
		var dec ColBatch
		if err := DecodeColFrame(bufio.NewReader(bytes.NewReader(golden)), w, &dec); err != nil {
			t.Fatal(err)
		}
		for i, got := range dec.ToTuples(nil) {
			for c := range got {
				if got[c] != rows[i][c] {
					t.Fatalf("%d rows: decoded row %d col %d = %v, want %v", n, i, c, got[c], rows[i][c])
				}
			}
		}
		if dec.NRows != n {
			t.Fatalf("decoded %d rows of %d", dec.NRows, n)
		}
	}
}

// BenchmarkEncodeColFrame encodes one spill frame (colFrameRows of the
// exec package: 256 rows) of a lane-backed batch: two integer columns, a
// float and a string, one of them NULL-bearing.
func BenchmarkEncodeColFrame(b *testing.B) {
	rows := make([]Tuple, 256)
	for i := range rows {
		rows[i] = Tuple{Int(int64(i)), Int(int64(i % 7)), Float(float64(i) / 3), Str("payload-string")}
		if i%9 == 0 {
			rows[i][1] = Null()
		}
	}
	var cb ColBatch
	cb.FromTuples(rows, 4)
	w := bufio.NewWriterSize(io.Discard, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := EncodeColFrame(w, &cb); err != nil {
			b.Fatal(err)
		}
	}
}

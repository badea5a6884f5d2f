package storage

import (
	"testing"
	"testing/quick"

	"qpi/internal/data"
)

func intSchema() *data.Schema {
	return data.NewSchema(data.Column{Table: "t", Name: "a", Kind: data.KindInt})
}

func buildTable(t *testing.T, n int) *Table {
	t.Helper()
	tb := NewTable("t", intSchema())
	for i := 0; i < n; i++ {
		tb.MustAppend(data.Tuple{data.Int(int64(i))})
	}
	return tb
}

func TestAppendAndRows(t *testing.T) {
	tb := buildTable(t, 300)
	if tb.NumRows() != 300 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
	wantBlocks := (300 + BlockSize - 1) / BlockSize
	if tb.NumBlocks() != wantBlocks {
		t.Fatalf("NumBlocks = %d, want %d", tb.NumBlocks(), wantBlocks)
	}
	rows := tb.Rows()
	for i, r := range rows {
		if r[0].I != int64(i) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
	if tb.Name() != "t" || tb.Schema().Len() != 1 {
		t.Error("accessors wrong")
	}
}

func TestAppendArityMismatch(t *testing.T) {
	tb := NewTable("t", intSchema())
	if err := tb.Append(data.Tuple{data.Int(1), data.Int(2)}); err == nil {
		t.Error("arity mismatch not rejected")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAppend did not panic")
		}
	}()
	tb.MustAppend(data.Tuple{})
}

func TestSequentialOrderCoversAll(t *testing.T) {
	tb := buildTable(t, 1000)
	it := tb.SequentialOrder()
	if it.SampleBoundary() != 0 {
		t.Errorf("sequential SampleBoundary = %d", it.SampleBoundary())
	}
	for i := 0; i < 1000; i++ {
		tu := it.Next()
		if tu == nil || tu[0].I != int64(i) {
			t.Fatalf("tuple %d = %v", i, tu)
		}
	}
	if it.Next() != nil {
		t.Error("iterator not exhausted after all rows")
	}
}

func TestSampleOrderIsPermutationOfTable(t *testing.T) {
	tb := buildTable(t, 2000)
	it := tb.SampleOrder(0.25, 42)
	seen := map[int64]int{}
	n := 0
	for tu := it.Next(); tu != nil; tu = it.Next() {
		seen[tu[0].I]++
		n++
	}
	if n != 2000 {
		t.Fatalf("emitted %d rows, want 2000 (no duplicates from sample+rest)", n)
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("value %d seen %d times", v, c)
		}
	}
}

func TestSampleBoundaryFraction(t *testing.T) {
	tb := buildTable(t, 12800) // 100 blocks exactly
	it := tb.SampleOrder(0.10, 7)
	want := 10 * BlockSize
	if it.SampleBoundary() != want {
		t.Errorf("SampleBoundary = %d, want %d", it.SampleBoundary(), want)
	}
}

func TestSampleFractionClamping(t *testing.T) {
	tb := buildTable(t, 512)
	if b := tb.SampleOrder(-1, 1).SampleBoundary(); b != 0 {
		t.Errorf("fraction<0: boundary %d", b)
	}
	if b := tb.SampleOrder(2, 1).SampleBoundary(); b != 512 {
		t.Errorf("fraction>1: boundary %d, want 512", b)
	}
}

func TestSampleIsRandomAcrossSeeds(t *testing.T) {
	tb := buildTable(t, 12800)
	first := func(seed int64) int64 {
		return tb.SampleOrder(0.1, seed).Next()[0].I
	}
	a, b := first(1), first(2)
	if a == b {
		// Not impossible, but with 100 blocks it is 1% likely; use a third
		// seed to make a flake astronomically unlikely.
		if c := first(3); c == a {
			t.Errorf("sample start identical across 3 seeds: %d", a)
		}
	}
}

func TestInSampleTracksPrefix(t *testing.T) {
	tb := buildTable(t, 1280)
	it := tb.SampleOrder(0.5, 9)
	boundary := it.SampleBoundary()
	for i := 0; i < boundary; i++ {
		it.Next()
		if !it.InSample() {
			t.Fatalf("tuple %d (boundary %d): InSample = false", i, boundary)
		}
	}
	it.Next()
	if it.InSample() {
		t.Error("past boundary: InSample = true")
	}
}

func TestReset(t *testing.T) {
	tb := buildTable(t, 100)
	it := tb.SampleOrder(0.2, 5)
	var firstPass []int64
	for tu := it.Next(); tu != nil; tu = it.Next() {
		firstPass = append(firstPass, tu[0].I)
	}
	it.Reset()
	for i := 0; ; i++ {
		tu := it.Next()
		if tu == nil {
			if i != len(firstPass) {
				t.Fatalf("second pass ended at %d, want %d", i, len(firstPass))
			}
			break
		}
		if tu[0].I != firstPass[i] {
			t.Fatalf("second pass tuple %d = %d, want %d", i, tu[0].I, firstPass[i])
		}
	}
}

func TestSamplePermutationProperty(t *testing.T) {
	f := func(seed int64, fracRaw uint8, rowsRaw uint16) bool {
		rows := int(rowsRaw%2048) + 1
		frac := float64(fracRaw%101) / 100
		tb := NewTable("t", intSchema())
		for i := 0; i < rows; i++ {
			tb.MustAppend(data.Tuple{data.Int(int64(i))})
		}
		it := tb.SampleOrder(frac, seed)
		seen := make([]bool, rows)
		n := 0
		for tu := it.Next(); tu != nil; tu = it.Next() {
			if seen[tu[0].I] {
				return false
			}
			seen[tu[0].I] = true
			n++
		}
		return n == rows
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// oddRow is row i of a table whose second column is NULL-bearing until
// promote, then of mixed kinds: every lane shape an append can produce.
func oddRow(i int, promote bool) data.Tuple {
	row := data.Tuple{data.Int(int64(i)), data.Int(int64(i % 11)), data.Str(string(rune('a' + i%26)))}
	switch {
	case i%3 == 0:
		row[1] = data.Null()
	case promote && i%3 == 1:
		row[1] = data.Str("mixed")
	}
	return row
}

func oddTable(t *testing.T, n int) *Table {
	t.Helper()
	tb := NewTable("t", data.NewSchema(
		data.Column{Table: "t", Name: "k", Kind: data.KindInt},
		data.Column{Table: "t", Name: "v", Kind: data.KindInt},
		data.Column{Table: "t", Name: "s", Kind: data.KindString},
	))
	for i := 0; i < n; i++ {
		tb.MustAppend(oddRow(i, false))
	}
	return tb
}

// TestRunsAndWindowsMatchNext walks the table by NextRun for run lengths
// that divide a block, straddle blocks and span several, sequentially and
// in sample order, and holds every window — its rows and every lane cell —
// to what Next returns for the same walk. Sequential runs are cut by the
// length asked for alone.
func TestRunsAndWindowsMatchNext(t *testing.T) {
	const n = 5*BlockSize + 17
	tb := oddTable(t, n)
	for _, frac := range []float64{0, 0.4, 1} {
		for _, max := range []int{1, 7, 100, BlockSize, 3*BlockSize + 5, 2 * n} {
			ref, it := tb.SampleOrder(frac, 3), tb.SampleOrder(frac, 3)
			var cb data.ColBatch
			rows := 0
			for lo, hi := it.NextRun(max); lo < hi; lo, hi = it.NextRun(max) {
				if frac == 0 && hi-lo != min(max, n-rows) {
					t.Fatalf("sequential run of %d rows, asked for %d with %d left", hi-lo, max, n-rows)
				}
				it.Window(&cb, lo, hi)
				if cb.NRows != hi-lo || len(cb.Rows) != hi-lo || cb.Sel != nil {
					t.Fatalf("window [%d,%d): NRows %d, %d rows, Sel %v", lo, hi, cb.NRows, len(cb.Rows), cb.Sel)
				}
				for i, row := range cb.Rows {
					want := ref.Next()
					for c := range want {
						if got := cb.Col(c).ValueAt(i); got != want[c] || row[c] != want[c] {
							t.Fatalf("frac %g, runs of %d, row %d col %d: lane %v, row %v, Next %v", frac, max, rows+i, c, got, row[c], want[c])
						}
					}
				}
				rows += hi - lo
			}
			if rows != n || ref.Next() != nil || it.Emitted() != n {
				t.Fatalf("frac %g, runs of %d: %d rows of %d, Emitted %d", frac, max, rows, n, it.Emitted())
			}
		}
	}
}

// TestBlocksWindowTheRows: blocks are windows of the one row slice — full
// but the last, in order, and closed to appends.
func TestBlocksWindowTheRows(t *testing.T) {
	const n = 3*BlockSize + 5
	tb := oddTable(t, n)
	rows := 0
	for b := 0; b < tb.NumBlocks(); b++ {
		blk := tb.Block(b)
		if want := min(BlockSize, n-rows); blk.ID != b || len(blk.Tuples) != want || cap(blk.Tuples) != want {
			t.Fatalf("block %d: id %d, %d tuples (cap %d), want %d", b, blk.ID, len(blk.Tuples), cap(blk.Tuples), want)
		}
		for _, tu := range blk.Tuples {
			if tu[0].I != int64(rows) {
				t.Fatalf("block %d holds row %d at position %d", b, tu[0].I, rows)
			}
			rows++
		}
	}
	if rows != n {
		t.Fatalf("blocks hold %d rows of %d", rows, n)
	}
}

// TestAppendAfterOpenIsNotSeen: an iterator walks the table as it stood
// when it was made. Rows appended mid-walk — here enough to move every
// lane, to set NULL bits in the bitmap word the walk is reading, and to
// turn a column mixed — are not returned and do not change what is.
func TestAppendAfterOpenIsNotSeen(t *testing.T) {
	const n = 2*BlockSize + 40
	tb := oddTable(t, n)
	byNext, byRun := tb.SequentialOrder(), tb.SampleOrder(0.5, 1)
	for i := 0; i < 70; i++ {
		byNext.Next()
	}
	byRun.NextRun(70)
	for i := n; i < 4*n; i++ {
		tb.MustAppend(oddRow(i, true))
	}
	seen := 70
	for tu := byNext.Next(); tu != nil; tu = byNext.Next() {
		if want := oddRow(seen, false); tu[0] != want[0] || tu[1] != want[1] {
			t.Fatalf("Next returned %v as row %d, want %v", tu, seen, want)
		}
		seen++
	}
	if seen != n {
		t.Fatalf("Next walked %d rows of a table opened at %d", seen, n)
	}
	var cb data.ColBatch
	seen = 70
	for lo, hi := byRun.NextRun(100); lo < hi; lo, hi = byRun.NextRun(100) {
		byRun.Window(&cb, lo, hi)
		for i := 0; i < cb.NRows; i++ {
			want := oddRow(lo+i, false)
			for c := range want {
				if got := cb.Col(c).ValueAt(i); got != want[c] {
					t.Fatalf("window row %d col %d = %v, want %v", lo+i, c, got, want[c])
				}
			}
		}
		seen += hi - lo
	}
	if seen != n {
		t.Fatalf("runs walked %d rows of a table opened at %d", seen, n)
	}
	if tb.NumRows() != 4*n || tb.Lane(1).Homogeneous() {
		t.Fatalf("the appends left %d rows and column v single-kinded (%v); the test lost its point", tb.NumRows(), tb.Lane(1).Homogeneous())
	}
}

package disk

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"qpi/internal/core"
	"qpi/internal/data"
	"qpi/internal/exec"
	"qpi/internal/storage"
)

func makeTable(t *testing.T, rows int) *storage.Table {
	t.Helper()
	s := data.NewSchema(
		data.Column{Table: "t", Name: "k", Kind: data.KindInt},
		data.Column{Table: "t", Name: "f", Kind: data.KindFloat},
		data.Column{Table: "t", Name: "s", Kind: data.KindString},
	)
	tb := storage.NewTable("t", s)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < rows; i++ {
		var sv data.Value
		switch i % 3 {
		case 0:
			sv = data.Str("row")
		case 1:
			sv = data.Str("")
		default:
			sv = data.Null()
		}
		tb.MustAppend(data.Tuple{
			data.Int(int64(rng.Intn(50))),
			data.Float(rng.Float64() * 100),
			sv,
		})
	}
	return tb
}

func roundTrip(t *testing.T, tb *storage.Table) *TableFile {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.qpit")
	if err := WriteTable(path, tb); err != nil {
		t.Fatal(err)
	}
	tf, err := OpenTable(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tf.Close() })
	return tf
}

func TestRoundTripPreservesEverything(t *testing.T) {
	tb := makeTable(t, 1000)
	tf := roundTrip(t, tb)
	if tf.NumRows() != 1000 || tf.NumBlocks() != tb.NumBlocks() {
		t.Fatalf("rows=%d blocks=%d", tf.NumRows(), tf.NumBlocks())
	}
	if tf.Schema().String() != tb.Schema().String() {
		t.Fatalf("schema %s vs %s", tf.Schema(), tb.Schema())
	}
	orig := tb.Rows()
	loaded, err := tf.Load("")
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.Rows()
	if len(got) != len(orig) {
		t.Fatalf("rows %d vs %d", len(got), len(orig))
	}
	for i := range orig {
		for c := range orig[i] {
			a, b := orig[i][c], got[i][c]
			if a.Kind != b.Kind || a.I != b.I || a.S != b.S ||
				(a.Kind == data.KindFloat && math.Float64bits(a.F) != math.Float64bits(b.F)) {
				t.Fatalf("row %d col %d: %v vs %v", i, c, a, b)
			}
		}
	}
}

func TestReadBlockRandomAccess(t *testing.T) {
	tb := makeTable(t, 1000)
	tf := roundTrip(t, tb)
	// Read blocks out of order.
	rows := tb.Rows()
	for _, b := range []int{tf.NumBlocks() - 1, 0, tf.NumBlocks() / 2} {
		tuples, err := tf.ReadBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		want := rows[b*storage.BlockSize : min((b+1)*storage.BlockSize, len(rows))]
		if len(tuples) != len(want) {
			t.Fatalf("block %d: %d tuples vs %d", b, len(tuples), len(want))
		}
		if tuples[0][0].I != want[0][0].I {
			t.Fatalf("block %d first tuple mismatch", b)
		}
	}
	if _, err := tf.ReadBlock(-1); err == nil {
		t.Error("negative block accepted")
	}
	if _, err := tf.ReadBlock(tf.NumBlocks()); err == nil {
		t.Error("out-of-range block accepted")
	}
}

// TestReadBlockShortBlock: a block that ends before the tuples its count
// promises is an error, not a short block.
func TestReadBlockShortBlock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.qpit")
	if err := WriteTable(path, makeTable(t, 1000)); err != nil {
		t.Fatal(err)
	}
	tf, err := OpenTable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tf.counts[0]++
	binary.LittleEndian.PutUint32(b[tf.offsets[0]:], tf.counts[0])
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := tf.ReadBlock(0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("ReadBlock of a block one tuple short: %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.qpit")
	if err := writeBytes(path, []byte("this is not a table file at all......")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTable(path); err == nil {
		t.Error("garbage file accepted")
	}
	if _, err := OpenTable(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestDiskScanStreamsAll(t *testing.T) {
	tb := makeTable(t, 700)
	tf := roundTrip(t, tb)
	sc := NewScan(tf, "")
	if err := sc.Open(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		cb, err := sc.NextColBatch()
		if err != nil {
			t.Fatal(err)
		}
		if cb == nil {
			break
		}
		n += cb.Live()
	}
	if n != 700 || !sc.Stats().IsDone() || sc.Stats().Emitted.Load() != 700 {
		t.Fatalf("emitted %d, stats %+v", n, sc.Stats())
	}
	sc.Close()
}

func TestDiskScanSamplePunctuation(t *testing.T) {
	tb := makeTable(t, 128*10)
	tf := roundTrip(t, tb)
	sc := NewScan(tf, "")
	sc.SampleFraction = 0.3
	sc.Seed = 7
	fired := -1
	sc.OnSampleEnd = func() { fired = int(sc.Stats().Emitted.Load()) }
	if err := sc.Open(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for {
		cb, err := sc.NextColBatch()
		if err != nil {
			t.Fatal(err)
		}
		if cb == nil {
			break
		}
		if total < 3*128 && total+cb.Live() > 3*128 {
			t.Errorf("a batch of %d rows straddles the sample's end after %d rows", cb.Live(), total)
		}
		total += cb.Live()
	}
	if total != 1280 {
		t.Fatalf("total = %d", total)
	}
	if fired != 3*128 {
		t.Errorf("sample punctuation after %d tuples, want %d", fired, 3*128)
	}
}

func TestDiskScanInvalidFraction(t *testing.T) {
	tf := roundTrip(t, makeTable(t, 10))
	for _, f := range []float64{-0.1, 1.5, math.NaN()} {
		sc := NewScan(tf, "")
		sc.SampleFraction = f
		if err := sc.Open(); err == nil {
			t.Errorf("fraction %g accepted", f)
		}
	}
}

func TestDiskScanAlias(t *testing.T) {
	tf := roundTrip(t, makeTable(t, 10))
	sc := NewScan(tf, "u")
	if sc.Schema().Resolve("u", "k") < 0 {
		t.Error("alias not applied")
	}
	if sc.Name() != "DiskScan(u)" {
		t.Errorf("Name = %q", sc.Name())
	}
}

func TestDiskScanJoinsWithEstimation(t *testing.T) {
	// End to end: a hash join probing a DISK scan, with the framework
	// attached — the estimate converges exactly, like the in-memory path.
	build := makeTable(t, 400)
	probe := makeTable(t, 900)
	tf := roundTrip(t, probe)
	buildScan := exec.NewScan(build, "b")
	probeScan := NewScan(tf, "p")
	probeScan.SampleFraction = 0.2
	j := exec.NewHashJoin(buildScan, probeScan,
		buildScan.Schema().MustResolve("b", "k"),
		probeScan.Schema().MustResolve("p", "k"))
	att := core.Attach(j)
	n, err := exec.Run(j)
	if err != nil {
		t.Fatal(err)
	}
	pe := att.ChainOf[j]
	if pe == nil || !pe.Converged() {
		t.Fatal("estimator did not attach/converge over disk scan")
	}
	if est := pe.Estimate(0); math.Abs(est-float64(n)) > 1e-6 {
		t.Errorf("estimate %g != %d", est, n)
	}
}

func writeBytes(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644)
}

package exec

import (
	"bufio"
	"bytes"
	"hash/fnv"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"qpi/internal/data"
	"qpi/internal/obs"
	"qpi/internal/storage"
	"qpi/internal/vfs"
)

func randTable(name string, n, domain int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(rng.Intn(domain))
	}
	return out
}

func TestCodecRoundTrip(t *testing.T) {
	tuples := []data.Tuple{
		{data.Int(-7), data.Float(2.5), data.Str("hello"), data.Null()},
		{data.Int(1 << 62), data.Float(-0.0), data.Str(""), data.Int(0)},
	}
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for _, tu := range tuples {
		if err := data.EncodeTuple(w, tu); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	r := bufio.NewReader(&buf)
	for i, want := range tuples {
		got, err := data.DecodeTuple(r, len(want))
		if err != nil {
			t.Fatal(err)
		}
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("tuple %d col %d: %v vs %v", i, c, got[c], want[c])
			}
		}
	}
	if tu, err := data.DecodeTuple(r, 4); tu != nil || err == nil {
		// clean EOF expected
		if err.Error() != "EOF" {
			t.Fatalf("expected EOF, got %v, %v", tu, err)
		}
	}
}

func TestSpilledHashJoinMatchesInMemory(t *testing.T) {
	a := randTable("a", 3000, 100, 1)
	b := randTable("b", 4000, 100, 2)
	run := func(budget int64) (int64, int) {
		j := NewHashJoinOn(
			NewScan(makeTable("a", a), ""),
			NewScan(makeTable("b", b), ""),
			"a", "k", "b", "k")
		if budget > 0 {
			j.SetMemoryBudget(budget)
		}
		n, err := Run(j)
		if err != nil {
			t.Fatal(err)
		}
		return n, j.Spilled()
	}
	plainN, plainSpills := run(0)
	if plainSpills != 0 {
		t.Fatalf("unbudgeted join spilled %d partitions", plainSpills)
	}
	spilledN, spills := run(16 * 1024) // tiny budget: everything spills
	if spills == 0 {
		t.Fatal("budgeted join did not spill")
	}
	if spilledN != plainN {
		t.Fatalf("spilled join produced %d rows, in-memory %d", spilledN, plainN)
	}
}

func TestSpilledTypedJoins(t *testing.T) {
	a := randTable("a", 1000, 40, 3)
	b := randTable("b", 1500, 40, 4)
	for _, jt := range []JoinType{InnerJoin, SemiJoin, AntiJoin, ProbeOuterJoin} {
		run := func(budget int64) int64 {
			j := NewHashJoinMulti(
				NewScan(makeTable("a", a), ""),
				NewScan(makeTable("b", b), ""),
				[]int{0}, []int{0}, jt)
			j.SetMemoryBudget(budget)
			n, err := Run(j)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
		if mem, spill := run(0), run(8*1024); mem != spill {
			t.Errorf("%v join: in-memory %d vs spilled %d", jt, mem, spill)
		}
	}
}

func TestExternalSortMatchesInMemory(t *testing.T) {
	vals := randTable("t", 5000, 100000, 5)
	run := func(budget int64) ([]int64, int) {
		s := NewSort(NewScan(makeTable("t", vals), ""), 0)
		if budget > 0 {
			s.SetMemoryBudget(budget)
		}
		if err := s.Open(); err != nil {
			t.Fatal(err)
		}
		rows, err := Drain(s)
		if err != nil {
			t.Fatal(err)
		}
		runs := s.Runs()
		s.Close()
		out := make([]int64, len(rows))
		for i, r := range rows {
			out[i] = r[0].I
		}
		return out, runs
	}
	mem, memRuns := run(0)
	if memRuns != 0 {
		t.Fatalf("in-memory sort produced %d runs", memRuns)
	}
	ext, extRuns := run(8 * 1024)
	if extRuns < 2 {
		t.Fatalf("external sort produced only %d runs", extRuns)
	}
	if len(mem) != len(ext) {
		t.Fatalf("lengths differ: %d vs %d", len(mem), len(ext))
	}
	if !sort.SliceIsSorted(ext, func(i, j int) bool { return ext[i] < ext[j] }) {
		t.Fatal("external sort output not sorted")
	}
	for i := range mem {
		if mem[i] != ext[i] {
			t.Fatalf("row %d: %d vs %d", i, mem[i], ext[i])
		}
	}
}

func TestExternalSortDescending(t *testing.T) {
	vals := randTable("t", 2000, 1000, 6)
	s := NewSortDirs(NewScan(makeTable("t", vals), ""), []int{0}, []bool{true})
	s.SetMemoryBudget(4 * 1024)
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	rows, err := Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	for i := 1; i < len(rows); i++ {
		if rows[i][0].I > rows[i-1][0].I {
			t.Fatalf("not descending at %d", i)
		}
	}
}

func TestBudgetedSortMergeJoinMatches(t *testing.T) {
	a := randTable("a", 2000, 60, 7)
	b := randTable("b", 2500, 60, 8)
	run := func(budget int64) int64 {
		mj, ls, rs := NewSortMergeJoin(
			NewScan(makeTable("a", a), ""),
			NewScan(makeTable("b", b), ""), 0, 0)
		if budget > 0 {
			ls.SetMemoryBudget(budget)
			rs.SetMemoryBudget(budget)
		}
		n, err := Run(mj)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if mem, ext := run(0), run(8*1024); mem != ext {
		t.Fatalf("SMJ in-memory %d vs external %d", mem, ext)
	}
}

// TestSpilledJoinColumnarMatchesTuple runs the same budgeted join on the
// tuple path and the columnar path and demands identical ordered rows,
// stats and hook counts, with both passes spilling and both barriers
// firing on either path.
func TestSpilledJoinColumnarMatchesTuple(t *testing.T) {
	a := randTable("a", 3000, 100, 31)
	b := randTable("b", 4000, 100, 32)
	type result struct {
		rows               []data.Tuple
		emitted            int64
		spilled            int
		builds, probes     int
		buildEnd, probeEnd int
	}
	run := func(columnar bool) result {
		j := NewHashJoinOn(
			NewScan(makeTable("a", a), ""),
			NewScan(makeTable("b", b), ""),
			"a", "k", "b", "k")
		j.SetMemoryBudget(16 * 1024).SetColumnar(columnar)
		var r result
		j.OnBuildTuple = func(data.Tuple) {
			if r.buildEnd > 0 {
				t.Error("OnBuildTuple after OnBuildEnd")
			}
			r.builds++
		}
		j.OnBuildEnd = func() { r.buildEnd++ }
		j.OnProbeTuple = func(data.Tuple) {
			if r.buildEnd == 0 || r.probeEnd > 0 {
				t.Error("OnProbeTuple outside (OnBuildEnd, OnProbeEnd)")
			}
			r.probes++
		}
		j.OnProbeEnd = func() { r.probeEnd++ }
		r.rows = drainMode(t, j, columnar)
		r.emitted = j.Stats().Emitted.Load()
		r.spilled = j.Spilled()
		return r
	}
	tup, col := run(false), run(true)
	if col.spilled == 0 || tup.spilled == 0 {
		t.Fatalf("expected spills on both paths (tuple %d, columnar %d)", tup.spilled, col.spilled)
	}
	requireSameRows(t, tup.rows, col.rows, "spilled join")
	if tup.emitted != col.emitted || tup.emitted != int64(len(tup.rows)) {
		t.Errorf("Emitted %d vs %d for %d rows", tup.emitted, col.emitted, len(tup.rows))
	}
	for name, r := range map[string]result{"tuple": tup, "columnar": col} {
		if r.builds != len(a) || r.probes != len(b) {
			t.Errorf("%s: per-tuple hooks build=%d probe=%d, inputs %d/%d", name, r.builds, r.probes, len(a), len(b))
		}
		if r.buildEnd != 1 || r.probeEnd != 1 {
			t.Errorf("%s: barriers fired build=%d probe=%d times, want once each", name, r.buildEnd, r.probeEnd)
		}
	}
}

func TestSpilledJoinHooksStillFire(t *testing.T) {
	a := randTable("a", 800, 30, 9)
	b := randTable("b", 900, 30, 10)
	j := NewHashJoinOn(
		NewScan(makeTable("a", a), ""),
		NewScan(makeTable("b", b), ""),
		"a", "k", "b", "k")
	j.SetMemoryBudget(4 * 1024)
	var builds, probes int
	end := false
	j.OnBuildTuple = func(data.Tuple) { builds++ }
	j.OnProbeTuple = func(data.Tuple) { probes++ }
	j.OnProbeEnd = func() { end = true }
	if _, err := Run(j); err != nil {
		t.Fatal(err)
	}
	if builds != 800 || probes != 900 || !end {
		t.Errorf("hooks: builds=%d probes=%d end=%v", builds, probes, end)
	}
	if j.Spilled() == 0 {
		t.Error("expected spills")
	}
}

// pinTable builds a three-column table (int key, string of varying
// length, float) from a seed; the key is skewed so that some partitions
// outgrow their budget share and others do not.
func pinTable(name string, n int, seed int64) *storage.Table {
	s := data.NewSchema(
		data.Column{Table: name, Name: "k", Kind: data.KindInt},
		data.Column{Table: name, Name: "s", Kind: data.KindString},
		data.Column{Table: name, Name: "f", Kind: data.KindFloat},
	)
	tb := storage.NewTable(name, s)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		k := int64(rng.Intn(400))
		if rng.Intn(10) < 3 {
			k = int64(rng.Intn(12))
		}
		tb.MustAppend(data.Tuple{data.Int(k), data.Str(strings.Repeat("x", rng.Intn(40))), data.Float(float64(i) / 4)})
	}
	return tb
}

// TestBudgetedPassPins holds the budgeted columnar partition pass to what
// the row-at-a-time pass it replaced did on a fixed input under a fixed
// partition seed (values recorded at efadab2): the same partitions spill,
// the same bytes are charged, and the join emits the same rows in the same
// order. Moving a group at a time may let a partition overshoot its share
// by one batch's group before it is dumped, never by more, and a partition
// still in memory is always within its share between batches.
func TestBudgetedPassPins(t *testing.T) {
	defer func(s uint64) { intSeed = s }(intSeed)
	intSeed = 0x9e3779b97f4a7c15
	const budget = 1 << 20
	a, b := pinTable("a", 3000, 41), pinTable("b", 5000, 42)
	j := NewHashJoinOn(NewScan(a, ""), NewScan(b, ""), "a", "k", "b", "k")
	j.SetMemoryBudget(budget).SetColumnar(true)
	tr := obs.New()
	BindTracer(j, tr)
	share := int64(budget / (2 * j.parts))

	maxBatch := int64(0) // the largest Tuple.Size sum of one input batch
	resident := func(bytes []int64, spill []*spillFile, parts []colPart) func(*data.ColBatch) {
		return func(cb *data.ColBatch) {
			size := int64(0)
			for _, r := range cb.ToTuples(nil) {
				size += int64(r.Size())
			}
			maxBatch = max(maxBatch, size)
			for p := range bytes {
				if spill[p] == nil && bytes[p] > share {
					t.Errorf("partition %d holds %d bytes in memory, share is %d", p, bytes[p], share)
				}
				if spill[p] != nil && len(parts[p]) != 0 {
					t.Errorf("partition %d is spilled and still holds lanes", p)
				}
			}
		}
	}
	j.OnBuildCol = func(cb *data.ColBatch) { resident(j.buildBytes, j.buildSpill, j.buildColParts)(cb) }
	j.OnProbeCol = func(cb *data.ColBatch) { resident(j.probeBytes, j.probeSpill, j.probeColParts)(cb) }
	var spilled []int // build partition p as p, probe partition p as 100+p
	j.OnProbeEnd = func() {
		for p := 0; p < j.parts; p++ {
			if j.buildSpill[p] != nil {
				spilled = append(spilled, p)
			}
			if j.probeSpill[p] != nil {
				spilled = append(spilled, 100+p)
			}
		}
	}
	rows := drainMode(t, j, true)
	order := fnv.New64a()
	for _, r := range rows {
		order.Write([]byte(r.String()))
	}

	if got := j.Stats().SpillFiles.Load(); got != 17 {
		t.Errorf("SpillFiles = %d, want 17", got)
	}
	if got := j.Stats().SpillBytes.Load(); got != 962312 {
		t.Errorf("SpillBytes = %d, want 962312", got)
	}
	want := []int{101, 2, 102, 4, 104, 5, 105, 107, 108, 109, 10, 110, 113, 14, 114, 15, 115}
	if !reflect.DeepEqual(spilled, want) {
		t.Errorf("spilled partitions %v, want %v", spilled, want)
	}
	if len(rows) != 146804 || order.Sum64() != 0x5b4d5af3fd67e8c5 {
		t.Errorf("%d rows with order hash %#x, want 146804 rows with 0x5b4d5af3fd67e8c5", len(rows), order.Sum64())
	}
	dumps := 0
	for _, e := range tr.Events() {
		if e.Kind == obs.Mark && e.Phase == "spill" {
			dumps++
			if e.Bytes <= share || e.Bytes > share+maxBatch {
				t.Errorf("partition dumped at %d bytes; share %d, largest batch %d", e.Bytes, share, maxBatch)
			}
		}
	}
	if dumps != 17 {
		t.Errorf("%d spill marks, want 17", dumps)
	}
}

// TestSpillArenaRoundTrip writes several runs into one arena in
// interleaved appends of sizes on both sides of the 64 KiB buffer, then
// reads every run back byte-exactly twice: one run after another, and
// interleaved refill by refill as the external sort's merge reads them.
// Appends that follow each other in the file merge into one extent.
func TestSpillArenaRoundTrip(t *testing.T) {
	fs := vfs.NewFaultFS(nil)
	arena := &spillArena{fs: fs}
	const nruns = 4
	runs := make([]*spillFile, nruns)
	for i := range runs {
		f, err := arena.newRun(1)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = f
	}
	appends := []struct{ run, n int }{
		{0, 100}, {1, 70000}, {0, 70000}, {2, 65536}, {2, 65537}, {3, 1},
		{1, 200000}, {0, 3000}, {3, 1 << 17}, {3, 5}, {2, 40000}, {0, 65535},
	}
	rng := rand.New(rand.NewSource(74))
	want := make([][]byte, nruns)
	wantExt := make([]int, nruns)
	last := -1
	for _, ap := range appends {
		chunk := make([]byte, ap.n)
		rng.Read(chunk)
		f := runs[ap.run]
		if _, err := f.w.Write(chunk); err != nil {
			t.Fatal(err)
		}
		if err := f.w.Flush(); err != nil {
			t.Fatal(err)
		}
		want[ap.run] = append(want[ap.run], chunk...)
		if ap.run != last {
			wantExt[ap.run]++
		}
		last = ap.run
	}
	var total int64
	for i, f := range runs {
		if len(f.ext) != wantExt[i] {
			t.Errorf("run %d has %d extents, want %d", i, len(f.ext), wantExt[i])
		}
		for _, e := range f.ext {
			total += e.n
		}
	}
	if total != arena.cur.end {
		t.Errorf("extents cover %d bytes, the file holds %d", total, arena.cur.end)
	}
	if n := fs.Count(vfs.OpSeek); n != 0 {
		t.Errorf("appends issued %d seeks; nothing moved the offset from the end", n)
	}

	for i, f := range runs {
		if err := f.startRead(); err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(f.r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Errorf("run %d read one after another: %d bytes, want %d, or contents differ", i, len(got), len(want[i]))
		}
	}

	got := make([][]byte, nruns)
	for _, f := range runs {
		if err := f.startRead(); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 1<<16+1)
	for live := nruns; live > 0; {
		live = 0
		for i, f := range runs {
			if f.rext == len(f.ext) && f.r.Buffered() == 0 {
				continue
			}
			// Drain what the reader holds plus one byte: exactly one
			// refill per turn, so the runs' refills interleave.
			n, err := io.ReadFull(f.r, buf[:f.r.Buffered()+1])
			got[i] = append(got[i], buf[:n]...)
			if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
				t.Fatal(err)
			}
			live++
		}
	}
	for i := range runs {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("run %d read interleaved: %d bytes, want %d, or contents differ", i, len(got[i]), len(want[i]))
		}
	}

	for i, f := range runs {
		if err := f.close(); err != nil {
			t.Fatal(err)
		}
		if err := f.close(); err != nil {
			t.Fatalf("second close: %v", err)
		}
		if open, want := fs.OpenFiles(), min(1, nruns-1-i); open != want {
			t.Fatalf("%d files open after closing %d of %d runs, want %d", open, i+1, nruns, want)
		}
	}
	f, err := arena.newRun(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.close(); err != nil {
		t.Fatal(err)
	}
	if n := fs.Count(vfs.OpCreate); n != 2 {
		t.Errorf("%d files created, want 2: one for the runs, a fresh one after the last closed", n)
	}
}

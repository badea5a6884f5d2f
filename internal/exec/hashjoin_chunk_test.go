package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"qpi/internal/data"
	"qpi/internal/storage"
	"qpi/internal/vfs"
)

// Tests of the chunked probe partitions of the lane-native join and the
// chunk kernel that joins them: how appendColRows fills them, that joins
// whose partitions span several chunks agree with the reference in every
// mode, that the kernel matches the grace-order reference row for row
// with the progress counter it publishes, and that a join which ends
// early —
// cancelled, or failed by an injected spill fault — hands every pooled
// batch back.

// TestAppendColRowsFillsChunks feeds one partition batches whose sizes
// straddle BatchSize(): a chunked partition must come out as full chunks
// plus one last partial one, a single-batch partition as one batch, and
// both must hold the input rows in order.
func TestAppendColRowsFillsChunks(t *testing.T) {
	bs := data.BatchSize()
	for _, chunked := range []bool{true, false} {
		var part colPart
		next := int64(0)
		for _, n := range []int{bs - 1, 2, bs + 1, 0, 3*bs + 5, 1} {
			rows := make([]data.Tuple, n)
			idx := make([]int32, 0, n)
			for i := range rows {
				rows[i] = data.Tuple{data.Int(next), data.Str("r")}
				next++
				idx = append(idx, int32(i))
			}
			var src data.ColBatch
			src.SetRows(rows, 2)
			part = appendColRows(part, &src, idx, 2, chunked)
		}
		if !chunked && len(part) != 1 {
			t.Fatalf("single-batch partition has %d batches", len(part))
		}
		want := int64(0)
		for c, cb := range part {
			if chunked && c < len(part)-1 && cb.NRows != bs {
				t.Errorf("chunk %d of %d holds %d rows, want %d", c, len(part), cb.NRows, bs)
			}
			if chunked && (cb.NRows == 0 || cb.NRows > bs) {
				t.Errorf("chunk %d holds %d rows", c, cb.NRows)
			}
			for r := 0; r < cb.NRows; r++ {
				if got := cb.Value(0, r); got != data.Int(want) {
					t.Fatalf("chunked=%v chunk %d row %d = %v, want %d", chunked, c, r, got, want)
				}
				want++
			}
			data.PutColBatch(cb)
		}
		if want != next {
			t.Fatalf("chunked=%v: partition holds %d rows, appended %d", chunked, want, next)
		}
	}
}

// TestColumnarJoinChunkedPartitions runs inputs whose probe partitions
// span several chunks (two live keys, a fifth of the probe keys NULL, so
// partition 0 also collects the keepNull rows) through every mode and
// join type, with integer and string keys.
func TestColumnarJoinChunkedPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i, jt := range []JoinType{InnerJoin, SemiJoin, AntiJoin, ProbeOuterJoin} {
		build := randKeys(rng, 12, 3, 0.2)
		probe := randKeys(rng, 5*data.BatchSize(), 2, 0.2)
		checkHashJoinModesKeyed(t, build, probe, jt, i%2 == 1)
	}
}

// expectPooledBalance asserts that every pooled ColBatch taken since the
// before mark has been handed back.
func expectPooledBalance(t *testing.T, before int64) {
	t.Helper()
	if out := data.ColBatchesOut(); out != before {
		t.Errorf("pooled batches held: %d before the query, %d after", before, out)
	}
}

// chunkedJoin is an unbudgeted join whose probe partitions span several
// chunks.
func chunkedJoin() *HashJoin {
	return NewHashJoinOn(
		NewScan(makeTable("a", randTable("a", 2000, 40, 61)), ""),
		NewScan(makeTable("b", randTable("b", 40*data.BatchSize(), 40, 62)), ""),
		"a", "k", "b", "k")
}

// TestCancelColumnarJoinReturnsChunks cancels a chunked columnar join in
// the probe partition pass and part-way through the join phase, with
// chunks served, being served and still waiting; each time the join must
// report the cancellation and return every chunk to the pool.
func TestCancelColumnarJoinReturnsChunks(t *testing.T) {
	cases := []struct {
		name        string
		probeSpans  int // cancel at this probe-pass span, or
		outputSpans int // after this many output batches
	}{
		{name: "probe-pass", probeSpans: 20},
		{name: "join-phase", outputSpans: 30},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			goroutines, pooled := runtime.NumGoroutine(), data.ColBatchesOut()
			j := chunkedJoin()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			spans := 0
			j.OnProbeCol = func(*data.ColBatch) {
				if spans++; spans == c.probeSpans {
					cancel()
				}
			}
			Bind(j, ctx)
			if err := j.Open(); err != nil {
				t.Fatal(err)
			}
			var err error
			for n := 0; err == nil; n++ {
				if n == c.outputSpans && n > 0 {
					cancel()
				}
				var cb *data.ColBatch
				if cb, err = j.NextColBatch(); cb == nil && err == nil {
					t.Fatalf("join finished after %d batches without seeing the cancel", n)
				}
			}
			expectCanceled(t, err)
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			expectNoExtraGoroutines(t, goroutines)
			expectPooledBalance(t, pooled)
		})
	}
}

// lateCancelCtx reports cancellation from a chosen Err call on, so a test
// can cancel at a fixed point inside one pull: once armed, it passes
// `left` more checks, then fails every later one. It is read only on the
// executor goroutine.
type lateCancelCtx struct {
	context.Context
	armed bool
	left  int
}

func (c *lateCancelCtx) Err() error {
	switch {
	case !c.armed:
		return nil
	case c.left > 0:
		c.left--
		return nil
	}
	return context.Canceled
}

// TestCancelJoinPhaseWithoutOutput cancels an anti join whose every probe
// row matches, so its join phase emits nothing and one pull would sweep
// the whole probe side: cancelled once the phase's first fill has begun,
// the pull must return context.Canceled having started at most one probe
// chunk, and hand every pooled batch back. One partition of forty chunks
// leaves the per-chunk check the only one inside the sweep.
func TestCancelJoinPhaseWithoutOutput(t *testing.T) {
	pooled := data.ColBatchesOut()
	build := make([]int64, 20)
	for k := range build {
		build[k] = int64(k)
	}
	j := NewHashJoinMulti(
		NewScan(kvTable("b", build), ""),
		NewScan(kvTable("p", randKeys(rand.New(rand.NewSource(29)), 40*data.BatchSize(), 20, 0)), ""),
		[]int{0}, []int{0}, AntiJoin,
	).SetPartitions(1)
	ctx := &lateCancelCtx{Context: context.Background()}
	// Armed between the passes: the partition load's check and the fill's
	// pass, the next one — at the end of the first probe chunk — reports
	// the cancel.
	j.OnProbeEnd = func() { ctx.armed, ctx.left = true, 2 }
	Bind(j, ctx)
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	cb, err := j.NextColBatch()
	if cb != nil {
		t.Fatalf("the anti join emitted %d rows", cb.Live())
	}
	expectCanceled(t, err)
	if started := j.joinedProbes.Load(); started == 0 || started > int64(data.BatchSize()) {
		t.Errorf("the cancelled pull started %d probe rows, want some, at most one chunk (%d)", started, data.BatchSize())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	expectPooledBalance(t, pooled)
}

// TestSpillFaultColumnarJoinReturnsBatches fails each spill I/O operation
// of a budgeted columnar join at its first, middle and last occurrence
// (spillFaultMatrix): the fault must surface with every descriptor closed
// and every pooled batch — partition buffers, frame buffers, decode
// buffers — handed back. A clean run is held to the same balance.
func TestSpillFaultColumnarJoinReturnsBatches(t *testing.T) {
	a := randTable("a", 3000, 100, 63)
	b := randTable("b", 4000, 100, 64)
	spillFaultMatrix(t, func(t *testing.T, fs *vfs.FaultFS) error {
		pooled := data.ColBatchesOut()
		j := NewHashJoinOn(
			NewScan(makeTable("a", a), ""),
			NewScan(makeTable("b", b), ""),
			"a", "k", "b", "k")
		j.SetMemoryBudget(16 * 1024).SetSpillFS(fs)
		_, err := Run(j)
		expectPooledBalance(t, pooled)
		return err
	})
}

// TestBatchSizeKnobStartRace: the data.BatchSize knob may be written
// while queries run — the service runs them concurrently, one goroutine
// each — so it must be safely readable from every one of them (the knob
// was a plain int; this is the -race witness for the atomic fix).
// Restores the default on exit.
func TestBatchSizeKnobStartRace(t *testing.T) {
	defer data.SetBatchSize(data.DefaultBatchSize)
	stop := make(chan struct{})
	var writer, queries sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		sizes := []int{64, 256, 1024, 100}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				data.SetBatchSize(sizes[i%len(sizes)])
			}
		}
	}()
	for q := 0; q < 2; q++ {
		queries.Add(1)
		go func(q int) {
			defer queries.Done()
			for i := 0; i < 4; i++ {
				rng := rand.New(rand.NewSource(int64(50 + 4*q + i)))
				j := NewHashJoinMulti(
					NewScan(kvTable("b", randKeys(rng, 400, 37, 0.15)), ""),
					NewScan(kvTable("p", randKeys(rng, 600, 37, 0.15)), ""),
					[]int{0}, []int{0}, InnerJoin,
				)
				if _, err := Run(j); err != nil {
					t.Error(err)
				}
			}
		}(q)
	}
	queries.Wait()
	close(stop)
	writer.Wait()
}

// kernelKeyShapes are the probe key lanes the chunk kernel tells apart:
// a NULL-free int lane, an int lane with NULLs (bitmap checked per row),
// two generic shapes extracted per row, and a NULL-free int lane whose
// keys include both ends of the int64 domain (int-extremes: hashtab's
// math.MinInt64 sentinel and math.MaxInt64, matched and missed); and the
// build shape that takes the row directory instead of the hash tables, a
// dense primary key, probed by an int lane with NULLs (dense-pk) and by
// a NULL-free one (dense-pk-nonull, the directory kernel in every chunk).
var kernelKeyShapes = []string{"int", "int-nulls", "string", "two-column", "int-extremes", "dense-pk", "dense-pk-nonull"}

// extremeKeys maps four keys of the test encoding onto the ends of the
// int64 domain: two the build side holds (0, 1) and two only the probe
// side draws (41, 42).
var extremeKeys = map[int64]int64{
	0: math.MinInt64, 1: math.MaxInt64,
	41: math.MinInt64 + 1, 42: math.MaxInt64 - 1,
}

// kernelTable builds a table keyed by shape from the test key encoding
// (key < 0 is NULL) with the row position as its last column, "id".
// two-column splits each key into an int and a string column, equal
// exactly when the keys are; the int shapes key by intKey.
func kernelTable(name string, keys []int64, shape string) *storage.Table {
	switch shape {
	case "string":
		return kvTableKeyed(name, keys, true)
	case "two-column":
		t := storage.NewTable(name, data.NewSchema(
			data.Column{Table: name, Name: "k1", Kind: data.KindInt},
			data.Column{Table: name, Name: "k2", Kind: data.KindString},
			data.Column{Table: name, Name: "id", Kind: data.KindInt},
		))
		for i, k := range keys {
			k1, k2 := data.Null(), data.Str(fmt.Sprintf("s%d", k/5))
			if k >= 0 {
				k1 = data.Int(k % 5)
			}
			t.MustAppend(data.Tuple{k1, k2, data.Int(int64(i))})
		}
		return t
	}
	t := storage.NewTable(name, data.NewSchema(
		data.Column{Table: name, Name: "k", Kind: data.KindInt},
		data.Column{Table: name, Name: "id", Kind: data.KindInt},
	))
	for i, k := range keys {
		v := data.Null()
		if k >= 0 {
			v = data.Int(intKey(k, shape))
		}
		t.MustAppend(data.Tuple{v, data.Int(int64(i))})
	}
	return t
}

// kernelKeys draws the inputs of the kernel equivalence test under the
// current batch size: a build side of 40 keys with one to three rows
// each plus a hot key (hotKey) of three batches' worth of rows, so its
// span overruns the pair buffer; and a probe side of runs of one to seven
// equal keys (a lineitem-like FK order) — some missing from the build
// side, some hot, and under nulls some NULL — so equal-key runs straddle
// chunk boundaries.
func kernelKeys(rng *rand.Rand, nulls bool) (build, probe []int64) {
	const hotKey = 40
	for k := int64(0); k < hotKey; k++ {
		for r := rng.Intn(3); r >= 0; r-- {
			build = append(build, k)
		}
	}
	for r := 0; r < 3*data.BatchSize(); r++ {
		build = append(build, hotKey)
	}
	if nulls {
		build = append(build, -1, -1)
	}
	rng.Shuffle(len(build), func(a, b int) { build[a], build[b] = build[b], build[a] })
	for len(probe) < 600 {
		k := int64(rng.Intn(hotKey + hotKey/2)) // a third miss
		switch {
		case rng.Intn(40) == 0:
			k = hotKey
		case nulls && rng.Intn(8) == 0:
			k = -1
		}
		for r := rng.Intn(7); r >= 0; r-- {
			probe = append(probe, k)
		}
	}
	return build, probe
}

// intKey is the value of key k (≥ 0) of an int shape: int-extremes moves
// the keys of extremeKeys, and the dense shapes shift theirs down by
// denseLo, so the directory's span starts at 0 — the lane value under a
// NULL slot, which a kernel that read the lane past its NULL bitmap would
// find there.
func intKey(k int64, shape string) int64 {
	switch {
	case strings.HasPrefix(shape, "dense-pk"):
		return k - denseLo
	case shape == "int-extremes":
		if e, ok := extremeKeys[k]; ok {
			return e
		}
	}
	return k
}

// denseLo is the dense shapes' lowest build key in the test encoding.
const denseLo = 1000

// denseKernelKeys draws the inputs of the dense-pk shapes: a build side
// of 300 distinct keys over a span of 360 (within the directory's 5n/4)
// plus two NULLs the scatter drops, and a probe side of runs of one to
// seven equal keys drawn from 20 below the span to 20 past it (misses in
// its holes and outside it), under nulls one run in eight NULL.
func denseKernelKeys(rng *rand.Rand, nulls bool) (build, probe []int64) {
	const lo, span = denseLo, 360
	build = []int64{lo, lo + span - 1, -1, -1}
	for _, d := range rng.Perm(span - 2)[:296] {
		build = append(build, lo+1+int64(d))
	}
	rng.Shuffle(len(build), func(a, b int) { build[a], build[b] = build[b], build[a] })
	for len(probe) < 600 {
		k := lo - 20 + int64(rng.Intn(span+40))
		if nulls && rng.Intn(8) == 0 {
			k = -1
		}
		for r := rng.Intn(7); r >= 0; r-- {
			probe = append(probe, k)
		}
	}
	return build, probe
}

// kernelJoin wires the two tables of one kernel test case into a hash
// join (keys: every column but the trailing id).
func kernelJoin(bt, pt *storage.Table, jt JoinType, budget int64) *HashJoin {
	keys := []int{0}
	if bt.Schema().Len() == 3 {
		keys = []int{0, 1}
	}
	j := NewHashJoinMulti(NewScan(bt, ""), NewScan(pt, ""), keys, keys, jt)
	if budget > 0 {
		j.SetMemoryBudget(budget)
	}
	return j
}

// probeVisitOrder returns each probe row's position in graceProbeOrder,
// keyed by its id, and how many rows the join phase starts.
func probeVisitOrder(pt *storage.Table, keys []int, jt JoinType, parts int) (map[int64]int, int) {
	rows := graceProbeOrder(pt, keys, jt, parts)
	pos := make(map[int64]int, len(rows))
	for i, row := range rows {
		pos[row[len(row)-1].I] = i
	}
	return pos, len(rows)
}

// TestChunkKernelMatchesGraceOrder holds the join phase — the chunk
// kernel behind NextColBatch, a pair at a time at batch size 1 — to the
// grace-order reference row for row, in order, across every
// join type, probe key shape, in-memory and spilled partitions, and batch
// sizes 1, 7 and 1024. The inputs carry a hot key whose span is three
// batches long (the resume cursor, across fills and, spilled, across
// frame switches) and clustered probe runs that straddle chunks. After
// every emitted batch JoinedProbeFraction must count exactly the probe
// rows started so far: those up to the last emitted row's probe row in
// visiting order, or every row once a pull ends short of a full batch
// (the join then swept to its end), and 1 at the end. The dense-pk builds must take the row
// directory exactly when the join has no memory budget.
func TestChunkKernelMatchesGraceOrder(t *testing.T) {
	defer data.SetBatchSize(data.DefaultBatchSize)
	for _, bs := range []int{1, 7, 1024} {
		data.SetBatchSize(bs)
		for si, shape := range kernelKeyShapes {
			rng := rand.New(rand.NewSource(int64(100*bs + si)))
			var build, probe []int64
			dense := strings.HasPrefix(shape, "dense-pk")
			if dense {
				build, probe = denseKernelKeys(rng, shape == "dense-pk")
			} else {
				build, probe = kernelKeys(rng, shape != "int" && shape != "int-extremes")
			}
			bt, pt := kernelTable("b", build, shape), kernelTable("p", probe, shape)
			for _, jt := range []JoinType{InnerJoin, ProbeOuterJoin, SemiJoin, AntiJoin} {
				for _, budget := range []int64{0, 256} {
					name := fmt.Sprintf("bs=%d/%s/%s/budget=%d", bs, shape, jt, budget)
					checkChunkKernel(t, name, bt, pt, jt, budget, dense && budget == 0)
				}
			}
		}
	}
}

// checkChunkKernel runs one kernel test case; wantDir says whether the join must index its build with the row
// directory.
func checkChunkKernel(t *testing.T, name string, bt, pt *storage.Table, jt JoinType, budget int64, wantDir bool) {
	t.Helper()
	sawDir := func(j *HashJoin, label string) {
		t.Helper()
		if got := j.colTab.rowOf != nil; got != wantDir {
			t.Fatalf("%s: row directory taken = %v, want %v", label, got, wantDir)
		}
	}
	j := kernelJoin(bt, pt, jt, budget)
	want := graceOrder(bt, pt, j.probeKeys, jt, j.parts)
	// The fraction's denominator is the probe rows the join phase starts
	// (the NULL keys an inner or semi join drops never count), so a join
	// swept to its end reads exactly 1.
	pos, started := probeVisitOrder(pt, j.probeKeys, jt, j.parts)
	wantFraction := func(got []data.Tuple, full bool) float64 {
		if !full || len(got) == 0 {
			return 1
		}
		last := got[len(got)-1]
		return float64(pos[last[len(last)-1].I]+1) / float64(started)
	}
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	var got []data.Tuple
	for {
		cb, err := j.NextColBatch()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cb == nil {
			break
		}
		if len(got) == 0 {
			sawDir(j, name)
		}
		got = cb.ToTuples(got)
		if f, w := j.JoinedProbeFraction(), wantFraction(got, cb.Live() == data.BatchSize()); f != w {
			t.Fatalf("%s: after %d rows JoinedProbeFraction = %v, want %v", name, len(got), f, w)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if budget > 0 && j.Stats().SpillFiles.Load() == 0 {
		t.Fatalf("%s: no partition spilled", name)
	}
	if f, w := j.JoinedProbeFraction(), wantFraction(got, false); f != w {
		t.Fatalf("%s: at the end JoinedProbeFraction = %v, want %v", name, f, w)
	}
	requireSameRows(t, want, got, name)
}

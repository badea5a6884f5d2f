package exec

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"qpi/internal/data"
	"qpi/internal/vfs"
)

// Tests of the chunked probe partitions of the lane-native join: how
// appendColRows fills them, that joins whose partitions span several
// chunks agree with the reference in every mode, and that a join which
// ends early — cancelled, or failed by an injected spill fault — hands
// every pooled batch back.

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

// chunkedJoin is an unbudgeted columnar join whose probe partitions span
// several chunks.
func chunkedJoin() *HashJoin {
	j := NewHashJoinOn(
		NewScan(makeTable("a", randTable("a", 2000, 40, 61)), ""),
		NewScan(makeTable("b", randTable("b", 40*data.BatchSize(), 40, 62)), ""),
		"a", "k", "b", "k")
	return j.SetColumnar(true)
}

// drainColErr drains the columnar path returning only the error.
func drainColErr(j *HashJoin) error {
	if err := j.Open(); err != nil {
		return err
	}
	_, err := DrainCol(AsColOperator(j))
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	return err
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

// TestSpillFaultColumnarJoinReturnsBatches fails each spill I/O operation
// of a budgeted columnar join in turn: the fault must surface with every
// descriptor closed and every pooled batch — partition buffers, frame
// buffers, decode buffers — handed back. A clean run is held to the same
// balance.
func TestSpillFaultColumnarJoinReturnsBatches(t *testing.T) {
	a := randTable("a", 3000, 100, 63)
	b := randTable("b", 4000, 100, 64)
	run := func(fs *vfs.FaultFS) error {
		j := NewHashJoinOn(
			NewScan(makeTable("a", a), ""),
			NewScan(makeTable("b", b), ""),
			"a", "k", "b", "k")
		j.SetColumnar(true).SetMemoryBudget(16 * 1024).SetSpillFS(fs)
		return drainColErr(j)
	}
	for _, op := range spillOps {
		t.Run(op.String(), func(t *testing.T) {
			pooled := data.ColBatchesOut()
			fs := vfs.NewFaultFS(nil).FailAt(op, 1)
			expectInjectedIO(t, fs, run(fs))
			expectPooledBalance(t, pooled)
		})
	}
	pooled := data.ColBatchesOut()
	fs := vfs.NewFaultFS(nil)
	if err := run(fs); err != nil {
		t.Fatal(err)
	}
	if fs.Count(vfs.OpCreate) == 0 {
		t.Fatal("the join never spilled")
	}
	expectPooledBalance(t, pooled)
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
				if err := drainColErr(j.SetColumnar(true)); err != nil {
					t.Error(err)
				}
			}
		}(q)
	}
	queries.Wait()
	close(stop)
	writer.Wait()
}

package exec

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"qpi/internal/data"
	"qpi/internal/vfs"
)

// Tests for the morsel-driven columnar partition passes. Multiset
// equivalence with the other paths lives in joinmodes_test and
// internal/difftest; this
// file pins the contracts around them: pass engagement and fallback
// rules, the scan punctuation/stats contract under concurrent morsel
// drains, cancellation mid-morsel, spill faults on the fallback path,
// goroutine hygiene, and the batch-size knob race.

// morselJoin builds a join over two multi-block tables with morsel-driven
// scans: single-block morsels so even these tables split into many
// concurrent claims.
func morselJoin(workers int, seed int64) *HashJoin {
	rng := rand.New(rand.NewSource(seed))
	j := NewHashJoinMulti(
		NewScan(kvTable("b", randKeys(rng, 400, 37, 0.15)), ""),
		NewScan(kvTable("p", randKeys(rng, 600, 37, 0.15)), ""),
		[]int{0}, []int{0}, InnerJoin,
	)
	j.SetColumnar(true).SetMorselWorkers(workers).SetMorselBlocks(1)
	return j
}

// TestMorselPassEngages: with morsel workers set and eligible scan
// children, both partition passes must actually run morselized (the scans
// end the pass morsel-drained), the output must match the serial run's
// multiset, and the worker-indexed span hooks must collectively see every
// input row with worker indexes inside [0, Workers).
func TestMorselPassEngages(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	build := randKeys(rng, 400, 37, 0.15)
	probe := randKeys(rng, 600, 37, 0.15)
	want := refJoin(build, probe, InnerJoin)

	j := NewHashJoinMulti(
		NewScan(kvTable("b", build), ""),
		NewScan(kvTable("p", probe), ""),
		[]int{0}, []int{0}, InnerJoin,
	)
	j.SetColumnar(true).SetMorselWorkers(3).SetMorselBlocks(1)

	var buildSeen, probeSeen atomic.Int64
	count := func(seen *atomic.Int64) func(int, *data.ColBatch) {
		return func(w int, cb *data.ColBatch) {
			if w < 0 || w >= j.Workers() {
				t.Errorf("span hook fired with worker %d outside [0,%d)", w, j.Workers())
			}
			seen.Add(int64(cb.Live()))
		}
	}
	j.OnBuildColBatch = count(&buildSeen)
	j.OnProbeColBatch = count(&probeSeen)

	equalMultisets(t, "morsel", drainMode(t, j, true), want)
	bs, ps := j.build.(*Scan), j.probe.(*Scan)
	if !bs.morselDrained || !ps.morselDrained {
		t.Fatalf("morsel pass never engaged (build drained=%v probe drained=%v)",
			bs.morselDrained, ps.morselDrained)
	}
	if buildSeen.Load() != 400 || probeSeen.Load() != 600 {
		t.Fatalf("worker hooks saw %d build / %d probe rows, want 400/600",
			buildSeen.Load(), probeSeen.Load())
	}
}

// TestMorselEligibility pins the fallback rules: sampled scans, memory
// budgets, fewer than two workers and non-scan children must all refuse
// to morselize.
func TestMorselEligibility(t *testing.T) {
	j := morselJoin(3, 1)
	sc := j.build.(*Scan)
	if j.morselScanOf(sc) == nil {
		t.Fatal("eligible scan refused")
	}
	sc.SampleFraction = 0.5
	if j.morselScanOf(sc) != nil {
		t.Fatal("sampled scan accepted: the sample prefix order is serial")
	}
	sc.SampleFraction = 0

	j.SetMemoryBudget(128)
	if j.morselScanOf(sc) != nil {
		t.Fatal("budgeted join accepted: spill accounting is single-threaded")
	}
	j.SetMemoryBudget(0)

	for _, k := range []int{0, 1} {
		j.SetMorselWorkers(k)
		if j.morselScanOf(sc) != nil {
			t.Fatalf("join with %d morsel workers accepted", k)
		}
	}
	j.SetMorselWorkers(3)

	inner := morselJoin(3, 2)
	if j.morselScanOf(inner) != nil {
		t.Fatal("non-scan child accepted")
	}
}

// TestMorselScanPunctuationContract: after a morsel pass each scan's
// stats must look exactly like a completed sequential scan — Emitted
// equals InputTotal with no double-counting across workers, the scan is
// done, OnSampleEnd never fired, and a stray post-pass pull on either
// contract returns end-of-stream instead of re-emitting the table.
func TestMorselScanPunctuationContract(t *testing.T) {
	j := morselJoin(4, 11)
	bs, ps := j.build.(*Scan), j.probe.(*Scan)
	sampleEnds := 0
	bs.OnSampleEnd = func() { sampleEnds++ }
	ps.OnSampleEnd = func() { sampleEnds++ }
	drainMode(t, j, true)

	for _, sc := range []*Scan{bs, ps} {
		if got, want := sc.Stats().Emitted.Load(), sc.Stats().InputTotal; got != want {
			t.Fatalf("%s emitted %d, input total %d", sc.Name(), got, want)
		}
		if !sc.Stats().IsDone() {
			t.Fatalf("%s not done after morsel pass", sc.Name())
		}
		if sc.Stats().Batches.Load() == 0 {
			t.Fatalf("%s recorded no batches", sc.Name())
		}
		if tu, err := sc.Next(); err != nil || tu != nil {
			t.Fatalf("post-pass Next = (%v, %v), want (nil, nil)", tu, err)
		}
		if cb, err := sc.NextColBatch(); err != nil || cb != nil {
			t.Fatalf("post-pass NextColBatch = (%v, %v), want (nil, nil)", cb, err)
		}
	}
	if sampleEnds != 0 {
		t.Fatalf("OnSampleEnd fired %d times on sequential scans", sampleEnds)
	}
}

// TestCancelMidMorselScan cancels from the scan's OnTuple hook while
// morsel workers are mid-claim: the drain must return context.Canceled,
// every scan worker must be reaped and every pooled batch handed back.
// (The Cancel prefix places this in the leakcheck suite.)
func TestCancelMidMorselScan(t *testing.T) {
	before, pooled := runtime.NumGoroutine(), data.ColBatchesOut()
	j := morselJoin(4, 23)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	j.probe.(*Scan).OnTuple = func(data.Tuple) {
		// Fires under the pass hook mutex; cancel partway through the
		// probe pass so workers still hold unclaimed morsels.
		if n++; n == 100 {
			cancel()
		}
	}
	Bind(j, ctx)
	expectCanceled(t, drainColErr(j))
	expectNoExtraGoroutines(t, before)
	expectPooledBalance(t, pooled)
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

// TestSpillFaultMorselFallback: a morsel-enabled join with a memory
// budget falls back to the serial scatter (spill accounting is
// single-threaded); injected write faults during that scatter must
// surface cleanly with every descriptor closed and every pooled batch
// returned — the morsel knob must not disturb the spill fault paths.
func TestSpillFaultMorselFallback(t *testing.T) {
	before, pooled := runtime.NumGoroutine(), data.ColBatchesOut()
	fs := vfs.NewFaultFS(nil).FailAt(vfs.OpWrite, 1)
	j := morselJoin(4, 29)
	j.SetMemoryBudget(512)
	j.SetSpillFS(fs)
	expectInjectedIO(t, fs, drainColErr(j))
	expectNoExtraGoroutines(t, before)
	expectPooledBalance(t, pooled)
}

// TestMorselLeakOnCleanRun: a successful morsel run leaves no goroutines
// and no pooled batches behind (the Leak suffix places this in the
// leakcheck suite).
func TestMorselLeakOnCleanRun(t *testing.T) {
	before, pooled := runtime.NumGoroutine(), data.ColBatchesOut()
	drainMode(t, morselJoin(4, 41), true)
	expectNoExtraGoroutines(t, before)
	expectPooledBalance(t, pooled)
}

// TestBatchSizeKnobStartRace: the data.BatchSize knob may be written
// while queries run; it must be safely readable from concurrent scan
// workers (the knob was a plain int — this is the -race witness for the
// atomic fix). Restores the default on exit.
func TestBatchSizeKnobStartRace(t *testing.T) {
	defer data.SetBatchSize(data.DefaultBatchSize)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
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
	for i := 0; i < 4; i++ {
		drainMode(t, morselJoin(3, int64(50+i)), true)
	}
	close(stop)
	wg.Wait()
}

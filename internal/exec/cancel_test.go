package exec

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"qpi/internal/data"
	"qpi/internal/vfs"
)

// The cancellation contract under test: after Bind(root, ctx), cancelling
// ctx (or letting its deadline expire) makes execution return ctx.Err()
// within one batch of work, in every phase of every operator, with Close
// releasing all spill descriptors and no goroutine left behind.

func expectCanceled(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// expectNoExtraGoroutines polls until the goroutine count drops back to
// the before mark (hand-rolled leak check; no external deps).
func expectNoExtraGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
}

func TestCancelMidScan(t *testing.T) {
	vals := randTable("t", 100000, 1000, 11)
	sc := NewScan(makeTable("t", vals), "")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAt = 500
	n := 0
	sc.OnTuple = func(data.Tuple) {
		if n++; n == cancelAt {
			cancel()
		}
	}
	Bind(sc, ctx)
	_, err := Run(sc)
	expectCanceled(t, err)
	// "Within one batch of work": the amortized poll checks every 128th
	// call, far under the 1024-tuple batch bound.
	if emitted := sc.Stats().Emitted.Load(); emitted > cancelAt+128 {
		t.Errorf("scan emitted %d tuples after cancel at %d", emitted, cancelAt)
	}
}

func TestCancelAlreadyExpired(t *testing.T) {
	sc := NewScan(makeTable("t", randTable("t", 10000, 100, 12)), "")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	Bind(sc, ctx)
	_, err := Run(sc)
	expectCanceled(t, err)
}

func TestCancelDeadlineExceeded(t *testing.T) {
	sc := NewScan(makeTable("t", randTable("t", 10000, 100, 13)), "")
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	Bind(sc, ctx)
	_, err := Run(sc)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

// cancelJoin runs a hash join (spilling when budget > 0) on the tuple path
// or the columnar path, with its ctx cancelled by the phase hook arm
// installs, and asserts the cancellation surfaces with every spill
// descriptor closed, no goroutine left and every pooled batch returned.
func cancelJoin(t *testing.T, budget int64, columnar bool, arm func(j *HashJoin, cancel func())) {
	t.Helper()
	goroutines, pooled := runtime.NumGoroutine(), data.ColBatchesOut()
	a := randTable("a", 3000, 100, 14)
	b := randTable("b", 4000, 100, 15)
	fs := vfs.NewFaultFS(nil)
	j := NewHashJoinOn(
		NewScan(makeTable("a", a), ""),
		NewScan(makeTable("b", b), ""),
		"a", "k", "b", "k")
	j.SetMemoryBudget(budget).SetSpillFS(fs).SetColumnar(columnar)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	arm(j, cancel)
	Bind(j, ctx)
	var err error
	if columnar {
		_, err = RunCol(j)
	} else {
		_, err = Run(j)
	}
	expectCanceled(t, err)
	if open := fs.OpenFiles(); open != 0 {
		t.Errorf("%d spill files still open after cancelled run", open)
	}
	expectNoExtraGoroutines(t, goroutines)
	expectPooledBalance(t, pooled)
}

// cancelInPass cancels a join `at` rows into its build or probe partition
// pass: on the tuple path armed through the per-tuple hook, on the
// columnar path through the span hook's row counts.
func cancelInPass(t *testing.T, budget int64, build bool, at int) {
	t.Run("tuple", func(t *testing.T) {
		cancelJoin(t, budget, false, func(j *HashJoin, cancel func()) {
			n := 0
			hook := func(data.Tuple) {
				if n++; n == at {
					cancel()
				}
			}
			if build {
				j.OnBuildTuple = hook
			} else {
				j.OnProbeTuple = hook
			}
		})
	})
	t.Run("columnar", func(t *testing.T) {
		cancelJoin(t, budget, true, func(j *HashJoin, cancel func()) {
			n := 0
			hook := func(cb *data.ColBatch) {
				if n < at && n+cb.Live() >= at {
					cancel()
				}
				n += cb.Live()
			}
			if build {
				j.OnBuildCol = hook
			} else {
				j.OnProbeCol = hook
			}
		})
	})
}

func TestCancelMidBuild(t *testing.T)      { cancelInPass(t, 0, true, 700) }
func TestCancelMidProbe(t *testing.T)      { cancelInPass(t, 0, false, 700) }
func TestCancelMidSpillBuild(t *testing.T) { cancelInPass(t, 16*1024, true, 2500) }
func TestCancelMidSpillProbe(t *testing.T) { cancelInPass(t, 16*1024, false, 2000) }

// TestCancelMidOutput cancels from the output hook, which on the columnar
// path sends emission through the row fallback; TestCancelColumnarJoin-
// ReturnsChunks cancels the lane-to-lane join phase.
func TestCancelMidOutput(t *testing.T) {
	for _, columnar := range []bool{false, true} {
		cancelJoin(t, 16*1024, columnar, func(j *HashJoin, cancel func()) {
			n := 0
			j.OnOutput = func(data.Tuple) {
				if n++; n == 1000 {
					cancel()
				}
			}
		})
	}
}

func TestCancelMidSortInput(t *testing.T) {
	vals := randTable("t", 5000, 100000, 16)
	fs := vfs.NewFaultFS(nil)
	sc := NewScan(makeTable("t", vals), "")
	s := NewSort(sc, 0)
	s.SetMemoryBudget(8 * 1024)
	s.SetSpillFS(fs)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	s.OnInput = func(data.Tuple) {
		if n++; n == 3000 {
			cancel()
		}
	}
	Bind(s, ctx)
	_, err := Run(s)
	expectCanceled(t, err)
	if open := fs.OpenFiles(); open != 0 {
		t.Errorf("%d spill files still open after cancelled sort", open)
	}
	if fs.MaxOpenFiles() == 0 {
		t.Error("sort never spilled; the test did not cover the spill path")
	}
}

// TestCancelMidSortMerge cancels after output has started, i.e. during
// the k-way merge of spilled runs.
func TestCancelMidSortMerge(t *testing.T) {
	vals := randTable("t", 5000, 100000, 17)
	fs := vfs.NewFaultFS(nil)
	s := NewSort(NewScan(makeTable("t", vals), ""), 0)
	s.SetMemoryBudget(8 * 1024)
	s.SetSpillFS(fs)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	Bind(s, ctx)
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	var err error
	for i := 0; ; i++ {
		var tu data.Tuple
		tu, err = s.Next()
		if err != nil || tu == nil {
			break
		}
		if i == 100 {
			cancel()
		}
	}
	expectCanceled(t, err)
	if s.Runs() == 0 {
		t.Fatal("sort never spilled; merge phase not exercised")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if open := fs.OpenFiles(); open != 0 {
		t.Errorf("%d spill files still open after Close", open)
	}
}

func TestCancelMergeJoin(t *testing.T) {
	a := randTable("a", 2000, 60, 18)
	b := randTable("b", 2500, 60, 19)
	mj, _, _ := NewSortMergeJoin(
		NewScan(makeTable("a", a), ""),
		NewScan(makeTable("b", b), ""), 0, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	mj.OnOutput = func(data.Tuple) {
		if n++; n == 500 {
			cancel()
		}
	}
	Bind(mj, ctx)
	_, err := Run(mj)
	expectCanceled(t, err)
}

func TestCancelNLJoin(t *testing.T) {
	a := randTable("a", 500, 60, 20)
	b := randTable("b", 500, 60, 21)
	j := NewIndexedNLJoin(
		NewScan(makeTable("a", a), ""),
		NewScan(makeTable("b", b), ""), 0, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	Bind(j, ctx)
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	var err error
	for i := 0; ; i++ {
		var tu data.Tuple
		tu, err = j.Next()
		if err != nil || tu == nil {
			break
		}
		if i == 300 {
			cancel()
		}
	}
	expectCanceled(t, err)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCancelHashAgg(t *testing.T) {
	vals := randTable("t", 50000, 500, 22)
	sc := NewScan(makeTable("t", vals), "")
	agg := NewHashAgg(sc, []int{0}, []AggSpec{{Func: CountStar}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	sc.OnTuple = func(data.Tuple) {
		if n++; n == 10000 {
			cancel()
		}
	}
	Bind(agg, ctx)
	_, err := Run(agg)
	expectCanceled(t, err)
}

// TestBindIsUniform verifies Bind reaches every operator in a bushy plan
// (the contract Query.Run relies on).
func TestBindIsUniform(t *testing.T) {
	j := NewHashJoinOn(
		NewScan(makeTable("a", []int64{1, 2}), ""),
		NewScan(makeTable("b", []int64{1, 2}), ""),
		"a", "k", "b", "k")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	Bind(j, ctx)
	bound := 0
	Walk(j, func(op Operator) {
		type ctxHolder interface{ ctxErr() error }
		if h, ok := op.(ctxHolder); ok && h.ctxErr() != nil {
			bound++
		}
	})
	if bound != 3 {
		t.Fatalf("Bind reached %d of 3 operators", bound)
	}
}

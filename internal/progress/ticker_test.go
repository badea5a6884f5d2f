package progress

import (
	"math/rand"
	"slices"
	"testing"

	"qpi/internal/catalog"
	"qpi/internal/core"
	"qpi/internal/data"
	"qpi/internal/exec"
	"qpi/internal/expr"
	"qpi/internal/plan"
)

// columnarAggPlan builds HashAgg(HashJoin(Scan a, Scan b)) with the online
// estimators attached, as Engine.Compile does.
func columnarAggPlan(t *testing.T, seed int64) (*exec.HashAgg, *exec.HashJoin, *Monitor) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ta := table("a", randCol(rng, 3000, 40))
	tb := table("b", randCol(rng, 5000, 40))
	cat := catalog.New()
	cat.Register(ta)
	cat.Register(tb)
	j := exec.NewHashJoinOn(exec.NewScan(ta, ""), exec.NewScan(tb, ""), "a", "k", "b", "k")
	agg := exec.NewHashAgg(j, []int{0}, []exec.AggSpec{{Func: exec.CountStar}})
	plan.EstimateCardinalities(agg, cat)
	att := core.Attach(agg)
	return agg, j, NewMonitorWith(agg, ModeOnce, att)
}

// runTicked drains root the way Query.drain does, with a ticker calling f
// every `every` units of work installed on the plan and one Add per root
// batch, and returns the row count.
func runTicked(root exec.Operator, every int64, f func()) (int64, error) {
	return drainTicked(root, NewTicker(every, f))
}

// drainTicked is runTicked with the ticker given.
func drainTicked(root exec.Operator, tk *Ticker) (int64, error) {
	tk.Install(root)
	if err := root.Open(); err != nil {
		return 0, err
	}
	var n int64
	for {
		cb, err := root.NextColBatch()
		if err != nil {
			root.Close()
			return n, err
		}
		if cb == nil {
			return n, root.Close()
		}
		n += int64(cb.Live())
		tk.Add(int64(cb.Live()))
	}
}

// TestTickerColumnarCountsSpans: the ticker counts every unit of work —
// scan rows, both partition passes, the aggregation's input and the
// root's output — a span at a time, and publishes at most once per batch.
func TestTickerColumnarCountsSpans(t *testing.T) {
	agg, j, m := columnarAggPlan(t, 1)
	var lastC float64
	ticks := 0
	tk := NewTicker(1, func() {
		ticks++
		rep := m.Report()
		if rep.C <= lastC {
			t.Fatalf("tick %d: C = %v after %v: the same batch was published twice", ticks, rep.C, lastC)
		}
		lastC = rep.C
	})
	out, err := drainTicked(agg, tk)
	if err != nil {
		t.Fatal(err)
	}
	joined := j.Stats().Emitted.Load()
	// Scans, build and probe input, the aggregation's input, its output.
	if want := 2*(3000+5000) + joined + out; tk.work != want {
		t.Errorf("ticker counted %d units of work, want %d", tk.work, want)
	}
	var batches int64
	exec.Walk(agg, func(op exec.Operator) { batches += op.Stats().Batches.Load() })
	if ticks == 0 || int64(ticks) > batches {
		t.Errorf("%d ticks for %d batches", ticks, batches)
	}
}

// TestTickerPublishesFilteredScan: a filter that drops whole batches
// leaves nothing for a consumer to count, so the scan's own batch
// boundary has to keep the callbacks coming.
func TestTickerPublishesFilteredScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ta := table("a", randCol(rng, 10*data.BatchSize(), 50))
	none := expr.Compare(expr.LT, expr.Col{Index: 0, Name: "a.k"}, expr.Lit(data.Int(0)))
	f := exec.NewFilter(exec.NewScan(ta, ""), none)
	ticks := 0
	tk := NewTicker(100, func() { ticks++ })
	tk.Install(f)
	n, err := exec.Run(f)
	if err != nil || n != 0 {
		t.Fatalf("Run = %d, %v", n, err)
	}
	// Every scan batch but the last publishes the one before it.
	if ticks != 9 {
		t.Errorf("%d ticks over 10 fully filtered batches, want 9", ticks)
	}
}

// TestInstallTickerKeepsTupleBehaviour: on a plan of one-row batches
// under a row operator — a merge join over two scans of pre-sorted tables
// — InstallTicker is what the tuple-at-a-time ticker was: one call per
// `every` units of work moved (each scan's rows, the join's output).
func TestInstallTickerKeepsTupleBehaviour(t *testing.T) {
	defer data.SetBatchSize(0)
	data.SetBatchSize(1)
	rng := rand.New(rand.NewSource(3))
	a, b := randCol(rng, 2000, 30), randCol(rng, 3000, 30)
	slices.Sort(a)
	slices.Sort(b)
	ta, tb := table("a", a), table("b", b)
	sa, sb := exec.NewScan(ta, ""), exec.NewScan(tb, "")
	mj := exec.NewMergeJoin(sa, sb, 0, 0)
	ticks := 0
	InstallTicker(mj, 100, func() { ticks++ })
	n, err := exec.Run(mj)
	if err != nil {
		t.Fatal(err)
	}
	work := sa.Stats().Emitted.Load() + sb.Stats().Emitted.Load() + n
	if work < 2000+n {
		t.Fatalf("the merge join read only %d input rows", work-n)
	}
	if want := int(work / 100); ticks != want {
		t.Errorf("%d ticks, want %d", ticks, want)
	}
}

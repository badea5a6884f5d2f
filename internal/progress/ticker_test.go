package progress

import (
	"math/rand"
	"testing"

	"qpi/internal/catalog"
	"qpi/internal/core"
	"qpi/internal/data"
	"qpi/internal/exec"
	"qpi/internal/expr"
	"qpi/internal/plan"
)

// columnarAggPlan builds HashAgg(HashJoin(Scan a, Scan b)) with the join
// columnar and the online estimators attached, as Engine.Compile does.
func columnarAggPlan(t *testing.T, seed int64) (*exec.HashAgg, *exec.HashJoin, *Monitor) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ta := table("a", randCol(rng, 3000, 40))
	tb := table("b", randCol(rng, 5000, 40))
	cat := catalog.New()
	cat.Register(ta)
	cat.Register(tb)
	j := exec.NewHashJoinOn(exec.NewScan(ta, ""), exec.NewScan(tb, ""), "a", "k", "b", "k")
	j.SetColumnar(true)
	agg := exec.NewHashAgg(j, []int{0}, []exec.AggSpec{{Func: exec.CountStar}})
	plan.EstimateCardinalities(agg, cat)
	att := core.Attach(agg)
	return agg, j, NewMonitorWith(agg, ModeOnce, att)
}

// TestTickerColumnarCountsSpans: on a plan drained column-at-a-time the
// ticker installs no per-tuple hook (one would send the join's output and
// the aggregation's input back to rows), counts every unit of work the
// tuple ticker counts, and publishes at most once per batch.
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
	tk.Install(agg, true)
	if j.OnOutput != nil || j.OnBuildTuple != nil || j.OnProbeTuple != nil || agg.OnInput != nil {
		t.Fatal("a per-tuple hook was installed on a columnar operator")
	}
	exec.Walk(agg, func(op exec.Operator) {
		if sc, ok := op.(*exec.Scan); ok && sc.OnTuple != nil {
			t.Fatalf("%s: per-tuple hook on a scan pulled column-at-a-time", sc.Name())
		}
	})
	root := exec.AsColOperator(agg)
	if err := root.Open(); err != nil {
		t.Fatal(err)
	}
	var out int64
	for {
		cb, err := root.NextColBatch()
		if err != nil {
			t.Fatal(err)
		}
		if cb == nil {
			break
		}
		out += int64(cb.Live())
		tk.Add(int64(cb.Live()))
	}
	if err := root.Close(); err != nil {
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
	tk.Install(f, true)
	n, err := exec.RunCol(exec.AsColOperator(f))
	if err != nil || n != 0 {
		t.Fatalf("RunCol = %d, %v", n, err)
	}
	// Every scan batch but the last publishes the one before it.
	if ticks != 9 {
		t.Errorf("%d ticks over 10 fully filtered batches, want 9", ticks)
	}
}

// TestInstallTickerKeepsTupleBehaviour: on a tuple plan InstallTicker is
// what it always was — one call per `every` tuples moved.
func TestInstallTickerKeepsTupleBehaviour(t *testing.T) {
	j, _ := buildJoinQuery(t, 3, ModeOnce)
	ticks := 0
	InstallTicker(j, 100, func() { ticks++ })
	n, err := exec.Run(j)
	if err != nil {
		t.Fatal(err)
	}
	if want := int((2*(2000+3000) + n) / 100); ticks != want {
		t.Errorf("%d ticks, want %d", ticks, want)
	}
}

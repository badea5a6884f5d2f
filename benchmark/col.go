package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"qpi/internal/catalog"
	"qpi/internal/core"
	"qpi/internal/data"
	"qpi/internal/exec"
	"qpi/internal/obs"
	"qpi/internal/plan"
	"qpi/internal/storage"
	"qpi/internal/tpch"
	"qpi/internal/vfs"
)

// colWorkload is pkfk_join_col: the PK-FK join wired by hand from
// internal/exec on the lane-native columnar path, which the public API
// cannot select. It bypasses sql, the plan pipelines and progress.
type colWorkload struct {
	cat              *catalog.Catalog
	orders, lineitem *storage.Table
	spillFS          *vfs.FaultFS
}

// hookTimes accumulates the time spent inside the estimator hooks of
// one query (traced run only: it wraps the join's On* fields).
type hookTimes struct {
	total time.Duration
	calls int
}

func timeCol(h *hookTimes, f func(*data.ColBatch)) func(*data.ColBatch) {
	if f == nil {
		return nil
	}
	return func(cb *data.ColBatch) {
		t := time.Now()
		f(cb)
		h.total += time.Since(t)
		h.calls++
	}
}

func time0(h *hookTimes, f func()) func() {
	if f == nil {
		return nil
	}
	return func() {
		t := time.Now()
		f()
		h.total += time.Since(t)
		h.calls++
	}
}

// colIter is what one hand-wired columnar query measured.
type colIter struct {
	wall     time.Duration
	hooks    hookTimes
	events   int
	tuples   int64
	batches  int64
	spills   int64
	recomp   int64
	probes   int64
	drift    float64
	problems []string
}

// runOnce wires and drains one join. With traced it binds an engine
// tracer, wraps the estimator hooks with timers and records spans.
func (w *colWorkload) runOnce(on, traced bool, tl *traceLog) (it colIter) {
	t0 := time.Now()
	bs := exec.NewScan(w.orders, "")
	ps := exec.NewScan(w.lineitem, "")
	j := exec.NewHashJoin(bs, ps,
		bs.Schema().MustResolve("orders", "orderkey"),
		ps.Schema().MustResolve("lineitem", "orderkey"))
	j.SetColumnar(true)
	j.SetSpillFS(w.spillFS)
	t1 := time.Now()
	plan.EstimateCardinalities(j, w.cat)
	t2 := time.Now()
	optimizer := j.Stats().Estimate()
	var att *core.Attachment
	if on {
		att = core.Attach(j)
	}
	t3 := time.Now()
	var tr *obs.Tracer
	if traced {
		tr = obs.New()
		exec.BindTracer(j, tr)
		if att != nil {
			att.SetTracer(tr)
		}
		j.OnBuildCol = timeCol(&it.hooks, j.OnBuildCol)
		j.OnProbeCol = timeCol(&it.hooks, j.OnProbeCol)
		j.OnBuildEnd = time0(&it.hooks, j.OnBuildEnd)
		j.OnProbeEnd = time0(&it.hooks, j.OnProbeEnd)
	}
	t4 := time.Now()
	n, err := exec.RunCol(j)
	t5 := time.Now()
	it.wall = t5.Sub(t0)

	name := "col_off"
	if on {
		name = "col_on"
	}
	if traced {
		name = "col_on_traced"
	}
	root := tl.add(0, "bench", name, t0, t5)
	tl.add(root, "plan", "estimate", t1, t2)
	if on {
		tl.add(root, "core", "attach", t2, t3)
	}
	run := tl.add(root, "exec", "run_col", t4, t5)
	if traced {
		it.events = tr.Len()
		tl.foldEvents(run, t3, tr.Events())
	}

	if err != nil {
		it.problems = append(it.problems, err.Error())
		return it
	}
	if want := int64(w.lineitem.NumRows()); n != want {
		it.problems = append(it.problems, fmt.Sprintf("%d rows, want %d", n, want))
	}
	exec.Walk(j, func(op exec.Operator) {
		st := op.Stats()
		it.tuples += st.Emitted.Load()
		it.batches += st.Batches.Load()
		it.spills += st.SpillFiles.Load()
	})
	if it.spills != 0 {
		it.problems = append(it.problems, fmt.Sprintf("%d spill files on an in-memory workload", it.spills))
	}
	if on {
		st := j.Stats()
		if src := st.Source(); st.Total() != float64(n) || (src != "once-exact" && src != "exact") {
			it.problems = append(it.problems, fmt.Sprintf("join ended at estimate %v (%s), emitted %d", st.Total(), src, n))
		}
		it.recomp, it.probes = att.Recomputes(), att.HistogramProbes()
		if optimizer > 0 && n > 0 {
			it.drift = float64(n) / optimizer
			if it.drift < 1 {
				it.drift = 1 / it.drift
			}
		}
	}
	return it
}

// publicCount runs the same join once through the public API on an
// engine loaded from the same seed, the count the hand-wired route must
// reproduce.
func publicCount(cfg config) (int64, error) {
	eng, err := pkfkEngine(pkfkConfig(cfg))
	if err != nil {
		return 0, err
	}
	q, err := eng.Query(pkfkSQL)
	if err != nil {
		return 0, err
	}
	return q.Run(context.Background())
}

// scanRate drains lineitem alone through the columnar (or, for the
// tuple workload, row) path and returns rows per second.
func scanRate(t *storage.Table, columnar bool, reps int) samples {
	var out samples
	for i := 0; i < reps; i++ {
		sc := exec.NewScan(t, "")
		t0 := time.Now()
		var n int64
		var err error
		if columnar {
			n, err = exec.RunCol(sc)
		} else {
			n, err = exec.Run(sc)
		}
		if err != nil || n != int64(t.NumRows()) {
			continue
		}
		out.add(float64(n) / time.Since(t0).Seconds())
	}
	return out
}

func runPKFKJoinCol(cfg config) (*report, error) {
	goroutines := runtime.NumGoroutine()
	rep, err := newReport()
	if err != nil {
		return nil, err
	}
	w, err := timedSetup(rep, func() (*colWorkload, error) {
		cat, err := tpch.Generate(pkfkConfig(cfg))
		if err != nil {
			return nil, err
		}
		fs, err := newSpillFS(cfg)
		if err != nil {
			return nil, err
		}
		return &colWorkload{
			cat:      cat,
			orders:   cat.MustLookup("orders").Table,
			lineitem: cat.MustLookup("lineitem").Table,
			spillFS:  fs,
		}, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	want, err := publicCount(cfg)
	if err != nil {
		return nil, err
	}
	if want != int64(w.lineitem.NumRows()) {
		rep.invariant("public API returns %d rows, lineitem has %d", want, w.lineitem.NumRows())
	}
	inputRows := int64(w.orders.NumRows() + w.lineitem.NumRows())
	record := func(it colIter, what string) {
		rep.attempted++
		if len(it.problems) > 0 {
			rep.fail("pkfk_join_col %s: %v", what, it.problems)
		}
	}

	if !cfg.trace {
		err := onOffWindow(cfg, rep, inputRows, func(on bool) (time.Duration, []string) {
			it := w.runOnce(on, false, nil)
			return it.wall, it.problems
		})
		leakCheck(rep, goroutines, w.spillFS)
		return rep, err
	}

	tl := newTraceLog()
	for i := 0; i < warmupIters; i++ {
		w.runOnce(true, true, nil)
		w.runOnce(false, false, nil)
	}
	var (
		et                           engineTrace
		hookMs, hookCalls, hookShare samples
	)
	deadline := time.Now().Add(cfg.window)
	order := rand.New(rand.NewSource(cfg.seed))
	for time.Now().Before(deadline) {
		for _, v := range order.Perm(3) {
			et.next(rep)
			switch v {
			case 0:
				it := w.runOnce(true, true, tl)
				record(it, "estimators on, traced")
				et.traced.addDur(it.wall)
				et.events.add(float64(it.events))
				hookMs.add(ms(it.hooks.total))
				hookCalls.add(float64(it.hooks.calls))
				hookShare.add(float64(it.hooks.total) / float64(it.wall))
			case 1:
				it := w.runOnce(true, false, tl)
				et.onDone(it.wall, it.tuples, it.batches, it.recomp, it.probes, it.drift)
				record(it, "estimators on")
			case 2:
				it := w.runOnce(false, false, tl)
				record(it, "estimators off")
				et.off.addDur(it.wall)
			}
		}
	}
	if len(et.on) == 0 {
		return nil, fmt.Errorf("window %s too short for one traced cycle", cfg.window)
	}
	et.fill(rep)
	tl.finish()
	spanMetric := func(metric, layer, name string, scale float64) {
		if s := tl.selfByRoot("col_on_traced", layer, name); len(s) > 0 {
			rep.set(metric, s.median()/scale, len(s))
		}
	}
	spanMetric("plan.estimate_us", "plan", "estimate", 1)
	spanMetric("core.attach_us", "core", "attach", 1)
	spanMetric("exec.partition_build_ms", "exec", "partition_build", 1e3)
	spanMetric("exec.partition_probe_ms", "exec", "partition_probe", 1e3)
	spanMetric("exec.join_ms", "exec", "join", 1e3)
	scan := scanRate(w.lineitem, true, 20)
	rep.set("storage.scan_rows_per_s", scan.median(), len(scan))
	rep.set("core.hook_ms", hookMs.median(), len(hookMs))
	rep.set("core.hook_calls", hookCalls.median(), len(hookCalls))
	rep.set("core.hook_share", hookShare.median(), len(hookShare))
	leakCheck(rep, goroutines, w.spillFS)
	return rep, tl.write(cfg.outDir, "pkfk_join_col")
}

package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"qpi"
	"qpi/internal/catalog"
	"qpi/internal/core"
	"qpi/internal/exec"
	"qpi/internal/plan"
	"qpi/internal/progress"
	"qpi/internal/vfs"
)

const (
	// progressEvery is the WithProgress publication interval: the
	// library's default, which is what a caller who asks for progress
	// gets.
	progressEvery = 4096
	// warmupIters full cycles are run and discarded before a window, so
	// buffer pools are filled and the heap has reached its steady size.
	warmupIters = 5
	// setupReps set-ups are timed and the median reported; the last one
	// is kept and measured.
	setupReps = 5
)

// tupleWorkload is an engine workload that runs one plan through the
// public API, the way a user reaches it, and (traced run only) through
// a hand-wired copy of Engine.Compile that times each layer's call.
type tupleWorkload struct {
	name      string
	inputRows int64 // base-table rows one query scans
	wantRows  int64 // output rows of a correct query
	// newQuery builds a fresh single-use query through the public API.
	newQuery func(opts ...qpi.CompileOption) (*qpi.Query, error)
	// cat holds the same tables for the hand-wired route; handRoot
	// builds that route's plan, recording a span per layer call.
	cat      *catalog.Catalog
	handRoot func(tl *traceLog, root int) (exec.Operator, error)
	// minDrift > 0 asserts that the optimizer misjudged some operator by
	// at least that factor (Query.DriftReport).
	minDrift float64
	// monotone asserts that reported progress never falls. It holds when
	// the optimizer's totals are right from the start (the PK-FK join);
	// under a tenfold misestimate the total is revised upwards mid-query
	// and progress steps back, which progress.regressions counts.
	monotone bool
	spillFS  *vfs.FaultFS
}

type snap struct{ progress, c float64 }

// iter is what one query execution measured.
type iter struct {
	wall     time.Duration
	rows     int64
	snaps    int
	fell     int // snapshots whose progress was below the one before
	maxErr   float64
	meanErr  float64
	exact    bool
	drift    float64
	m        qpi.Metrics
	events   int
	ests     []estimate
	problems []string
}

// estimate is one operator's final cardinality belief, in plan
// pre-order; both routes produce it so they can be compared bit for bit.
type estimate struct {
	Emitted  int64
	Estimate float64
	Source   string
}

// checkProgress scores a finished query's progress curve against the
// now-known final work, and checks that work done never fell, progress
// stayed in [0,1] (and never fell, where monotone) and ended at 1.
func (it *iter) checkProgress(snaps []snap, final qpi.Report, monotone bool) {
	it.snaps = len(snaps)
	if final.State != "done" || final.Progress != 1 {
		it.problems = append(it.problems, fmt.Sprintf("final report is %s at progress %v, want done at 1", final.State, final.Progress))
	}
	var prev snap
	sum := 0.0
	for _, s := range snaps {
		if s.c < prev.c || s.progress < 0 || s.progress > 1 {
			it.problems = append(it.problems, fmt.Sprintf("snapshot C=%v progress=%v after C=%v", s.c, s.progress, prev.c))
			break
		}
		if s.progress < prev.progress {
			it.fell++
		}
		prev = s
		e := math.Abs(s.progress - s.c/final.C)
		sum += e
		it.maxErr = math.Max(it.maxErr, e)
	}
	if monotone && it.fell > 0 {
		it.problems = append(it.problems, fmt.Sprintf("progress fell at %d of %d snapshots", it.fell, len(snaps)))
	}
	if len(snaps) > 0 {
		it.meanErr = sum / float64(len(snaps))
	}
}

// checkExact checks that every hash join ended with an exact estimate.
func (it *iter) checkExact(ests []qpi.OperatorEstimate) {
	it.exact = true
	for _, e := range ests {
		if !strings.HasPrefix(e.Operator, "HashJoin") {
			continue
		}
		if !e.Done || e.Estimate != float64(e.Emitted) || (e.Source != "once-exact" && e.Source != "exact") {
			it.exact = false
			it.problems = append(it.problems, fmt.Sprintf("%s ended at estimate %v (%s), emitted %d", e.Operator, e.Estimate, e.Source, e.Emitted))
		}
	}
}

// runPublic executes one query through the public API. With a trace log
// it records a root span with newquery and run children; with traced it
// also binds an engine tracer and folds its phase spans under run.
func (w *tupleWorkload) runPublic(on, traced bool, tl *traceLog, snapBuf *[]snap) (it iter) {
	snaps := (*snapBuf)[:0]
	opts := []qpi.RunOption{qpi.WithProgress(func(r qpi.Report) {
		snaps = append(snaps, snap{r.Progress, r.C})
	}, progressEvery)}
	copts := []qpi.CompileOption{qpi.WithSpillFS(w.spillFS)}
	if !on {
		copts = append(copts, qpi.WithoutEstimators())
	}
	var tr *qpi.Tracer
	t0 := time.Now()
	if traced {
		// Event times are relative to the tracer's creation, taken as t0.
		tr = qpi.NewTracer()
		opts = append(opts, qpi.WithTrace(tr))
	}
	q, err := w.newQuery(copts...)
	t1 := time.Now()
	if err != nil {
		it.problems = append(it.problems, err.Error())
		return it
	}
	n, err := q.Run(context.Background(), opts...)
	t2 := time.Now()
	it.wall, it.rows = t2.Sub(t0), n
	*snapBuf = snaps

	name := "public_off"
	if on {
		name = "public_on"
	}
	if traced {
		name = "public_on_traced"
	}
	root := tl.add(0, "bench", name, t0, t2)
	tl.add(root, "qpi", "newquery", t0, t1)
	run := tl.add(root, "qpi", "run", t1, t2)
	if traced {
		it.events = tr.Len()
		tl.foldEvents(run, t0, tr.Events())
	}

	if err != nil {
		it.problems = append(it.problems, err.Error())
		return it
	}
	if n != w.wantRows {
		it.problems = append(it.problems, fmt.Sprintf("%d rows, want %d", n, w.wantRows))
	}
	// The terminal snapshot is the last callback.
	final := q.Report()
	it.checkProgress(snaps, final, w.monotone)
	it.m = q.Metrics()
	if it.m.SpillFiles != 0 {
		it.problems = append(it.problems, fmt.Sprintf("%d spill files on an in-memory workload", it.m.SpillFiles))
	}
	if on {
		ests := q.Estimates()
		it.checkExact(ests)
		for _, e := range ests {
			it.ests = append(it.ests, estimate{e.Emitted, e.Estimate, e.Source})
		}
		if d := q.DriftReport(1); len(d) > 0 {
			it.drift = d[0].Factor
		}
		if w.minDrift > 0 && it.drift < w.minDrift {
			it.problems = append(it.problems, fmt.Sprintf("optimizer misestimate factor %.1f, want at least %.0f", it.drift, w.minDrift))
		}
	}
	return it
}

// runRows executes one query through Query.Rows, which materializes the
// result and publishes no progress.
func (w *tupleWorkload) runRows(tl *traceLog) iter {
	return w.runPlain(tl, "public_rows", func(q *qpi.Query) (int64, error) {
		rows, err := q.Rows()
		return int64(len(rows)), err
	})
}

// runQuiet executes one query through Query.Run with no progress
// callback: what runRows is compared with to price materialization, and
// what runPublic is compared with to price progress publication.
func (w *tupleWorkload) runQuiet(tl *traceLog) iter {
	return w.runPlain(tl, "public_quiet", func(q *qpi.Query) (int64, error) {
		return q.Run(context.Background())
	})
}

func (w *tupleWorkload) runPlain(tl *traceLog, name string, drain func(*qpi.Query) (int64, error)) (it iter) {
	t0 := time.Now()
	q, err := w.newQuery(qpi.WithSpillFS(w.spillFS))
	if err != nil {
		it.problems = append(it.problems, err.Error())
		return it
	}
	n, err := drain(q)
	t1 := time.Now()
	it.wall, it.rows = t1.Sub(t0), n
	tl.add(0, "bench", name, t0, t1)
	if err != nil {
		it.problems = append(it.problems, err.Error())
	} else if n != w.wantRows {
		it.problems = append(it.problems, fmt.Sprintf("%s returned %d rows, want %d", name, n, w.wantRows))
	}
	return it
}

// runHand executes the plan wired by hand from the internal packages,
// mirroring Engine.Compile and Query.Run step for step (estimate,
// attach, monitor, ticker, run, finish) with a span around each call.
// reportCalls, unless nil, collects each Monitor.Report call's µs.
func (w *tupleWorkload) runHand(tl *traceLog, reportCalls *samples) (it iter) {
	t0 := time.Now()
	rootSpan := tl.add(0, "bench", "hand_wired", t0, t0)
	root, err := w.handRoot(tl, rootSpan)
	if err != nil {
		it.problems = append(it.problems, err.Error())
		return it
	}
	t := time.Now()
	plan.EstimateCardinalities(root, w.cat)
	t = tl.lap(rootSpan, "plan", "estimate", t)
	att := core.Attach(root)
	t = tl.lap(rootSpan, "core", "attach", t)
	mon := progress.NewMonitorWith(root, progress.ModeOnce, att)
	t = tl.lap(rootSpan, "progress", "new_monitor", t)
	var reports []time.Time // start, end pairs
	progress.InstallTicker(root, progressEvery, func() {
		a := time.Now()
		_ = mon.Report()
		reports = append(reports, a, time.Now())
	})
	t = time.Now()
	n, err := exec.Run(root)
	mon.Finish(err)
	end := time.Now()
	run := tl.add(rootSpan, "exec", "run", t, end)
	for i := 0; i+1 < len(reports); i += 2 {
		tl.add(run, "progress", "report", reports[i], reports[i+1])
		if reportCalls != nil {
			reportCalls.add(us(reports[i+1].Sub(reports[i])))
		}
	}
	tl.end(rootSpan, end)
	it.wall, it.rows = end.Sub(t0), n
	if err != nil {
		it.problems = append(it.problems, err.Error())
		return it
	}
	if n != w.wantRows {
		it.problems = append(it.problems, fmt.Sprintf("hand-wired route returned %d rows, want %d", n, w.wantRows))
	}
	if rep := mon.Report(); rep.Progress != 1 || rep.State != progress.StateDone {
		it.problems = append(it.problems, fmt.Sprintf("hand-wired route ended %s at progress %v", rep.State, rep.Progress))
	}
	it.ests = finalEstimates(root)
	return it
}

// finalEstimates lists every operator's final estimate in pre-order,
// the order Query.Estimates uses.
func finalEstimates(root exec.Operator) []estimate {
	var out []estimate
	var rec func(op exec.Operator)
	rec = func(op exec.Operator) {
		st := op.Stats()
		out = append(out, estimate{st.Emitted.Load(), st.Total(), st.Source()})
		for _, c := range op.Children() {
			rec(c)
		}
	}
	rec(root)
	return out
}

// memDelta reads the allocator counters around one query.
type memDelta struct {
	before, after runtime.MemStats
}

func (d *memDelta) allocMB() float64 {
	return float64(d.after.TotalAlloc-d.before.TotalAlloc) / (1 << 20)
}
func (d *memDelta) mallocs() float64 { return float64(d.after.Mallocs - d.before.Mallocs) }

// engineTrace collects what the traced windows of all three engine
// workloads measure the same way, so each metric is defined once: the
// walls that are compared, the counters of an estimator-on query and the
// allocator around it.
type engineTrace struct {
	traced, on, off, events                       samples
	tuples, batches, recomputes, probes, misjudge samples
	mallocs, heap                                 samples
	md                                            memDelta
	gcBefore                                      runtime.MemStats
	queries                                       int
}

// next is called before every query of the window: the query starts
// from flushed allocator caches whichever variant it is.
func (e *engineTrace) next(rep *report) {
	if e.queries == 0 {
		runtime.ReadMemStats(&e.gcBefore)
	}
	e.queries++
	rep.yard.tick()
	runtime.ReadMemStats(&e.md.before)
}

// onDone records an untraced estimator-on query.
func (e *engineTrace) onDone(wall time.Duration, tuples, batches, recomputes, probes int64, misjudge float64) {
	runtime.ReadMemStats(&e.md.after)
	e.on.addDur(wall)
	e.mallocs.add(e.md.mallocs())
	e.heap.add(float64(e.md.after.HeapAlloc) / (1 << 20))
	e.tuples.add(float64(tuples))
	e.batches.add(float64(batches))
	e.recomputes.add(float64(recomputes))
	e.probes.add(float64(probes))
	e.misjudge.add(misjudge)
}

func (e *engineTrace) fill(rep *report) {
	var gcAfter runtime.MemStats
	runtime.ReadMemStats(&gcAfter)
	rep.set("plan.max_misestimate_factor", e.misjudge.median(), len(e.misjudge))
	rep.set("exec.tuples_moved", e.tuples.median(), len(e.tuples))
	rep.set("exec.batches", e.batches.median(), len(e.batches))
	// Any spill on an engine workload has already failed its query.
	rep.set("exec.spill_files", 0, len(e.on))
	rep.set("exec.spill_bytes", 0, len(e.on))
	rep.set("core.est_delta_ms", e.on.median()-e.off.median(), len(e.on))
	rep.set("core.est_overhead_ratio", e.on.median()/e.off.median(), len(e.on))
	rep.set("core.recomputes", e.recomputes.median(), len(e.recomputes))
	rep.set("core.histogram_probes", e.probes.median(), len(e.probes))
	rep.set("obs.trace_events", e.events.median(), len(e.events))
	rep.set("obs.trace_overhead_ratio", e.traced.median()/e.on.median(), len(e.traced))
	rep.set("runtime.allocs_per_query", e.mallocs.median(), len(e.mallocs))
	rep.set("runtime.gc_pause_ms", float64(gcAfter.PauseTotalNs-e.gcBefore.PauseTotalNs)/1e6/float64(e.queries), e.queries)
	rep.set("runtime.heap_peak_mb", e.heap.max(), len(e.heap))
}

// measure runs the workload's window and fills the report: the
// end-to-end metrics from an untraced window, or the per-layer metrics
// from a traced one.
func (w *tupleWorkload) measure(cfg config, rep *report) error {
	var snapBuf []snap
	record := func(it iter, what string) {
		rep.attempted++
		if len(it.problems) > 0 {
			rep.fail("%s %s: %s", w.name, what, strings.Join(it.problems, "; "))
		}
	}
	if !cfg.trace {
		return onOffWindow(cfg, rep, w.inputRows, func(on bool) (time.Duration, []string) {
			it := w.runPublic(on, false, nil, &snapBuf)
			return it.wall, it.problems
		})
	}

	tl := newTraceLog()
	for i := 0; i < warmupIters; i++ {
		w.runPublic(true, true, nil, &snapBuf)
		w.runPublic(false, false, nil, &snapBuf)
	}
	var (
		et                           engineTrace
		quiet, rows, reportCalls     samples
		maxErr, meanErr, snaps, fell samples
		allExact                     = true
	)
	deadline := time.Now().Add(cfg.window)
	// One cycle runs every variant once, in an order shuffled from the
	// seed: a fixed order lets the collector's period line up with one
	// variant and bias it.
	order := rand.New(rand.NewSource(cfg.seed))
	for time.Now().Before(deadline) {
		for _, v := range order.Perm(6) {
			et.next(rep)
			switch v {
			case 0:
				it := w.runPublic(true, true, tl, &snapBuf)
				record(it, "estimators on, traced")
				et.traced.addDur(it.wall)
				et.events.add(float64(it.events))
			case 1:
				it := w.runPublic(true, false, tl, &snapBuf)
				et.onDone(it.wall, it.m.Tuples, it.m.Batches, it.m.EstimatorRecomputes, it.m.HistogramProbes, it.drift)
				record(it, "estimators on")
				maxErr.add(it.maxErr)
				meanErr.add(it.meanErr)
				snaps.add(float64(it.snaps))
				fell.add(float64(it.fell))
				allExact = allExact && it.exact
			case 2:
				it := w.runPublic(false, false, tl, &snapBuf)
				record(it, "estimators off")
				et.off.addDur(it.wall)
			case 3:
				record(w.runHand(tl, &reportCalls), "hand-wired")
			case 4:
				it := w.runRows(tl)
				record(it, "rows")
				rows.addDur(it.wall)
			case 5:
				it := w.runQuiet(tl)
				record(it, "no progress callback")
				quiet.addDur(it.wall)
			}
		}
	}
	if len(et.on) == 0 {
		return fmt.Errorf("window %s too short for one traced cycle", cfg.window)
	}
	et.fill(rep)
	tl.finish()

	// Layer times come from the two routes that record child spans.
	spanMetric := func(metric, root, layer, name string, scale float64) {
		if s := tl.selfByRoot(root, layer, name); len(s) > 0 {
			rep.set(metric, s.median()/scale, len(s))
		}
	}
	spanMetric("sql.parse_us", "hand_wired", "sql", "parse", 1)
	spanMetric("sql.plan_us", "hand_wired", "sql", "plan", 1)
	spanMetric("plan.estimate_us", "hand_wired", "plan", "estimate", 1)
	spanMetric("core.attach_us", "hand_wired", "core", "attach", 1)
	spanMetric("qpi.newquery_us", "public_on_traced", "qpi", "newquery", 1)
	spanMetric("qpi.run_ms", "public_on_traced", "qpi", "run", 1e3)
	spanMetric("exec.partition_build_ms", "public_on_traced", "exec", "partition_build", 1e3)
	spanMetric("exec.partition_probe_ms", "public_on_traced", "exec", "partition_probe", 1e3)
	spanMetric("exec.join_ms", "public_on_traced", "exec", "join", 1e3)
	spanMetric("exec.aggregate_ms", "public_on_traced", "exec", "aggregate", 1e3)

	if lineitem, err := w.cat.Lookup("lineitem"); err == nil {
		scan := scanRate(lineitem.Table, false, 20)
		rep.set("storage.scan_rows_per_s", scan.median(), len(scan))
	}
	rep.set("qpi.rows_materialize_ms", rows.median()-quiet.median(), len(rows))
	rep.set("progress.publish_ms", et.on.median()-quiet.median(), len(quiet))
	rep.set("progress.report_us", reportCalls.median(), len(reportCalls))
	rep.set("progress.snapshots", snaps.median(), len(snaps))
	rep.set("progress.regressions", fell.median(), len(fell))
	rep.set("progress.max_abs_err", maxErr.max(), len(maxErr))
	rep.set("progress.mean_abs_err", meanErr.median(), len(meanErr))
	exact := 0.0
	if allExact {
		exact = 1
	}
	rep.set("progress.final_exact", exact, len(snaps))
	return tl.write(cfg.outDir, w.name)
}

// onOffWindow is the untraced window of the three engine workloads: one
// sequential caller alternating estimators on and off, filling the
// end-to-end metrics. run executes one query and returns its wall time
// and what was wrong with it, if anything.
func onOffWindow(cfg config, rep *report, inputRows int64, run func(on bool) (time.Duration, []string)) error {
	for i := 0; i < warmupIters; i++ {
		run(true)
		run(false)
	}
	var on, off, alloc samples
	var md memDelta
	deadline := time.Now().Add(cfg.window)
	// Queries run in on/off pairs; which side goes first is drawn from
	// the seed, so neither always runs on the heap the other left behind
	// and the collector's period cannot line up with one side.
	order := rand.New(rand.NewSource(cfg.seed))
	first := false
	for i := 0; time.Now().Before(deadline); i++ {
		if i%2 == 0 {
			first = order.Intn(2) == 0
		}
		isOn := first == (i%2 == 0)
		rep.yard.tick()
		// ReadMemStats flushes the allocator's per-P caches, so both
		// sides get it, not only the side whose allocation is reported.
		runtime.ReadMemStats(&md.before)
		wall, problems := run(isOn)
		runtime.ReadMemStats(&md.after)
		rep.attempted++
		if len(problems) > 0 {
			rep.fail("%s estimators on=%v: %s", cfg.workload, isOn, strings.Join(problems, "; "))
		}
		if isOn {
			on.addDur(wall)
			alloc.add(md.allocMB())
		} else {
			off.addDur(wall)
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return fmt.Errorf("window %s too short for one on/off pair", cfg.window)
	}
	rep.set("query_p50_ms", on.median(), len(on))
	rep.set("query_p90_ms", on.p90(), len(on))
	if !on.supportsP90() {
		rep.notes = append(rep.notes, fmt.Sprintf("query_p90_ms unsupported: %d samples", len(on)))
	}
	rep.set("baseline_p50_ms", off.median(), len(off))
	rep.set("input_rows_per_s", float64(inputRows)/(on.median()/1e3), len(on))
	rep.set("alloc_mb_per_query", alloc.median(), len(alloc))
	return nil
}

// timedSetup runs setup setupReps times, records the median set-up time
// as setup_s and returns the last result. Each earlier result is handed to
// discard (outside the timed part) and dropped before the next one is
// built, so only one copy of the data is live.
func timedSetup[T any](rep *report, setup func() (T, error), discard func(T)) (T, error) {
	var times samples
	var last T
	for i := 0; i < setupReps; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		var zero T
		last = zero
		runtime.GC()
		rep.yard.tick()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, err
		}
		times.add(time.Since(t0).Seconds())
		last = v
	}
	rep.set("setup_s", times.median(), setupReps)
	return last, nil
}

// leakCheck fills the two leak invariants and fails the run when either
// is violated: goroutines must be back to where they were before the
// workload started, and no spill file may be open.
func leakCheck(rep *report, goroutinesBefore int, fs *vfs.FaultFS) {
	after := runtime.NumGoroutine()
	for settle := time.Now().Add(5 * time.Second); after > goroutinesBefore && time.Now().Before(settle); {
		time.Sleep(20 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	rep.set("runtime.goroutines_after", float64(after), 1)
	rep.set("vfs.open_files_after", float64(fs.OpenFiles()), 1)
	if after > goroutinesBefore {
		rep.invariant("goroutine leak: %d before, %d after", goroutinesBefore, after)
	}
	if fs.OpenFiles() != 0 {
		rep.invariant("descriptor leak: %d spill files still open", fs.OpenFiles())
	}
}

// runTuple is the shared body of the two public-API engine workloads.
func runTuple(cfg config, setup func() (*tupleWorkload, error)) (*report, error) {
	goroutines := runtime.NumGoroutine()
	rep, err := newReport()
	if err != nil {
		return nil, err
	}
	w, err := timedSetup(rep, setup, nil)
	if err != nil {
		return nil, err
	}
	if err := w.measure(cfg, rep); err != nil {
		return nil, err
	}
	leakCheck(rep, goroutines, w.spillFS)
	return rep, nil
}

package qpi

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"qpi/internal/exec"
)

// obsEngine builds two skewed tables with a join column k and a grouping
// column g, so a join + group-by exercises chain, push-down and chooser
// estimators.
func obsEngine(t testing.TB, rows int) *Engine {
	t.Helper()
	e := New()
	e.MustCreateSkewedTable("r", rows, 1,
		SkewedColumn{Name: "k", Domain: 200, Zipf: 1, PermSeed: 11},
		SkewedColumn{Name: "g", Domain: 40, Zipf: 1.2, PermSeed: 7})
	e.MustCreateSkewedTable("s", rows+rows/3, 2,
		SkewedColumn{Name: "k", Domain: 200, Zipf: 1, PermSeed: 22})
	return e
}

// TestTraceCoversJoinGroupBy is the acceptance scenario: a TPC-H-style
// join + group-by under WithTrace must produce a replayable event stream
// covering every operator phase and the estimator source transitions.
func TestTraceCoversJoinGroupBy(t *testing.T) {
	e := obsEngine(t, 12000)
	q := e.MustQuery("SELECT r.g, COUNT(*) c FROM r JOIN s ON r.k = s.k GROUP BY r.g")
	tr := NewTracer()
	if _, err := q.Run(nil, WithTrace(tr), WithInterval(2000)); err != nil {
		t.Fatal(err)
	}
	evs := tr.Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}

	// Span balance: every begin has a matching end, never nested per
	// (op, phase).
	open := map[string]int{}
	for _, ev := range evs {
		key := ev.Op + "/" + ev.Phase
		switch ev.Kind {
		case TraceSpanBegin:
			if open[key]++; open[key] > 1 {
				t.Errorf("span %q begun twice without end", key)
			}
		case TraceSpanEnd:
			if open[key]--; open[key] < 0 {
				t.Errorf("span %q ended without begin", key)
			}
		}
	}
	for key, n := range open {
		if n != 0 {
			t.Errorf("span %q left open", key)
		}
	}

	// Phase coverage across the plan's operator kinds.
	phases := map[string]bool{}
	refines, transitions := 0, 0
	sawOnceExact, sawPipeline := false, false
	for _, ev := range evs {
		switch ev.Kind {
		case TraceSpanBegin:
			phases[ev.Phase] = true
		case TraceEstimateRefined:
			refines++
		case TraceSourceTransition:
			transitions++
			if ev.To == "once-exact" {
				sawOnceExact = true
			}
		case TraceMark:
			if strings.HasPrefix(ev.Op, "pipeline[") {
				sawPipeline = true
			}
		}
	}
	for _, want := range []string{"scan", "build", "probe", "input", "emit", "join[0]"} {
		if !phases[want] {
			t.Errorf("no span for phase %q\n%s", want, tr.Dump())
		}
	}
	if refines == 0 {
		t.Error("no EstimateRefined events")
	}
	if transitions == 0 {
		t.Error("no SourceTransition events")
	}
	if !sawOnceExact {
		t.Error("no transition to once-exact (chain convergence)")
	}
	if !sawPipeline {
		t.Error("no pipeline lifecycle marks")
	}
}

// TestTraceSpillCounters: under a memory budget the grace join and
// external sort must emit spill marks with byte counts, and Metrics must
// aggregate them.
func TestTraceSpillCounters(t *testing.T) {
	e := obsEngine(t, 12000)
	q := e.MustQuery("SELECT r.k FROM r JOIN s ON r.k = s.k ORDER BY r.k",
		WithMemoryBudget(32*1024))
	tr := NewTracer()
	var m Metrics
	if _, err := q.Run(nil, WithTrace(tr), WithMetrics(&m)); err != nil {
		t.Fatal(err)
	}
	spillMarks := 0
	for _, ev := range tr.Events() {
		if ev.Kind == TraceMark && strings.HasPrefix(ev.Phase, "spill") {
			spillMarks++
			if ev.Bytes <= 0 {
				t.Errorf("spill mark without bytes: %+v", ev)
			}
		}
	}
	if spillMarks == 0 {
		t.Fatal("no spill marks under 32KiB budget")
	}
	if m.SpillFiles <= 0 || m.SpillBytes <= 0 {
		t.Errorf("metrics spill counters: files=%d bytes=%d", m.SpillFiles, m.SpillBytes)
	}
}

// TestTraceKeyDirectory follows pkfk_join's SQL through Engine.Compile:
// orders is a dense primary key, so the join indexes it with the row
// directory and marks it once, with the build rows and the key span.
// A Zipf build repeats its keys and a join under a memory budget never
// takes the directory, so neither marks one; the rows agree throughout.
func TestTraceKeyDirectory(t *testing.T) {
	const pkfk = "SELECT o.orderkey FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey"
	tpch := New()
	tpch.MustLoadTPCH(TPCHConfig{SF: 0.002, Seed: 1, Tables: []string{"orders", "lineitem"}})
	orders, _ := tpch.TableRows("orders")
	lineitem, _ := tpch.TableRows("lineitem")
	for _, c := range []struct {
		name  string
		e     *Engine
		sql   string
		opts  []CompileOption
		marks int
	}{
		{"pkfk", tpch, pkfk, nil, 1},
		{"pkfk/budget", tpch, pkfk, []CompileOption{WithMemoryBudget(1 << 30)}, 0},
		{"zipf", obsEngine(t, 3000), "SELECT r.k FROM r JOIN s ON r.k = s.k", nil, 0},
	} {
		q := c.e.MustQuery(c.sql, c.opts...)
		tr := NewTracer()
		n, err := q.Run(nil, WithTrace(tr))
		if err != nil {
			t.Fatal(err)
		}
		if c.e == tpch && n != int64(lineitem) {
			t.Errorf("%s: %d rows, want %d", c.name, n, lineitem)
		}
		marks := 0
		for _, ev := range tr.Events() {
			if ev.Kind != TraceMark || ev.Phase != "directory" {
				continue
			}
			marks++
			if span := ev.Bytes; ev.Tuples != int64(orders) || span < ev.Tuples || 4*span > 5*ev.Tuples {
				t.Errorf("%s: directory mark over %d rows, span %d; want %d rows, span within 5/4 of them",
					c.name, ev.Tuples, span, orders)
			}
		}
		if marks != c.marks {
			t.Errorf("%s: %d directory marks, want %d", c.name, marks, c.marks)
		}
	}
}

func TestMetricsSnapshot(t *testing.T) {
	e := obsEngine(t, 6000)
	q := e.MustQuery("SELECT r.g, COUNT(*) c FROM r JOIN s ON r.k = s.k GROUP BY r.g")
	var m Metrics
	n, err := q.Run(nil, WithMetrics(&m))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("query produced nothing")
	}
	if m.State != "done" || m.Progress < 0.999 {
		t.Errorf("terminal metrics status = %+v", m.Status)
	}
	if m.Tuples <= n {
		t.Errorf("Tuples = %d, want > output rows %d", m.Tuples, n)
	}
	if m.Batches == 0 {
		t.Error("Batches = 0")
	}
	if m.EstimatorRecomputes == 0 {
		t.Error("EstimatorRecomputes = 0 with estimators attached")
	}
	if m.HistogramProbes == 0 {
		t.Error("HistogramProbes = 0 with a chain estimator attached")
	}
	if len(m.Pipelines) == 0 {
		t.Error("no per-pipeline gauges")
	}
}

// TestMLERecomputesSplit: Metrics.MLERecomputes counts the GROUP BY
// estimator's MLE recomputations — exactly its chooser's or tracker's
// own count, inside EstimatorRecomputes — and reads 0 on a join with no
// GROUP BY, whose recomputes are all the chain's.
func TestMLERecomputesSplit(t *testing.T) {
	e := obsEngine(t, 6000)
	q := e.MustQuery("SELECT r.g, COUNT(*) c FROM r JOIN s ON r.k = s.k GROUP BY r.g")
	var m Metrics
	if _, err := q.Run(nil, WithMetrics(&m)); err != nil {
		t.Fatal(err)
	}
	if len(q.att.Aggs) != 1 {
		t.Fatalf("%d aggregation estimators attached, want 1", len(q.att.Aggs))
	}
	var own int64
	for _, ae := range q.att.Aggs {
		if c := ae.Chooser(); c != nil {
			own += c.Recomputes()
		}
		if tr := ae.Tracker(); tr != nil {
			own += tr.Recomputes()
		}
	}
	if m.MLERecomputes == 0 || m.MLERecomputes != own {
		t.Errorf("MLERecomputes = %d, want the estimator's own %d (> 0)", m.MLERecomputes, own)
	}
	if m.EstimatorRecomputes <= m.MLERecomputes {
		t.Errorf("EstimatorRecomputes = %d, want more than its MLE share %d", m.EstimatorRecomputes, m.MLERecomputes)
	}

	j := e.MustQuery("SELECT r.k FROM r JOIN s ON r.k = s.k")
	if _, err := j.Run(nil, WithMetrics(&m)); err != nil {
		t.Fatal(err)
	}
	if m.MLERecomputes != 0 || m.EstimatorRecomputes == 0 {
		t.Errorf("join only: MLERecomputes = %d, EstimatorRecomputes = %d; want 0 and > 0",
			m.MLERecomputes, m.EstimatorRecomputes)
	}
}

func TestEstimateOfLabels(t *testing.T) {
	e := obsEngine(t, 3000)
	q := e.MustQuery("SELECT r.g, COUNT(*) c FROM r JOIN s ON r.k = s.k GROUP BY r.g")
	if _, err := q.Run(nil); err != nil {
		t.Fatal(err)
	}
	ests := q.Estimates()
	// Exact label resolution for every operator in the plan.
	for _, want := range ests {
		got, ok := q.EstimateOf(want.Operator)
		if !ok || got.Operator != want.Operator {
			t.Errorf("EstimateOf(%q) = %+v, %v", want.Operator, got, ok)
		}
	}
	// Unique substring.
	if got, ok := q.EstimateOf("HashJoin"); !ok || !strings.Contains(got.Operator, "HashJoin") {
		t.Errorf("substring resolution failed: %+v, %v", got, ok)
	}
	// Ambiguous substring (two scans).
	if _, ok := q.EstimateOf("Scan"); ok {
		t.Error("ambiguous label resolved")
	}
	// Unknown.
	if _, ok := q.EstimateOf("NoSuchOperator"); ok {
		t.Error("unknown label resolved")
	}
	// Empty string addresses the root.
	root, ok := q.EstimateOf("")
	if !ok || root.Operator != ests[0].Operator {
		t.Errorf(`EstimateOf("") = %+v, %v`, root, ok)
	}
}

// TestSubscribeStream: a drained subscription sees progress advance and
// ends with the terminal snapshot; the channel closes.
func TestSubscribeStream(t *testing.T) {
	e := obsEngine(t, 12000)
	q := e.MustQuery("SELECT r.k FROM r JOIN s ON r.k = s.k")
	sub := q.Subscribe()
	var reports []Report
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for rep := range sub {
			reports = append(reports, rep)
		}
	}()
	if _, err := q.Run(nil, WithInterval(1000)); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if len(reports) < 2 {
		t.Fatalf("only %d snapshots", len(reports))
	}
	last := reports[len(reports)-1]
	if last.State != "done" || last.Progress < 0.999 {
		t.Errorf("terminal snapshot = %+v", last.Status)
	}
}

// TestSubscribeDropOldest: an undrained subscription must not block the
// executor; its buffer keeps the freshest snapshots and always ends with
// the terminal one.
func TestSubscribeDropOldest(t *testing.T) {
	e := obsEngine(t, 12000)
	q := e.MustQuery("SELECT r.k FROM r JOIN s ON r.k = s.k")
	sub := q.Subscribe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := q.Run(nil, WithInterval(200)); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("executor blocked on a full subscription")
	}
	var last Report
	n := 0
	for rep := range sub {
		last = rep
		n++
	}
	if n > subscribeBuffer {
		t.Errorf("drained %d > buffer %d", n, subscribeBuffer)
	}
	if last.State != "done" {
		t.Errorf("terminal snapshot dropped; last = %+v", last.Status)
	}
}

// TestSubscribeAfterFinish: a late subscription receives exactly the
// terminal snapshot, already closed.
func TestSubscribeAfterFinish(t *testing.T) {
	e := obsEngine(t, 3000)
	q := e.MustQuery("SELECT r.k FROM r JOIN s ON r.k = s.k")
	if _, err := q.Run(nil); err != nil {
		t.Fatal(err)
	}
	sub := q.Subscribe()
	rep, ok := <-sub
	if !ok || rep.State != "done" {
		t.Fatalf("late subscription: %+v, %v", rep.Status, ok)
	}
	if _, ok := <-sub; ok {
		t.Error("late subscription not closed after terminal snapshot")
	}
}

// TestServeEndpoints scrapes a served dashboard while a query is
// registered.
func TestServeEndpoints(t *testing.T) {
	e := obsEngine(t, 3000)
	q := e.MustQuery("SELECT r.k FROM r JOIN s ON r.k = s.k")
	d := NewDashboard()
	if err := d.Register("join-query", q); err != nil {
		t.Fatal(err)
	}
	srv, err := d.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := q.Run(nil); err != nil {
		t.Fatal(err)
	}

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		`qpi_query_progress{query="join-query"} 1`,
		`qpi_query_tuples_total{query="join-query"}`,
		`qpi_query_estimator_recomputes_total{query="join-query"}`,
		`qpi_query_mle_recomputes_total{query="join-query"}`,
		`qpi_pipeline_work_done{query="join-query",pipeline="0"}`,
		"qpi_overall_progress 1",
		"# TYPE qpi_query_spill_bytes_total counter",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	dash := get("/dashboard")
	for _, want := range []string{`"join-query"`, `"overall":1`, `"State":"done"`} {
		if !strings.Contains(dash, want) {
			t.Errorf("/dashboard missing %q:\n%s", want, dash)
		}
	}

	if vars := get("/debug/vars"); !strings.Contains(vars, `"qpi"`) {
		t.Error("/debug/vars missing qpi var")
	}
}

// TestConcurrentSubscribeAndScrape is the -race scenario: a running
// query with a live Subscribe consumer, HTTP scrapes, and programmatic
// Metrics/Estimates readers all at once.
func TestConcurrentSubscribeAndScrape(t *testing.T) {
	e := obsEngine(t, 20000)
	q := e.MustQuery("SELECT r.g, COUNT(*) c FROM r JOIN s ON r.k = s.k GROUP BY r.g")
	d := NewDashboard()
	if err := d.Register("race-query", q); err != nil {
		t.Fatal(err)
	}
	srv, err := d.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sub := q.Subscribe()
	tr := NewTracer()
	r, err := q.Start(nil, WithTrace(tr), WithInterval(500))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // subscription consumer
		defer wg.Done()
		for range sub {
		}
	}()
	stop := make(chan struct{})
	for i := 0; i < 3; i++ { // concurrent scrapers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get("http://" + srv.Addr() + "/metrics")
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				_ = q.Metrics()
				_ = q.Estimates()
				_ = tr.Len()
				_, _ = r.ETA()
			}
		}()
	}
	n, err := r.Wait()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("query produced nothing")
	}
	if rep := r.Report(); rep.State != "done" {
		t.Errorf("terminal state = %q", rep.State)
	}
}

// TestNoopTracerOverheadGuard: with no tracer bound, the observability
// plumbing must cost <2% versus driving the same WithoutEstimators plan
// through the bare executor. Interleaved min-of-N timings with retries
// keep the guard stable on noisy machines.
func TestNoopTracerOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	e := New()
	e.MustCreateSkewedTable("r", 60000, 1,
		SkewedColumn{Name: "k", Domain: 4000, Zipf: 1, PermSeed: 11})
	e.MustCreateSkewedTable("s", 80000, 2,
		SkewedColumn{Name: "k", Domain: 4000, Zipf: 1, PermSeed: 22})
	build := func() *Query {
		return e.MustQuery("SELECT r.k FROM r JOIN s ON r.k = s.k", WithoutEstimators())
	}
	const rounds = 5
	for attempt := 1; ; attempt++ {
		var base, noop time.Duration
		base, noop = 1<<62, 1<<62
		for i := 0; i < rounds; i++ {
			qb := build()
			t0 := time.Now()
			if _, err := exec.Run(qb.root); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(t0); d < base {
				base = d
			}
			qn := build()
			t0 = time.Now()
			if _, err := qn.Run(nil); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(t0); d < noop {
				noop = d
			}
		}
		ratio := float64(noop) / float64(base)
		t.Logf("attempt %d: base=%v noop=%v ratio=%.4f", attempt, base, noop, ratio)
		if ratio < 1.02 {
			return
		}
		if attempt >= 4 {
			t.Fatalf("no-op observability overhead %.2f%% exceeds 2%%", 100*(ratio-1))
		}
	}
}

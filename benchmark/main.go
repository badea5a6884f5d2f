// Command benchmark is the repository's benchmark: four workloads, each
// measured end to end with tracing off and layer by layer in a separate
// traced run, with every output checked. See README.md beside this file
// and BENCHMARK.json at the repository root.
//
//	go run . -workload pkfk_join -seed 1 -seconds 20 -trace 0
//	go run . -seed 1            # every workload, untraced then traced
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// decl names one metric and its unit. The two lists below are the
// benchmark's metric set; BENCHMARK.json repeats them (the smoke test
// holds the two equal).
type decl struct{ name, unit string }

var endToEnd = []decl{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"baseline_p50_ms", "ms"},
	{"input_rows_per_s", "1/s"},
	{"alloc_mb_per_query", "MB"},
}

var perLayer = []decl{
	{"sql.parse_us", "us"},
	{"sql.plan_us", "us"},
	{"plan.estimate_us", "us"},
	{"plan.max_misestimate_factor", "ratio"},
	{"qpi.newquery_us", "us"},
	{"qpi.run_ms", "ms"},
	{"qpi.rows_materialize_ms", "ms"},
	{"storage.scan_rows_per_s", "1/s"},
	{"exec.partition_build_ms", "ms"},
	{"exec.partition_probe_ms", "ms"},
	{"exec.join_ms", "ms"},
	{"exec.aggregate_ms", "ms"},
	{"exec.tuples_moved", "count"},
	{"exec.batches", "count"},
	{"exec.spill_files", "count"},
	{"exec.spill_bytes", "bytes"},
	{"core.attach_us", "us"},
	{"core.hook_ms", "ms"},
	{"core.hook_calls", "count"},
	{"core.hook_share", "ratio"},
	{"core.est_delta_ms", "ms"},
	{"core.est_overhead_ratio", "ratio"},
	{"core.recomputes", "count"},
	{"core.histogram_probes", "count"},
	{"progress.publish_ms", "ms"},
	{"progress.report_us", "us"},
	{"progress.snapshots", "count"},
	{"progress.regressions", "count"},
	{"progress.max_abs_err", "ratio"},
	{"progress.mean_abs_err", "ratio"},
	{"progress.final_exact", "count"},
	{"obs.trace_events", "count"},
	{"obs.trace_overhead_ratio", "ratio"},
	{"service.queued_ms_p50", "ms"},
	{"service.queued_ms_p90", "ms"},
	{"service.elapsed_ms_p50.cheap", "ms"},
	{"service.elapsed_ms_p50.rows", "ms"},
	{"service.elapsed_ms_p50.join", "ms"},
	{"service.http_overhead_ms_p50", "ms"},
	{"service.plancache_hit_us", "us"},
	{"service.plancache_miss_us", "us"},
	{"service.plancache_hit_rate", "ratio"},
	{"service.peak_queue_depth", "count"},
	{"service.peak_granted_bytes", "bytes"},
	{"service.rejected_429", "count"},
	{"client.req_per_s", "1/s"},
	{"client.cheap_req_p50_ms", "ms"},
	{"client.miss_req_p50_ms", "ms"},
	{"client.rows_req_p50_ms", "ms"},
	{"client.join_req_p50_ms", "ms"},
	{"client.join_req_p90_ms", "ms"},
	{"runtime.allocs_per_query", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.heap_peak_mb", "MB"},
	{"runtime.yardstick_ms", "ms"},
	{"runtime.goroutines_after", "count"},
	{"vfs.open_files_after", "count"},
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	// scale multiplies every workload's data size: 1, except in the
	// smoke test, which runs at half scale.
	scale float64
	// outDir receives trace files and spill files: benchmark/out under
	// the working directory, except in tests.
	outDir string
}

// report is what one workload run measured. A metric absent from values
// does not apply to the workload and prints as 0 in the traced run.
type report struct {
	yard      *yardstick
	values    map[string]float64
	counts    map[string]int // samples behind a value, where it is a statistic
	notes     []string       // unsupported percentiles and the like
	failures  []string       // correctness failures (first few, for the log)
	attempted int64
	failed    int64
}

func newReport() (*report, error) {
	yard, err := newYardstick()
	if err != nil {
		return nil, err
	}
	return &report{yard: yard, values: map[string]float64{}, counts: map[string]int{}}, nil
}

// finish releases the yardstick and records it; in an untraced run it
// restates the end-to-end times at reference memory speed (see
// yardstick.go) and notes what they were as measured.
func (r *report) finish(traced bool) error {
	f := r.yard.factor()
	r.set("runtime.yardstick_ms", r.yard.times.median(), len(r.yard.times))
	if !traced {
		r.notes = append(r.notes, fmt.Sprintf("times x%.4f: yardstick median %.3f ms over %d runs, reference %.1f ms; as measured query_p50_ms=%.4g baseline_p50_ms=%.4g setup_s=%.4g",
			f, r.yard.times.median(), len(r.yard.times), yardstickRefMs, r.values["query_p50_ms"], r.values["baseline_p50_ms"], r.values["setup_s"]))
		for _, d := range endToEnd {
			switch d.unit {
			case "s", "ms":
				r.values[d.name] *= f
			case "1/s":
				r.values[d.name] /= f
			}
		}
	}
	return r.yard.close()
}

func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.counts[name] = n
}

// fail counts one failed operation and keeps the first few reasons.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.invariant(format, args...)
}

// invariant records a failure that is not one operation's (a leak, a
// counter that must stay zero).
func (r *report) invariant(format string, args ...any) {
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

var workloads = []struct {
	name string
	run  func(cfg config) (*report, error)
}{
	{"pkfk_join", runPKFKJoin},
	{"pkfk_join_col", runPKFKJoinCol},
	{"skew_pipeline", runSkewPipeline},
	{"serve_mix", runServeMix},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOne runs one workload in one mode, prints its metrics by name and
// returns the result object.
func runOne(cfg config, out io.Writer) (*result, error) {
	var run func(config) (*report, error)
	for _, w := range workloads {
		if w.name == cfg.workload {
			run = w.run
		}
	}
	if run == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	rep, err := run(cfg)
	if err == nil {
		err = rep.finish(cfg.trace)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	decls := endToEnd
	if cfg.trace {
		decls = perLayer
	}
	res := &result{
		Correct:   rep.failed == 0 && len(rep.failures) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	fmt.Fprintf(out, "workload %s trace=%v seed=%d window=%s scale=%g\n",
		cfg.workload, cfg.trace, cfg.seed, cfg.window, cfg.scale)
	for _, d := range decls {
		v, ok := rep.values[d.name]
		if !ok && !cfg.trace {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", cfg.workload, d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		switch n, counted := rep.counts[d.name]; {
		case !ok:
			fmt.Fprintf(out, "  %-32s %14s %-6s (does not apply)\n", d.name, "0", d.unit)
		case counted:
			fmt.Fprintf(out, "  %-32s %14.6g %-6s n=%d\n", d.name, v, d.unit, n)
		default:
			fmt.Fprintf(out, "  %-32s %14.6g %-6s\n", d.name, v, d.unit)
		}
	}
	for _, n := range rep.notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
	fmt.Fprintf(out, "  operations attempted=%d failed=%d\n", rep.attempted, rep.failed)
	for _, f := range rep.failures {
		fmt.Fprintf(out, "  FAIL: %s\n", f)
	}
	return res, nil
}

func main() {
	var cfg config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: all, untraced then traced)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for generated tables and the request order")
	flag.Float64Var(&seconds, "seconds", 20, "measurement window per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	cfg.scale, cfg.outDir = 1, "benchmark/out"
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace != 0

	fmt.Printf("env seed=%d %s %s/%s nproc=%d GOMAXPROCS=%d\n", cfg.seed,
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0))

	runs := []config{cfg}
	if cfg.workload == "" {
		runs = runs[:0]
		for _, traced := range []bool{false, true} {
			for _, w := range workloads {
				c := cfg
				c.workload, c.trace = w.name, traced
				runs = append(runs, c)
			}
		}
	}
	ok := true
	var last *result
	for _, c := range runs {
		res, err := runOne(c, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(2)
		}
		ok = ok && res.Correct
		last = res
	}
	if cfg.workload != "" {
		line, err := json.Marshal(last)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(2)
		}
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}

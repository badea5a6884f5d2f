package qpi

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"qpi/internal/core"
	"qpi/internal/data"
	"qpi/internal/exec"
	"qpi/internal/plan"
	"qpi/internal/progress"
	"qpi/internal/sql"
	"qpi/internal/vfs"
)

// Query parses a SQL SELECT statement, plans it against the engine's
// catalog and compiles it with the online estimation framework attached.
//
// The supported SQL subset: SELECT with column/arithmetic projections and
// aggregates (COUNT/SUM/MIN/MAX/AVG), FROM with comma lists and
// INNER/LEFT/SEMI/ANTI/CROSS JOIN ... ON (including conjunctive
// multi-column conditions), WHERE with comparisons, AND/OR/NOT, BETWEEN,
// IN, IS [NOT] NULL, GROUP BY, HAVING, ORDER BY [ASC|DESC] and LIMIT.
// The planner builds left-deep hash join chains probing the largest
// input — the pipeline shape the paper's push-down estimation is
// designed for.
func (e *Engine) Query(query string, opts ...CompileOption) (*Query, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	root, err := sql.Plan(stmt, e.cat)
	if err != nil {
		return nil, err
	}
	return e.Compile(&Node{op: root, eng: e}, opts...)
}

// MustQuery is Query, panicking on error.
func (e *Engine) MustQuery(query string, opts ...CompileOption) *Query {
	q, err := e.Query(query, opts...)
	if err != nil {
		panic(err)
	}
	return q
}

// EstimatorMode selects how the progress monitor refines cardinalities of
// running operators.
type EstimatorMode int

// Estimator modes.
const (
	// Once is the paper's online framework (default).
	Once EstimatorMode = iota
	// DNE is the driver-node estimator baseline.
	DNE
	// Byte is the Luo et al. byte-count baseline.
	Byte
	// Robust blends the online framework with the dne and byte
	// refinements per operator, bounding the damage when any single
	// estimator is briefly wrong.
	Robust
)

// CompileOption customizes Compile.
type CompileOption func(*compileCfg)

type compileCfg struct {
	mode           EstimatorMode
	sampleFraction float64
	sampleSeed     int64
	noEstimators   bool
	memBudget      int64
	spillFS        vfs.FS
}

// WithMode selects the estimator mode (default Once).
func WithMode(m EstimatorMode) CompileOption {
	return func(c *compileCfg) { c.mode = m }
}

// WithSampling makes every table scan deliver a block-level random sample
// of the given fraction first (the paper's modified scans; §3, §5). The
// online estimators freeze their estimates at the sample punctuation.
func WithSampling(fraction float64, seed int64) CompileOption {
	return func(c *compileCfg) {
		c.sampleFraction = fraction
		c.sampleSeed = seed
	}
}

// WithoutEstimators compiles the plan without attaching any online
// estimators — the no-overhead baseline the paper's Tables 3 and 4
// compare against.
func WithoutEstimators() CompileOption {
	return func(c *compileCfg) { c.noEstimators = true }
}

// WithMemoryBudget caps the bytes each blocking operator (hash join
// partition buffers, sorts) may hold in memory; overflow spills to
// temporary files, like the engine the paper instrumented. 0 (the
// default) keeps everything in memory.
func WithMemoryBudget(bytes int64) CompileOption {
	return func(c *compileCfg) { c.memBudget = bytes }
}

// SpillFS is the filesystem surface spilling operators (grace hash-join
// partitions, external-sort runs) create their temporary files on. The
// zero value of the seam is the real filesystem; tests and servers
// inject instrumented implementations (fault injection, open-descriptor
// accounting) through WithSpillFS. A file it creates needs ReadAt,
// WriteAt, Close and Name only: spill I/O is positional, so an *os.File
// serves as is.
type SpillFS = vfs.FS

// WithSpillFS routes every spilling operator's temporary-file I/O
// through fs — the internal/vfs seam, exposed so service layers can
// account for (and tests can fault-inject) spill descriptors across a
// whole workload. nil keeps the real filesystem.
func WithSpillFS(fs SpillFS) CompileOption {
	return func(c *compileCfg) { c.spillFS = fs }
}

// Query is an executable plan with progress monitoring. Plans are
// single-use: execute with Run, Rows, or Start exactly once.
type Query struct {
	root    exec.Operator
	monitor *progress.Monitor
	att     *core.Attachment
	cfg     compileCfg
	started atomic.Bool

	// ticker publishes progress at work-based intervals; installed per run
	// when a callback, metrics destination or subscriber wants snapshots
	// (nil otherwise). The drain loop reports the root's output to it.
	ticker *progress.Ticker

	// Subscriber channels (Subscribe) receive progress snapshots from the
	// execution goroutine; final holds the terminal report once subsDone.
	subMu    sync.Mutex
	subs     []chan Report
	subsDone bool
	final    Report
}

// claim marks the single-use query as started; exactly one of the
// possibly concurrent Run/Rows/Start calls wins.
func (q *Query) claim() error {
	if !q.started.CompareAndSwap(false, true) {
		return fmt.Errorf("qpi: query already started")
	}
	return nil
}

// execRun drives a query's plan to completion (shared by Run and Start),
// column-at-a-time. The context is bound to every operator before Open, so
// cancellation or deadline expiry unwinds the plan within one batch of
// work; the monitor is left in the matching terminal state.
func execRun(ctx context.Context, q *Query) (int64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	exec.Bind(q.root, ctx)
	var n int64
	err := ctx.Err()
	if err == nil {
		n, err = q.drain(nil)
	}
	q.monitor.Finish(err)
	return n, err
}

// drain opens the plan, pulls it to exhaustion batch by batch and
// closes it, returning the live row count. Each batch is handed to sink
// (nil discards it) and then reported to the ticker: the end of a root
// batch is a span boundary like any other.
func (q *Query) drain(sink func(*data.ColBatch)) (int64, error) {
	if err := q.root.Open(); err != nil {
		return 0, err
	}
	var n int64
	for {
		cb, err := q.root.NextColBatch()
		if err != nil {
			q.root.Close()
			return n, err
		}
		if cb == nil {
			return n, q.root.Close()
		}
		live := int64(cb.Live())
		n += live
		if sink != nil {
			sink(cb)
		}
		if q.ticker != nil {
			q.ticker.Add(live)
		}
	}
}

// Compile narrows the plan's scans to the columns it reads (exec.Prune),
// seeds optimizer estimates, attaches the online estimation framework
// (unless disabled) and builds a progress monitor for the plan.
func (e *Engine) Compile(n *Node, opts ...CompileOption) (*Query, error) {
	if n == nil {
		return nil, fmt.Errorf("qpi: nil plan")
	}
	cfg := compileCfg{}
	for _, o := range opts {
		o(&cfg)
	}
	if !(cfg.sampleFraction >= 0 && cfg.sampleFraction <= 1) {
		return nil, fmt.Errorf("qpi: sample fraction %g out of [0,1]", cfg.sampleFraction)
	}
	if cfg.sampleFraction > 0 {
		exec.Walk(n.op, func(op exec.Operator) {
			if sc, ok := op.(*exec.Scan); ok {
				sc.SampleFraction = cfg.sampleFraction
				sc.Seed = cfg.sampleSeed
			}
		})
	}
	if cfg.memBudget > 0 {
		exec.Walk(n.op, func(op exec.Operator) {
			switch o := op.(type) {
			case *exec.HashJoin:
				o.SetMemoryBudget(cfg.memBudget)
			case *exec.Sort:
				o.SetMemoryBudget(cfg.memBudget)
			}
		})
	}
	if cfg.spillFS != nil {
		exec.Walk(n.op, func(op exec.Operator) {
			switch o := op.(type) {
			case *exec.HashJoin:
				o.SetSpillFS(cfg.spillFS)
			case *exec.Sort:
				o.SetSpillFS(cfg.spillFS)
			}
		})
	}
	// Scans emit only the columns the plan reads; estimates and estimators
	// are then bound to the narrowed plan.
	exec.Prune(n.op)
	plan.EstimateCardinalities(n.op, e.cat)
	q := &Query{root: n.op, cfg: cfg}
	if !cfg.noEstimators && (cfg.mode == Once || cfg.mode == Robust) {
		q.att = core.Attach(n.op)
	}
	var pmode progress.Mode
	switch cfg.mode {
	case DNE:
		pmode = progress.ModeDNE
	case Byte:
		pmode = progress.ModeByte
	case Robust:
		pmode = progress.ModeRobust
	default:
		pmode = progress.ModeOnce
	}
	q.monitor = progress.NewMonitorWith(n.op, pmode, q.att)
	return q, nil
}

// ProgressInterval returns a two-sided confidence interval (confidence
// alpha in (0,1), e.g. 0.95) around the progress estimate, derived from
// the online estimators' cardinality confidence intervals. Outside the
// default estimator mode it degenerates to the point estimate.
func (q *Query) ProgressInterval(alpha float64) (lo, hi float64) {
	return q.monitor.ProgressInterval(alpha)
}

// MustCompile is Compile, panicking on error.
func (e *Engine) MustCompile(n *Node, opts ...CompileOption) *Query {
	q, err := e.Compile(n, opts...)
	if err != nil {
		panic(err)
	}
	return q
}

// Status is the progress core shared by every consumer-facing snapshot
// (Report, QueryStatus, Metrics): the gnm work fractions plus the query's
// lifecycle state.
type Status struct {
	// Progress is the gnm estimate C(Q)/T(Q) in [0,1].
	Progress float64
	// C is the number of getnext() calls observed so far; T the current
	// estimate of the total over the query's lifetime.
	C, T float64
	// State is the query's lifecycle state: "running" until execution
	// finishes, then "done", "cancelled" (context cancelled or deadline
	// expired) or "failed". A cancelled query's progress value freezes,
	// but its state makes the outcome explicit.
	State string
}

// Report is a point-in-time progress snapshot.
type Report struct {
	Status
	// Pipelines summarizes each pipeline: done / running / pending.
	Pipelines []PipelineStatus
}

// PipelineStatus summarizes one pipeline.
type PipelineStatus struct {
	ID      int
	Root    string
	C, T    float64
	Started bool
	Done    bool
}

// statusOf is the single conversion from the progress layer's counters
// to the public Status. Every consumer-facing snapshot — Report (and so
// Subscribe and WithProgress), Dashboard's QueryStatus rows and Metrics
// — goes through this one function, so they all speak the same type
// with the same state vocabulary.
func statusOf(progressFrac, c, t float64, state progress.State) Status {
	return Status{Progress: progressFrac, C: c, T: t, State: state.String()}
}

func toReport(r progress.Report) Report {
	out := Report{Status: statusOf(r.Progress, r.C, r.T, r.State)}
	for _, p := range r.Pipelines {
		out.Pipelines = append(out.Pipelines, PipelineStatus{
			ID: p.ID, Root: p.Root, C: p.C, T: p.T, Started: p.Started, Done: p.Done,
		})
	}
	return out
}

// Progress returns the current gnm progress estimate in [0,1].
func (q *Query) Progress() float64 { return q.monitor.Progress() }

// Report returns a full progress snapshot.
func (q *Query) Report() Report { return toReport(q.monitor.Report()) }

// Run executes the query to completion on the columnar engine, discarding
// result rows, and returns the output row count. Observability is
// composed from options:
//
//	n, err := q.Run(ctx,
//	    qpi.WithProgress(func(r qpi.Report) { ... }, 10000),
//	    qpi.WithTrace(tracer),
//	    qpi.WithMetrics(&m))
//
// When ctx is cancelled or its deadline expires, execution stops within
// one batch of work, every operator unwinds via Close (releasing spill
// files and buffers), and the call returns ctx's error. The final
// progress report carries the terminal state ("done", "cancelled" or
// "failed") and is delivered to the progress callback and every
// Subscribe channel regardless of outcome. A nil ctx means
// context.Background().
func (q *Query) Run(ctx context.Context, opts ...RunOption) (int64, error) {
	if err := q.claim(); err != nil {
		return 0, err
	}
	cfg := newRunCfg(opts)
	q.installObservability(&cfg)
	n, err := execRun(ctx, q)
	q.finishRun(&cfg)
	return n, err
}

// installObservability wires the run options and subscribers into the
// plan: tracer binding across executor, estimators and monitor, plus a
// work-based ticker feeding the progress callback, Subscribe channels
// and the metrics destination. Called once, before execution.
func (q *Query) installObservability(cfg *runCfg) {
	if cfg.tracer != nil {
		exec.BindTracer(q.root, cfg.tracer)
		if q.att != nil {
			q.att.SetTracer(cfg.tracer)
		}
		q.monitor.BindTracer(cfg.tracer)
	}
	q.subMu.Lock()
	hasSubs := len(q.subs) > 0
	q.subMu.Unlock()
	if cfg.onProgress == nil && cfg.metrics == nil && !hasSubs {
		return
	}
	q.ticker = progress.NewTicker(cfg.every, func() { q.publishTick(cfg) })
	q.ticker.Install(q.root)
}

// publishTick runs on the execution goroutine at ticker boundaries.
func (q *Query) publishTick(cfg *runCfg) {
	rep := q.Report()
	if cfg.onProgress != nil {
		cfg.onProgress(rep)
	}
	if cfg.metrics != nil {
		*cfg.metrics = q.Metrics()
	}
	q.publishSubscribers(rep)
}

// finishRun delivers the terminal snapshot to every consumer and closes
// the Subscribe channels.
func (q *Query) finishRun(cfg *runCfg) {
	rep := q.Report()
	if cfg.onProgress != nil {
		cfg.onProgress(rep)
	}
	if cfg.metrics != nil {
		*cfg.metrics = q.Metrics()
	}
	q.closeSubscribers(rep)
}

// Rows executes the query and materializes the results. Each row holds
// int64, float64, string, or nil values.
func (q *Query) Rows() ([][]any, error) {
	return q.RowsContext(context.Background())
}

// RowsContext is Rows bound to ctx; cancellation and deadline behaviour
// match Run.
func (q *Query) RowsContext(ctx context.Context) ([][]any, error) {
	if err := q.claim(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	exec.Bind(q.root, ctx)
	out, err := q.collectRows()
	q.monitor.Finish(err)
	q.closeSubscribers(q.Report())
	return out, err
}

// collectRows drains the plan column-at-a-time and converts each batch
// to rows at the client boundary (see rows.go).
func (q *Query) collectRows() ([][]any, error) {
	var out [][]any
	_, err := q.drain(func(cb *data.ColBatch) { out = appendRows(out, cb) })
	return out, err
}

// Columns returns the output column names.
func (q *Query) Columns() []string {
	cols := q.root.Schema().Cols
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.Qualified()
	}
	return out
}

// Explain renders the plan tree with current estimates.
func (q *Query) Explain() string { return plan.Explain(q.root) }

// OperatorEstimate is a live view of one operator's counters.
type OperatorEstimate struct {
	// Operator is the EXPLAIN-style label ("HashJoin(a.k = b.k)").
	Operator string
	// Depth is the operator's depth in the plan tree (root = 0).
	Depth int
	// Emitted is the number of getnext() calls satisfied so far (K_i).
	Emitted int64
	// Estimate is the current belief about the operator's total output
	// cardinality (N_i).
	Estimate float64
	// Source is the estimate's provenance: "optimizer", "once",
	// "once-exact", "gee", "mle", "agg-pushdown", "exact".
	Source string
	// Done reports whether the operator has finished (Estimate exact).
	Done bool
}

// Estimates returns a live snapshot of every operator's cardinality
// estimate, in pre-order.
func (q *Query) Estimates() []OperatorEstimate {
	var out []OperatorEstimate
	var rec func(op exec.Operator, depth int)
	rec = func(op exec.Operator, depth int) {
		st := op.Stats()
		out = append(out, OperatorEstimate{
			Operator: op.Name(),
			Depth:    depth,
			Emitted:  st.Emitted.Load(),
			Estimate: st.Total(),
			Source:   st.Source(),
			Done:     st.IsDone(),
		})
		for _, c := range op.Children() {
			rec(c, depth+1)
		}
	}
	rec(q.root, 0)
	return out
}

// Drift describes one operator whose online cardinality estimate has
// diverged from the optimizer's original belief — the signal the adaptive
// query processing literature the paper discusses ([16, 20, 2]) uses to
// trigger re-optimization.
type Drift struct {
	// Operator is the EXPLAIN-style label.
	Operator string
	// Optimizer is the estimate the plan was costed with.
	Optimizer float64
	// Current is the refined online estimate.
	Current float64
	// Factor is max(Current/Optimizer, Optimizer/Current) ≥ 1.
	Factor float64
}

// DriftReport returns the operators whose refined estimates differ from
// the optimizer's original estimates by at least factor (e.g. 2 means
// 2× in either direction), sorted by descending factor. A non-empty
// report on a running query is the classic re-optimization trigger: the
// plan was chosen with cardinalities now known to be wrong.
func (q *Query) DriftReport(factor float64) []Drift {
	if factor < 1 {
		factor = 1
	}
	var out []Drift
	exec.Walk(q.root, func(op exec.Operator) {
		st := op.Stats()
		opt := q.monitor.OptimizerEstimate(op)
		cur := st.Total()
		if opt <= 0 || cur <= 0 {
			return
		}
		// Only count beliefs actually refined by observation.
		if st.Source() == "optimizer" && !st.IsDone() {
			return
		}
		f := cur / opt
		if f < 1 {
			f = 1 / f
		}
		if f >= factor {
			out = append(out, Drift{
				Operator:  op.Name(),
				Optimizer: opt,
				Current:   cur,
				Factor:    f,
			})
		}
	})
	sortDrifts(out)
	return out
}

func sortDrifts(ds []Drift) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j].Factor > ds[j-1].Factor; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

// EstimateOf returns the live cardinality snapshot of the operator whose
// EXPLAIN-style label matches operatorLabel — the labels reported by
// Estimates() and Explain(), e.g. "HashJoin(a.k = b.k)". A unique exact
// match wins even when the label is also a substring of other labels;
// otherwise a substring that identifies exactly one operator (such as
// "HashJoin" in a single-join plan) resolves to it. The second result is
// false when no operator matches unambiguously — including when several
// operators share the exact label, e.g. two identical scans of the same
// table. The plan root is addressable by the empty string.
func (q *Query) EstimateOf(operatorLabel string) (OperatorEstimate, bool) {
	ests := q.Estimates()
	if operatorLabel == "" {
		return ests[0], true
	}
	var exact OperatorEstimate
	exactMatches := 0
	for _, e := range ests {
		if e.Operator == operatorLabel {
			if exactMatches == 0 {
				exact = e
			}
			exactMatches++
		}
	}
	if exactMatches == 1 {
		return exact, true
	}
	if exactMatches > 1 {
		return OperatorEstimate{}, false
	}
	var found OperatorEstimate
	matches := 0
	for _, e := range ests {
		if strings.Contains(e.Operator, operatorLabel) {
			found = e
			matches++
		}
	}
	if matches == 1 {
		return found, true
	}
	return OperatorEstimate{}, false
}

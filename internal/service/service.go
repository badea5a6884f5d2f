// Package service is the multi-tenant query service layer: it turns the
// single-query qpi library into a server that runs many concurrent
// queries under a prepared-statement plan cache, admission control with
// a global memory budget (partitioned into per-query spill grants), and
// per-query deadlines — following the parse→prepare→execute split of
// the N1QL query engine, with the paper's progress framework as the
// per-query and fleet-wide observability surface.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"qpi"
)

// ErrSessionNotFound is returned by Cancel for an unknown or already
// finished session.
var ErrSessionNotFound = errors.New("service: session not found")

// Config configures a Service. The zero value of every field picks a
// sensible default; Engine is required.
type Config struct {
	// Engine executes the queries. The service assumes DDL/data loading
	// happens before serving begins (catalog mutations during serving are
	// safe for the plan cache — the version check covers them — but the
	// engine's execution paths read tables without locks).
	Engine *qpi.Engine
	// GlobalBudget caps the sum of per-query spill-memory grants across
	// all running queries, in bytes. 0 disables admission control.
	GlobalBudget int64
	// QueryBudget is the per-query grant when a request does not name
	// one (default 64 MiB).
	QueryBudget int64
	// MaxQueued bounds the admission queue (default 256; negative
	// disables queueing so saturation rejects immediately).
	MaxQueued int
	// QueueTimeout bounds how long a query waits for admission (default
	// 10s; negative waits until the request context cancels).
	QueueTimeout time.Duration
	// DefaultDeadline applies to requests without an explicit deadline
	// (default none).
	DefaultDeadline time.Duration
	// PlanCacheSize is the prepared-statement LRU capacity (default 256).
	PlanCacheSize int
	// RecentSessions is how many completed sessions the fleet view
	// retains (default 128).
	RecentSessions int
	// SpillFS, when set, routes every query's spill I/O through it —
	// the observability/fault seam tests use to assert descriptor-clean
	// shutdown under churn.
	SpillFS qpi.SpillFS
}

func (c Config) withDefaults() Config {
	if c.QueryBudget == 0 {
		c.QueryBudget = 64 << 20
	}
	// A default per-query budget above the global budget would reject
	// every default-sized request; clamp it to fill the whole budget
	// instead (explicit per-request budgets still get the hard error).
	if c.GlobalBudget > 0 && c.QueryBudget > c.GlobalBudget {
		c.QueryBudget = c.GlobalBudget
	}
	if c.MaxQueued == 0 {
		c.MaxQueued = 256
	} else if c.MaxQueued < 0 {
		c.MaxQueued = 0
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = 10 * time.Second
	} else if c.QueueTimeout < 0 {
		c.QueueTimeout = 0
	}
	if c.PlanCacheSize == 0 {
		c.PlanCacheSize = 256
	}
	if c.RecentSessions == 0 {
		c.RecentSessions = 128
	}
	return c
}

// Service is the multi-tenant query service. All methods are safe for
// concurrent use; each Execute call is one query stream.
type Service struct {
	cfg   Config
	eng   *qpi.Engine
	cache *PlanCache
	gov   *Governor
	dash  *qpi.Dashboard
	start time.Time

	mu       sync.Mutex
	closed   bool
	active   map[string]*session
	recent   []SessionInfo // ring, newest appended; bounded by RecentSessions
	inflight sync.WaitGroup

	seq        atomic.Int64
	completed  atomic.Int64
	cancelled  atomic.Int64
	failed     atomic.Int64
	rowsOut    atomic.Int64
	tuples     atomic.Int64
	spillFiles atomic.Int64
	spillBytes atomic.Int64
}

// session is one executing query's live record.
type session struct {
	id       string
	label    string
	sql      string
	query    *qpi.Query
	cancel   context.CancelFunc
	started  time.Time
	queued   time.Duration
	budget   int64
	cacheHit bool
}

// New creates a Service over cfg.Engine.
func New(cfg Config) (*Service, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("service: Config.Engine is required")
	}
	cfg = cfg.withDefaults()
	return &Service{
		cfg:    cfg,
		eng:    cfg.Engine,
		cache:  NewPlanCache(cfg.PlanCacheSize),
		gov:    NewGovernor(cfg.GlobalBudget, cfg.MaxQueued, cfg.QueueTimeout),
		dash:   qpi.NewDashboard(),
		start:  time.Now(),
		active: map[string]*session{},
	}, nil
}

// Dashboard returns the fleet's progress dashboard (every executing
// session is registered under its session ID).
func (s *Service) Dashboard() *qpi.Dashboard { return s.dash }

// PrepareResult is the prepare endpoint's payload.
type PrepareResult struct {
	SQL            string   `json:"sql"`
	Columns        []string `json:"columns"`
	Explain        string   `json:"explain"`
	CacheHit       bool     `json:"cache_hit"`
	CatalogVersion int64    `json:"catalog_version"`
}

// Prepare parses, plans and caches a statement without executing it.
func (s *Service) Prepare(sqlText string) (*PrepareResult, error) {
	if s.shuttingDown() {
		return nil, ErrShuttingDown
	}
	prep, hit, err := s.cache.Get(s.eng, sqlText)
	if err != nil {
		return nil, err
	}
	return &PrepareResult{
		SQL:            prep.SQL(),
		Columns:        prep.Columns(),
		Explain:        prep.Explain(),
		CacheHit:       hit,
		CatalogVersion: prep.CatalogVersion(),
	}, nil
}

// ExecRequest is one query execution request.
type ExecRequest struct {
	SQL string
	// Label annotates the session in the fleet view (optional).
	Label string
	// Deadline bounds execution (queue wait excluded); 0 applies the
	// configured default, negative means none.
	Deadline time.Duration
	// Budget is the spill-memory grant to request; 0 applies the
	// configured per-query default. Ignored when admission control is
	// off.
	Budget int64
	// WantRows materializes and returns the result rows; otherwise the
	// query runs to completion and only the row count is returned.
	WantRows bool
}

// ExecResult is one execution's outcome. State is the query's terminal
// progress state ("done", "cancelled", "failed"); Error carries the
// execution error's text when State != "done". Admission and
// parse/plan failures are returned as Go errors instead and produce no
// ExecResult.
type ExecResult struct {
	Session   string        `json:"session"`
	State     string        `json:"state"`
	Error     string        `json:"error,omitempty"`
	Rows      int64         `json:"rows"`
	Columns   []string      `json:"columns,omitempty"`
	Data      [][]any       `json:"data,omitempty"`
	CacheHit  bool          `json:"cache_hit"`
	Budget    int64         `json:"budget_bytes"`
	Queued    time.Duration `json:"-"`
	Elapsed   time.Duration `json:"-"`
	QueuedMs  float64       `json:"queued_ms"`
	ElapsedMs float64       `json:"elapsed_ms"`
}

// Execute runs one query end to end: plan-cache lookup, admission,
// compile with the granted spill budget, execution under the session
// deadline, terminal state via the progress registry.
func (s *Service) Execute(ctx context.Context, req ExecRequest) (*ExecResult, error) {
	var data [][]any
	res, err := s.execute(ctx, req, func(ctx context.Context, q *qpi.Query) (n int64, err error) {
		data, err = q.RowsContext(ctx)
		return int64(len(data)), err
	})
	if res != nil {
		res.Data = data
	}
	return res, err
}

// execute is the one execute path behind Execute and POST /v1/query. A
// request that wants rows runs its query through rows, which drains it
// under ctx into the caller's form of the result (boxed rows in process,
// JSON text over HTTP) and returns the row count and the execution
// error; the result's Data is left to the caller. Any other request only
// counts the rows.
func (s *Service) execute(ctx context.Context, req ExecRequest, rows func(context.Context, *qpi.Query) (int64, error)) (*ExecResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Closed-check and in-flight registration are atomic with respect to
	// Shutdown's closed-set + Wait.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrShuttingDown
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()

	prep, hit, err := s.cache.Get(s.eng, req.SQL)
	if err != nil {
		return nil, err
	}

	// Admission: reserve this query's slice of the global budget before
	// compiling. The grant is held for the whole execution.
	want := req.Budget
	if want <= 0 {
		want = s.cfg.QueryBudget
	}
	queueStart := time.Now()
	grant, release, err := s.gov.Acquire(ctx, want)
	if err != nil {
		return nil, err
	}
	defer release()
	queued := time.Since(queueStart)

	var opts []qpi.CompileOption
	if grant > 0 {
		opts = append(opts, qpi.WithMemoryBudget(grant))
	}
	if s.cfg.SpillFS != nil {
		opts = append(opts, qpi.WithSpillFS(s.cfg.SpillFS))
	}
	q, err := prep.NewQuery(opts...)
	if err != nil {
		return nil, err
	}

	// Session: deadline + cancellation ride one derived context; Cancel
	// reaches it through the active-session table.
	deadline := req.Deadline
	if deadline == 0 {
		deadline = s.cfg.DefaultDeadline
	}
	var qctx context.Context
	var cancel context.CancelFunc
	if deadline > 0 {
		qctx, cancel = context.WithTimeout(ctx, deadline)
	} else {
		qctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	sess := &session{
		label:    req.Label,
		sql:      req.SQL,
		query:    q,
		cancel:   cancel,
		started:  time.Now(),
		queued:   queued,
		budget:   grant,
		cacheHit: hit,
	}
	s.admitSession(sess)
	defer s.finishSession(sess)

	var n int64
	var execErr error
	if req.WantRows {
		n, execErr = rows(qctx, q)
	} else {
		n, execErr = q.Run(qctx)
	}
	elapsed := time.Since(sess.started)

	res := &ExecResult{
		Session:   sess.id,
		State:     q.Report().State,
		Rows:      n,
		CacheHit:  hit,
		Budget:    grant,
		Queued:    queued,
		Elapsed:   elapsed,
		QueuedMs:  float64(queued) / float64(time.Millisecond),
		ElapsedMs: float64(elapsed) / float64(time.Millisecond),
	}
	if req.WantRows {
		res.Columns = q.Columns()
	}
	if execErr != nil {
		res.Error = execErr.Error()
	}
	s.rowsOut.Add(n)
	return res, nil
}

// Cancel stops a running session. The session's Execute call returns
// with a cancelled terminal state.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	sess, ok := s.active[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrSessionNotFound, id)
	}
	sess.cancel()
	return nil
}

// admitSession assigns the session ID and registers the query in the
// fleet dashboard.
func (s *Service) admitSession(sess *session) {
	sess.id = fmt.Sprintf("q%06d", s.seq.Add(1))
	s.mu.Lock()
	s.active[sess.id] = sess
	s.mu.Unlock()
	// Session IDs are unique, so registration cannot collide.
	_ = s.dash.Register(sess.id, sess.query)
}

// finishSession retires the session: counters, the bounded
// recent-session ring, dashboard/registry cleanup.
func (s *Service) finishSession(sess *session) {
	info := s.sessionInfo(sess, false)
	switch info.State {
	case "cancelled":
		s.cancelled.Add(1)
	case "failed":
		s.failed.Add(1)
	default:
		s.completed.Add(1)
	}
	m := sess.query.Metrics()
	s.tuples.Add(m.Tuples)
	s.spillFiles.Add(m.SpillFiles)
	s.spillBytes.Add(m.SpillBytes)

	s.dash.Unregister(sess.id)
	s.mu.Lock()
	delete(s.active, sess.id)
	s.recent = append(s.recent, info)
	if over := len(s.recent) - s.cfg.RecentSessions; over > 0 {
		s.recent = append(s.recent[:0], s.recent[over:]...)
	}
	s.mu.Unlock()
}

// SessionInfo is one session's row in the fleet view. SpillFiles counts
// spilled runs (grace partitions and sort runs); an operator's runs share
// one temporary file.
type SessionInfo struct {
	ID    string `json:"id"`
	Label string `json:"label,omitempty"`
	SQL   string `json:"sql"`
	qpi.Status
	Active     bool      `json:"active"`
	CacheHit   bool      `json:"cache_hit"`
	Budget     int64     `json:"budget_bytes"`
	StartedAt  time.Time `json:"started_at"`
	QueuedMs   float64   `json:"queued_ms"`
	ElapsedMs  float64   `json:"elapsed_ms"`
	Tuples     int64     `json:"tuples"`
	SpillFiles int64     `json:"spill_files"`
	SpillBytes int64     `json:"spill_bytes"`
}

func (s *Service) sessionInfo(sess *session, active bool) SessionInfo {
	m := sess.query.Metrics()
	return SessionInfo{
		ID:         sess.id,
		Label:      sess.label,
		SQL:        sess.sql,
		Status:     m.Status,
		Active:     active,
		CacheHit:   sess.cacheHit,
		Budget:     sess.budget,
		StartedAt:  sess.started,
		QueuedMs:   float64(sess.queued) / float64(time.Millisecond),
		ElapsedMs:  float64(time.Since(sess.started)) / float64(time.Millisecond),
		Tuples:     m.Tuples,
		SpillFiles: m.SpillFiles,
		SpillBytes: m.SpillBytes,
	}
}

// Sessions returns the fleet view: all active sessions (live progress)
// followed by the retained recently completed ones, newest first.
func (s *Service) Sessions() []SessionInfo {
	s.mu.Lock()
	activeSessions := make([]*session, 0, len(s.active))
	for _, sess := range s.active {
		activeSessions = append(activeSessions, sess)
	}
	recent := make([]SessionInfo, len(s.recent))
	copy(recent, s.recent)
	s.mu.Unlock()

	out := make([]SessionInfo, 0, len(activeSessions)+len(recent))
	for _, sess := range activeSessions {
		out = append(out, s.sessionInfo(sess, true))
	}
	// Newest completed first.
	for i := len(recent) - 1; i >= 0; i-- {
		out = append(out, recent[i])
	}
	return out
}

// Stats is the service-level counter roll-up: plan cache, admission
// governor, session totals and aggregated execution counters.
type Stats struct {
	UptimeSeconds   float64        `json:"uptime_seconds"`
	ActiveSessions  int            `json:"active_sessions"`
	Completed       int64          `json:"completed"`
	Cancelled       int64          `json:"cancelled"`
	Failed          int64          `json:"failed"`
	RowsReturned    int64          `json:"rows_returned"`
	TuplesProcessed int64          `json:"tuples_processed"`
	SpillFiles      int64          `json:"spill_files"`
	SpillBytes      int64          `json:"spill_bytes"`
	CatalogVersion  int64          `json:"catalog_version"`
	OverallProgress float64        `json:"overall_progress"`
	PlanCache       CacheStats     `json:"plan_cache"`
	Admission       AdmissionStats `json:"admission"`
}

// Stats returns a point-in-time snapshot.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	activeCount := len(s.active)
	s.mu.Unlock()
	return Stats{
		UptimeSeconds:   time.Since(s.start).Seconds(),
		ActiveSessions:  activeCount,
		Completed:       s.completed.Load(),
		Cancelled:       s.cancelled.Load(),
		Failed:          s.failed.Load(),
		RowsReturned:    s.rowsOut.Load(),
		TuplesProcessed: s.tuples.Load(),
		SpillFiles:      s.spillFiles.Load(),
		SpillBytes:      s.spillBytes.Load(),
		CatalogVersion:  s.eng.CatalogVersion(),
		OverallProgress: s.dash.Overall(),
		PlanCache:       s.cache.Stats(),
		Admission:       s.gov.Stats(),
	}
}

func (s *Service) shuttingDown() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Shutdown drains the service: new Executes are rejected with
// ErrShuttingDown, in-flight queries run to completion, and the call
// returns when they have drained. If ctx expires first, every active
// session is cancelled, the remaining drain is awaited, and ctx's error
// is returned.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	// Forced: cancel everything still running, then wait for the
	// (bounded) unwind — cancellation stops execution within one batch.
	s.mu.Lock()
	for _, sess := range s.active {
		sess.cancel()
	}
	s.mu.Unlock()
	<-done
	return ctx.Err()
}

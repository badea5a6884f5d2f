package service

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"time"

	"qpi"
)

// HTTP wire types. Durations travel as milliseconds so non-Go clients
// don't need to know Go's duration encoding.

type prepareRequest struct {
	SQL string `json:"sql"`
}

type queryRequest struct {
	SQL         string `json:"sql"`
	Label       string `json:"label,omitempty"`
	DeadlineMs  int64  `json:"deadline_ms,omitempty"`
	BudgetBytes int64  `json:"budget_bytes,omitempty"`
	WantRows    bool   `json:"want_rows,omitempty"`
}

// queryResponse is ExecResult as POST /v1/query writes it: the same
// fields under the same tags in the same order, but with the rows
// already encoded, by Query.RowsJSON, to the bytes encoding/json writes
// for ExecResult.Data.
type queryResponse struct {
	Session   string          `json:"session"`
	State     string          `json:"state"`
	Error     string          `json:"error,omitempty"`
	Rows      int64           `json:"rows"`
	Columns   []string        `json:"columns,omitempty"`
	Data      json.RawMessage `json:"data,omitempty"`
	CacheHit  bool            `json:"cache_hit"`
	Budget    int64           `json:"budget_bytes"`
	QueuedMs  float64         `json:"queued_ms"`
	ElapsedMs float64         `json:"elapsed_ms"`
}

type cancelRequest struct {
	Session string `json:"session"`
}

type errorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind,omitempty"`
}

// Handler returns the service's full HTTP surface on a fresh mux.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Mount(mux)
	return mux
}

// Mount registers the service endpoints on a caller-provided mux:
//
//	POST /v1/prepare   parse+plan+cache a statement, return its shape
//	POST /v1/query     execute one query (admission, deadline, budget)
//	POST /v1/cancel    cancel a running session
//	GET  /v1/sessions  fleet view: active + recent sessions
//	GET  /v1/stats     plan cache, admission governor, service counters
//	GET  /metrics      Prometheus text: per-query families + service
//	                   families (cache, admission, sessions)
//	GET  /dashboard    the progress registry snapshot as JSON
//	GET  /debug/vars   the standard expvar endpoint
//	GET  /healthz      200 "ok" while serving, 503 while shutting down
func (s *Service) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/prepare", s.handlePrepare)
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/sessions", s.handleSessions)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /dashboard", s.handleDashboard)
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /healthz", s.handleHealthz)
}

// writeError maps service errors onto HTTP status codes: admission
// pressure is 429 (retryable), an unsatisfiable budget or bad statement
// is 400, shutdown is 503, unknown sessions are 404, and a result JSON
// cannot represent (a NaN or an infinity) is 500.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	kind := "invalid"
	switch {
	case unencodable(err):
		code, kind = http.StatusInternalServerError, "unencodable_result"
	case errors.Is(err, ErrQueueFull):
		code, kind = http.StatusTooManyRequests, "queue_full"
	case errors.Is(err, ErrQueueTimeout):
		code, kind = http.StatusTooManyRequests, "queue_timeout"
	case errors.Is(err, ErrBudgetTooLarge):
		code, kind = http.StatusBadRequest, "budget_too_large"
	case errors.Is(err, ErrShuttingDown):
		code, kind = http.StatusServiceUnavailable, "shutting_down"
	case errors.Is(err, ErrSessionNotFound):
		code, kind = http.StatusNotFound, "session_not_found"
	}
	w.Header().Set("Content-Type", "application/json")
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: err.Error(), Kind: kind})
}

// writeJSON answers with v as encoding/json encodes it. A value it
// refuses is answered through writeError: Encode marshals the whole
// value before it writes, so nothing has been sent yet. A failed write
// means the client is gone and is dropped.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); unencodable(err) {
		writeError(w, err)
	}
}

// unencodable reports whether err is encoding/json refusing a value, as
// opposed to failing to write it.
func unencodable(err error) bool {
	var value *json.UnsupportedValueError
	var typ *json.UnsupportedTypeError
	var marshaler *json.MarshalerError
	return errors.As(err, &value) || errors.As(err, &typ) || errors.As(err, &marshaler)
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	defer r.Body.Close()
	// Bound request bodies: statements are text, not bulk data.
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	if err := dec.Decode(v); err != nil {
		writeError(w, fmt.Errorf("service: bad request body: %w", err))
		return false
	}
	return true
}

func (s *Service) handlePrepare(w http.ResponseWriter, r *http.Request) {
	var req prepareRequest
	if !decodeBody(w, r, &req) {
		return
	}
	res, err := s.Prepare(req.SQL)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, res)
}

func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// The rows are encoded from the lanes while the query runs and held
	// until it ends, so a query that fails after its first batch still
	// answers with its state, count, partial rows and error.
	var data []byte
	var rowsErr error
	res, err := s.execute(r.Context(), ExecRequest{
		SQL:      req.SQL,
		Label:    req.Label,
		Deadline: time.Duration(req.DeadlineMs) * time.Millisecond,
		Budget:   req.BudgetBytes,
		WantRows: req.WantRows,
	}, func(ctx context.Context, q *qpi.Query) (n int64, err error) {
		data, n, rowsErr = q.RowsJSON(ctx)
		return n, rowsErr
	})
	if err == nil && unencodable(rowsErr) {
		err = rowsErr
	}
	if err != nil {
		writeError(w, err)
		return
	}
	resp := queryResponse{
		Session:   res.Session,
		State:     res.State,
		Error:     res.Error,
		Rows:      res.Rows,
		Columns:   res.Columns,
		CacheHit:  res.CacheHit,
		Budget:    res.Budget,
		QueuedMs:  res.QueuedMs,
		ElapsedMs: res.ElapsedMs,
	}
	if res.Rows > 0 {
		resp.Data = data
	}
	writeJSON(w, resp)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	var req cancelRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := s.Cancel(req.Session); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]any{"session": req.Session, "cancelled": true})
}

func (s *Service) handleSessions(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, struct {
		Sessions []SessionInfo `json:"sessions"`
	}{s.Sessions()})
}

func (s *Service) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.Stats())
}

func (s *Service) handleDashboard(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.dash.WriteJSON(w)
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.shuttingDown() {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, "ok\n")
}

// handleMetrics extends the dashboard's Prometheus exposition with the
// service-level families — the fleet view a scraper needs to alert on
// (cache effectiveness, admission pressure, memory-governor headroom).
func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.dash.WriteMetrics(w)
	st := s.Stats()
	writeFamily := func(name, help, typ string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, typ, name, v)
	}
	writeFamily("qpi_server_sessions_active", "Queries executing now.", "gauge", float64(st.ActiveSessions))
	writeFamily("qpi_server_sessions_completed_total", "Queries finished in the done state.", "counter", float64(st.Completed))
	writeFamily("qpi_server_sessions_cancelled_total", "Queries finished cancelled (incl. deadline expiry).", "counter", float64(st.Cancelled))
	writeFamily("qpi_server_sessions_failed_total", "Queries finished in the failed state.", "counter", float64(st.Failed))
	writeFamily("qpi_server_plan_cache_hits_total", "Plan-cache hits.", "counter", float64(st.PlanCache.Hits))
	writeFamily("qpi_server_plan_cache_misses_total", "Plan-cache misses.", "counter", float64(st.PlanCache.Misses))
	writeFamily("qpi_server_plan_cache_invalidations_total", "Plan-cache entries invalidated by catalog changes.", "counter", float64(st.PlanCache.Invalidations))
	writeFamily("qpi_server_plan_cache_size", "Prepared statements cached now.", "gauge", float64(st.PlanCache.Size))
	writeFamily("qpi_server_admission_budget_bytes", "Global spill-memory budget (0 = ungoverned).", "gauge", float64(st.Admission.Budget))
	writeFamily("qpi_server_admission_granted_bytes", "Sum of outstanding per-query grants.", "gauge", float64(st.Admission.Granted))
	writeFamily("qpi_server_admission_queue_depth", "Queries waiting for admission.", "gauge", float64(st.Admission.QueueDepth))
	writeFamily("qpi_server_admission_rejected_total", "Admissions rejected (queue full + timeouts + oversize).", "counter",
		float64(st.Admission.RejectedQueueFull+st.Admission.TimedOut+st.Admission.RejectedBudget))
	writeFamily("qpi_server_spill_bytes_total", "Bytes spilled by finished queries.", "counter", float64(st.SpillBytes))
}

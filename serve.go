package qpi

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
)

// DefaultDashboard is the registry exposed by the package-level Serve.
// Register long-running queries on it (or on a private Dashboard served
// with Dashboard.Serve) to make them scrapable.
var DefaultDashboard = NewDashboard()

// Server exposes a dashboard's registry over HTTP:
//
//	/metrics     Prometheus-style text exposition of every registered
//	             query's counters and gauges
//	/dashboard   the registry snapshot plus overall progress, as JSON
//	/debug/vars  the standard expvar endpoint (includes the "qpi" var)
//	/healthz     liveness probe: "ok\n" with status 200
//
// Close stops the listener immediately (in-flight scrapes finish);
// Shutdown drains gracefully.
type Server struct {
	d   *Dashboard
	ln  net.Listener
	srv *http.Server
}

// Serve starts an observability server for DefaultDashboard on addr
// (":0" picks a free port; Addr reports it).
func Serve(addr string) (*Server, error) { return DefaultDashboard.Serve(addr) }

// Mount registers the dashboard's observability endpoints (/metrics,
// /dashboard, /debug/vars, /healthz) on a caller-provided mux, so the
// qpi surface can share an *http.ServeMux with an application's own
// handlers instead of owning a listener.
func (d *Dashboard) Mount(mux *http.ServeMux) {
	publishExpvar(d)
	mux.HandleFunc("/metrics", d.handleMetrics)
	mux.HandleFunc("/dashboard", d.handleDashboard)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/healthz", HandleHealthz)
}

// HandleHealthz is the liveness probe handler mounted at /healthz.
func HandleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, "ok\n")
}

// Serve starts an observability server for this dashboard on addr.
func (d *Dashboard) Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	d.Mount(mux)
	s := &Server{d: d, ln: ln, srv: &http.Server{Handler: mux}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the server's listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server immediately. In-flight scrapes finish; idle
// connections are closed.
func (s *Server) Close() error { return s.srv.Close() }

// Shutdown stops the server gracefully: the listener closes, in-flight
// requests run to completion, and the call returns when every
// connection has drained or ctx expires (returning ctx's error, with
// remaining connections then closed as in Close).
func (s *Server) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }

// expvarOnce guards the process-global expvar name: the first dashboard
// served publishes its snapshot under "qpi".
var expvarOnce sync.Once

func publishExpvar(d *Dashboard) {
	expvarOnce.Do(func() {
		expvar.Publish("qpi", expvar.Func(func() any {
			return struct {
				Queries []QueryStatus `json:"queries"`
				Overall float64       `json:"overall"`
			}{d.Snapshot(), d.Overall()}
		}))
	})
}

func (d *Dashboard) handleDashboard(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = d.WriteJSON(w)
}

// WriteJSON writes the registry snapshot plus overall progress as JSON —
// the /dashboard payload, exposed so service layers can embed it in
// composite endpoints.
func (d *Dashboard) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(struct {
		Queries []QueryStatus `json:"queries"`
		Overall float64       `json:"overall"`
	}{d.Snapshot(), d.Overall()})
}

// promMetric describes one exported metric family.
type promMetric struct {
	name, help, typ string
	value           func(m Metrics) float64
}

var promMetrics = []promMetric{
	{"qpi_query_progress", "gnm progress estimate C(Q)/T(Q) in [0,1].", "gauge",
		func(m Metrics) float64 { return m.Progress }},
	{"qpi_query_work_done", "C(Q): getnext() calls observed so far.", "gauge",
		func(m Metrics) float64 { return m.C }},
	{"qpi_query_work_total", "T(Q): current estimate of total getnext() calls.", "gauge",
		func(m Metrics) float64 { return m.T }},
	{"qpi_query_tuples_total", "Tuples emitted across all operators.", "counter",
		func(m Metrics) float64 { return float64(m.Tuples) }},
	{"qpi_query_batches_total", "Batches emitted in batch-at-a-time execution.", "counter",
		func(m Metrics) float64 { return float64(m.Batches) }},
	{"qpi_query_spill_files_total", "Spill files created by grace joins and external sorts.", "counter",
		func(m Metrics) float64 { return float64(m.SpillFiles) }},
	{"qpi_query_spill_bytes_total", "Bytes written to spill files.", "counter",
		func(m Metrics) float64 { return float64(m.SpillBytes) }},
	{"qpi_query_estimator_recomputes_total", "Online-estimator publish boundaries.", "counter",
		func(m Metrics) float64 { return float64(m.EstimatorRecomputes) }},
	{"qpi_query_histogram_probes_total", "Join-histogram probes by the chain estimators.", "counter",
		func(m Metrics) float64 { return float64(m.HistogramProbes) }},
}

func (d *Dashboard) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	d.WriteMetrics(w)
}

// WriteMetrics writes the Prometheus-style text exposition of every
// registered query — the /metrics payload, exposed so service layers
// can append their own metric families to the same scrape.
func (d *Dashboard) WriteMetrics(w io.Writer) {
	labels, qs := d.queriesSnapshot()
	metrics := make([]Metrics, len(qs))
	for i, q := range qs {
		metrics[i] = q.Metrics()
	}
	for _, pm := range promMetrics {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", pm.name, pm.help, pm.name, pm.typ)
		for i, m := range metrics {
			fmt.Fprintf(w, "%s{query=%q} %g\n", pm.name, labels[i], pm.value(m))
		}
	}
	fmt.Fprintf(w, "# HELP qpi_pipeline_work_done Per-pipeline C.\n# TYPE qpi_pipeline_work_done gauge\n")
	for i, m := range metrics {
		for _, p := range m.Pipelines {
			fmt.Fprintf(w, "qpi_pipeline_work_done{query=%q,pipeline=\"%d\"} %g\n",
				labels[i], p.ID, p.C)
		}
	}
	fmt.Fprintf(w, "# HELP qpi_pipeline_work_total Per-pipeline T estimate.\n# TYPE qpi_pipeline_work_total gauge\n")
	for i, m := range metrics {
		for _, p := range m.Pipelines {
			fmt.Fprintf(w, "qpi_pipeline_work_total{query=%q,pipeline=\"%d\"} %g\n",
				labels[i], p.ID, p.T)
		}
	}
	fmt.Fprintf(w, "# HELP qpi_overall_progress Workload-wide gnm progress.\n# TYPE qpi_overall_progress gauge\n")
	fmt.Fprintf(w, "qpi_overall_progress %g\n", d.Overall())
}

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getBody(t *testing.T, client *http.Client, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestHTTPPrepareAndQuery(t *testing.T) {
	svc := newService(t, Config{Engine: testEngine(t, 2000)})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Prepare: plan shape without execution.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/prepare", map[string]any{"sql": quickSQL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prepare status = %d: %s", resp.StatusCode, body)
	}
	var prep PrepareResult
	if err := json.Unmarshal(body, &prep); err != nil {
		t.Fatal(err)
	}
	if len(prep.Columns) != 1 || prep.Columns[0] != "c" || prep.Explain == "" {
		t.Errorf("prepare result = %+v, want column c and a plan", prep)
	}

	// Prepare with bad SQL: 400 with a kind.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/prepare", map[string]any{"sql": "SELEKT"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad prepare status = %d, want 400", resp.StatusCode)
	}
	var eresp errorResponse
	if err := json.Unmarshal(body, &eresp); err != nil || eresp.Error == "" {
		t.Errorf("bad prepare body = %s", body)
	}

	// Execute with rows. The prepare above warmed the cache.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/query",
		queryRequest{SQL: quickSQL, WantRows: true, Label: "http-test"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d: %s", resp.StatusCode, body)
	}
	var res ExecResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.State != "done" || res.Rows != 1 || !res.CacheHit {
		t.Errorf("query result = %+v, want done, 1 row, cache hit", res)
	}

	// Fleet view shows the finished session.
	resp, body = getBody(t, ts.Client(), ts.URL+"/v1/sessions")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"label":"http-test"`) {
		t.Errorf("sessions = %d %s, want the labelled session", resp.StatusCode, body)
	}

	// Stats roll-up.
	resp, body = getBody(t, ts.Client(), ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Completed != 1 || st.PlanCache.Hits != 1 {
		t.Errorf("stats = %+v, want 1 completed with 1 cache hit", st)
	}
}

// TestHTTPIgnoresBatchWorkers: the retired batch_workers request field is
// ignored like any unknown field — an old client's query still answers 200
// with the rows it gets without the field.
func TestHTTPIgnoresBatchWorkers(t *testing.T) {
	svc := newService(t, Config{Engine: testEngine(t, 300)})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	run := func(body map[string]any) ExecResult {
		resp, raw := postJSON(t, ts.Client(), ts.URL+"/v1/query", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %v: status = %d: %s", body, resp.StatusCode, raw)
		}
		var res ExecResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		if res.State != "done" || res.Rows == 0 {
			t.Fatalf("query %v: result = %+v, want done with rows", body, res)
		}
		return res
	}
	plain := run(map[string]any{"sql": joinSQL, "want_rows": true})
	old := run(map[string]any{"sql": joinSQL, "want_rows": true, "batch_workers": 4})
	if got, want := fmt.Sprint(old.Data), fmt.Sprint(plain.Data); old.Rows != plain.Rows || got != want {
		t.Errorf("with batch_workers: %d rows %.80s…, without: %d rows %.80s…", old.Rows, got, plain.Rows, want)
	}
}

func TestHTTPDeadlineAndCancel(t *testing.T) {
	svc := newService(t, Config{Engine: testEngine(t, slowJoinRows)})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Deadline: server-side expiry yields 200 with a cancelled state.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/query",
		queryRequest{SQL: joinSQL, DeadlineMs: 15})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deadline query status = %d: %s", resp.StatusCode, body)
	}
	var res ExecResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.State != "cancelled" {
		t.Errorf("state = %q, want cancelled", res.State)
	}

	// Cancel by session ID, discovered through /v1/sessions.
	type execOut struct {
		status int
		res    ExecResult
	}
	done := make(chan execOut, 1)
	go func() {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/query", queryRequest{SQL: joinSQL})
		var r ExecResult
		_ = json.Unmarshal(body, &r)
		done <- execOut{resp.StatusCode, r}
	}()
	var id string
	deadline := time.Now().Add(10 * time.Second)
	for id == "" && time.Now().Before(deadline) {
		_, body := getBody(t, ts.Client(), ts.URL+"/v1/sessions")
		var list struct {
			Sessions []SessionInfo `json:"sessions"`
		}
		_ = json.Unmarshal(body, &list)
		for _, s := range list.Sessions {
			if s.Active {
				id = s.ID
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if id == "" {
		t.Fatal("running session never appeared in /v1/sessions")
	}
	resp, _ = postJSON(t, ts.Client(), ts.URL+"/v1/cancel", cancelRequest{Session: id})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	out := <-done
	if out.status != http.StatusOK || out.res.State != "cancelled" {
		t.Errorf("cancelled query = %d %+v, want 200/cancelled", out.status, out.res)
	}

	// Cancelling an unknown session is 404.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/cancel", cancelRequest{Session: "nope"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown cancel status = %d (%s), want 404", resp.StatusCode, body)
	}
}

func TestHTTPAdmissionRejection(t *testing.T) {
	svc := newService(t, Config{
		Engine:       testEngine(t, 500),
		GlobalBudget: 1 << 20,
		QueryBudget:  1 << 20,
		MaxQueued:    -1, // no queue: saturation rejects immediately
	})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Hold the whole budget so the HTTP query cannot be admitted.
	_, release, err := svc.gov.Acquire(context.Background(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/query", queryRequest{SQL: quickSQL})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated query status = %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var eresp errorResponse
	if err := json.Unmarshal(body, &eresp); err != nil || eresp.Kind != "queue_full" {
		t.Errorf("rejection body = %s, want kind queue_full", body)
	}

	// An unsatisfiable per-query budget is a 400, not a retryable 429.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/query",
		queryRequest{SQL: quickSQL, BudgetBytes: 2 << 20})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversize budget status = %d (%s), want 400", resp.StatusCode, body)
	}

	// Releasing the hog admits work again.
	release()
	resp, _ = postJSON(t, ts.Client(), ts.URL+"/v1/query", queryRequest{SQL: quickSQL})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-release query status = %d, want 200", resp.StatusCode)
	}
}

func TestHTTPQueueingUnderSaturation(t *testing.T) {
	svc := newService(t, Config{
		Engine:       testEngine(t, 500),
		GlobalBudget: 1 << 20,
		QueryBudget:  1 << 20,
		MaxQueued:    4,
		QueueTimeout: 30 * time.Second,
	})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	_, release, err := svc.gov.Acquire(context.Background(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan ExecResult, 1)
	go func() {
		_, body := postJSON(t, ts.Client(), ts.URL+"/v1/query", queryRequest{SQL: quickSQL})
		var r ExecResult
		_ = json.Unmarshal(body, &r)
		done <- r
	}()
	// The request must show up as queued, not running.
	deadline := time.Now().Add(10 * time.Second)
	for svc.Stats().Admission.QueueDepth == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never queued")
		}
		time.Sleep(time.Millisecond)
	}
	release()
	res := <-done
	if res.State != "done" {
		t.Fatalf("queued query state = %q, want done", res.State)
	}
	if res.QueuedMs <= 0 {
		t.Errorf("QueuedMs = %v, want > 0 for a queued admission", res.QueuedMs)
	}
	if st := svc.Stats().Admission; st.Queued != 1 || st.PeakQueueDepth != 1 {
		t.Errorf("admission stats = %+v, want one queued admission", st)
	}
}

func TestHTTPObservabilityEndpoints(t *testing.T) {
	svc := newService(t, Config{Engine: testEngine(t, 2000), GlobalBudget: 8 << 20})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	if resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/query", queryRequest{SQL: quickSQL}); resp.StatusCode != http.StatusOK {
		t.Fatal("warm-up query failed")
	}

	resp, body := getBody(t, ts.Client(), ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	for _, family := range []string{
		"qpi_server_sessions_completed_total 1",
		"qpi_server_plan_cache_misses_total 1",
		"qpi_server_admission_budget_bytes",
		"qpi_server_spill_bytes_total",
	} {
		if !strings.Contains(string(body), family) {
			t.Errorf("/metrics missing %q", family)
		}
	}

	resp, body = getBody(t, ts.Client(), ts.URL+"/dashboard")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "overall") {
		t.Errorf("/dashboard = %d %s", resp.StatusCode, body)
	}

	resp, body = getBody(t, ts.Client(), ts.URL+"/debug/vars")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "cmdline") {
		t.Errorf("/debug/vars = %d", resp.StatusCode)
	}

	resp, body = getBody(t, ts.Client(), ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("/healthz = %d %s, want 200 ok", resp.StatusCode, body)
	}

	// After shutdown the health probe flips to 503 so load balancers
	// stop routing here, and queries are refused.
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, _ = getBody(t, ts.Client(), ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown /healthz = %d, want 503", resp.StatusCode)
	}
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/query", queryRequest{SQL: quickSQL})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown query = %d (%s), want 503", resp.StatusCode, body)
	}
}

func TestHTTPBadBody(t *testing.T) {
	svc := newService(t, Config{Engine: testEngine(t, 100)})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/v1/query", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body status = %d, want 400", resp.StatusCode)
	}
	// Wrong method on a POST route.
	resp, err = ts.Client().Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/query = %d, want 405", resp.StatusCode)
	}
}

func TestHTTPMountOnCallerMux(t *testing.T) {
	svc := newService(t, Config{Engine: testEngine(t, 100)})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /app", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "app")
	})
	svc.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	resp, body := getBody(t, ts.Client(), ts.URL+"/app")
	if resp.StatusCode != http.StatusOK || string(body) != "app" {
		t.Errorf("caller route = %d %q", resp.StatusCode, body)
	}
	resp, _ = getBody(t, ts.Client(), ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("mounted /healthz = %d, want 200", resp.StatusCode)
	}
}

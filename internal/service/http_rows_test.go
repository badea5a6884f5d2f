package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"qpi"
	"qpi/internal/vfs"
)

// POST /v1/query encodes result rows from the lanes (Query.RowsJSON). These
// tests hold its bodies to encoding/json's encoding of the ExecResult the
// in-process Execute returns for the same request.

// TestQueryResponseTagsMatchExecResult: the HTTP envelope carries
// ExecResult's JSON fields, under the same tags, in the same order.
func TestQueryResponseTagsMatchExecResult(t *testing.T) {
	tags := func(typ reflect.Type) (out []string) {
		for i := 0; i < typ.NumField(); i++ {
			if tag := typ.Field(i).Tag.Get("json"); tag != "-" {
				out = append(out, tag)
			}
		}
		return out
	}
	got, want := tags(reflect.TypeOf(queryResponse{})), tags(reflect.TypeOf(ExecResult{}))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("queryResponse tags %q, ExecResult's %q", got, want)
	}
}

// rowsEngine is testEngine plus a table t(k, s, f) whose strings need
// every escape encoding/json writes and whose floats sit on its format
// cut-offs, NULLs included.
func rowsEngine(t *testing.T) *qpi.Engine {
	t.Helper()
	eng := testEngine(t, 2000)
	tb, err := eng.CreateTable("t",
		qpi.ColumnDef{Name: "k", Type: "int"},
		qpi.ColumnDef{Name: "s", Type: "string"},
		qpi.ColumnDef{Name: "f", Type: "float"})
	if err != nil {
		t.Fatal(err)
	}
	strs := []any{"<b>&amp;</b>", "line\u2028sep\u2029", "bad \xff utf8", "ctl \x00\x1f\t\"\\", "é日本", nil, ""}
	floats := []any{1e-7, 1e-6, 1e21, 1e20, math.Copysign(0, -1), 5e-324, nil, 0.1}
	for k := 1; k <= 40; k++ {
		if err := tb.Insert(k, strs[k%len(strs)], floats[k%len(floats)]); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// checkHTTPMatchesExecute sends req over HTTP to one service and through
// Execute to another built from the same config, so both run the same
// cache miss on the same data, and returns the HTTP body after checking
// it equals encoding/json's encoding of the in-process result, with the
// session id and the timings taken from the HTTP reply.
func checkHTTPMatchesExecute(t *testing.T, cfg func() Config, req queryRequest) (body []byte, res *ExecResult) {
	t.Helper()
	ts := httptest.NewServer(newService(t, cfg()).Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/query", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", req.SQL, resp.StatusCode, body)
	}
	res, err := newService(t, cfg()).Execute(context.Background(), ExecRequest{
		SQL:      req.SQL,
		Budget:   req.BudgetBytes,
		WantRows: req.WantRows,
	})
	if err != nil {
		t.Fatalf("%s: %v", req.SQL, err)
	}
	var stamp struct {
		Session   string  `json:"session"`
		QueuedMs  float64 `json:"queued_ms"`
		ElapsedMs float64 `json:"elapsed_ms"`
	}
	if err := json.Unmarshal(body, &stamp); err != nil {
		t.Fatalf("%s: %v in %s", req.SQL, err, body)
	}
	res.Session, res.QueuedMs, res.ElapsedMs = stamp.Session, stamp.QueuedMs, stamp.ElapsedMs
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(res); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("%s: HTTP body\n%.600s\nencoding/json of Execute's result\n%.600s", req.SQL, body, want.Bytes())
	}
	return body, res
}

// TestHTTPRowsMatchExecute: serve_mix's GROUP BY, a sort's row-backed
// batches under ORDER BY … LIMIT, a join carrying strings and floats that
// need escapes and both float forms, a result with no rows (no data key)
// and the count-only path.
func TestHTTPRowsMatchExecute(t *testing.T) {
	eng := rowsEngine(t)
	cfg := func() Config { return Config{Engine: eng} }
	for _, sql := range []string{
		"SELECT r.k, COUNT(*) c FROM r GROUP BY r.k",
		"SELECT r.k, r.rowid FROM r ORDER BY r.k DESC LIMIT 30",
		"SELECT t.s, t.f, r.k FROM t JOIN r ON t.k = r.k",
		"SELECT r.k FROM r WHERE r.k < 0",
	} {
		body, res := checkHTTPMatchesExecute(t, cfg, queryRequest{SQL: sql, WantRows: true})
		if res.State != "done" {
			t.Fatalf("%s: state %q (%s)", sql, res.State, res.Error)
		}
		if hasData := bytes.Contains(body, []byte(`"data":`)); hasData != (res.Rows > 0) {
			t.Errorf("%s: %d rows, data key present %v", sql, res.Rows, hasData)
		}
	}
	body, _ := checkHTTPMatchesExecute(t, cfg, queryRequest{SQL: "SELECT t.s FROM t"})
	if bytes.Contains(body, []byte(`"data":`)) || bytes.Contains(body, []byte(`"columns":`)) {
		t.Errorf("count-only reply carries rows: %s", body)
	}
}

// TestHTTPRowsSpillFault: a spill read that fails after the join has
// emitted its first batches answers 200 with the failed state, the rows
// counted so far, those rows and the error — what Execute returns.
func TestHTTPRowsSpillFault(t *testing.T) {
	eng := testEngine(t, 4000)
	const budget = 64 << 10
	cfg := func() Config {
		return Config{Engine: eng, GlobalBudget: budget, QueryBudget: budget, SpillFS: vfs.NewFaultFS(nil).FailAt(vfs.OpRead, 16)}
	}
	body, res := checkHTTPMatchesExecute(t, cfg, queryRequest{SQL: joinSQL, WantRows: true})
	if res.State != "failed" || !strings.Contains(res.Error, vfs.ErrInjected.Error()) {
		t.Fatalf("state %q error %q, want failed on the injected read", res.State, res.Error)
	}
	if res.Rows == 0 || int64(len(res.Data)) != res.Rows || !bytes.Contains(body, []byte(`"data":[[`)) {
		t.Fatalf("%d rows, %d in data: want the rows emitted before the fault", res.Rows, len(res.Data))
	}
}

// TestHTTPNonFiniteResult: a float overflow in the rows answers 500 with
// kind unencodable_result (it used to answer an empty 200); the same query
// without rows answers 200 with its count.
func TestHTTPNonFiniteResult(t *testing.T) {
	svc := newService(t, Config{Engine: testEngine(t, 300)})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	sql := "SELECT r.k * " + strings.Repeat("100000000000000000000.0 * ", 15) + "100000000000000000000.0 x FROM r WHERE r.k = 3"

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/query", queryRequest{SQL: sql, WantRows: true})
	var eresp errorResponse
	if err := json.Unmarshal(body, &eresp); err != nil || resp.StatusCode != http.StatusInternalServerError || eresp.Kind != "unencodable_result" {
		t.Fatalf("rows: status %d body %q, want 500 unencodable_result", resp.StatusCode, body)
	}
	if !strings.Contains(eresp.Error, "+Inf") {
		t.Errorf("error %q does not name the value", eresp.Error)
	}

	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/query", queryRequest{SQL: sql})
	var res ExecResult
	if err := json.Unmarshal(body, &res); err != nil || resp.StatusCode != http.StatusOK || res.State != "done" || res.Rows == 0 {
		t.Fatalf("count: status %d body %q, want 200 done with rows", resp.StatusCode, body)
	}
}

// TestWriteJSONUnencodable: every handler's writeJSON answers a value
// encoding/json refuses with a 500, not an empty 200.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, Stats{UptimeSeconds: math.NaN()})
	var eresp errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &eresp); err != nil || rec.Code != http.StatusInternalServerError || eresp.Kind != "unencodable_result" {
		t.Fatalf("status %d body %q, want 500 unencodable_result", rec.Code, rec.Body.Bytes())
	}
	rec = httptest.NewRecorder()
	writeJSON(rec, Stats{UptimeSeconds: 1})
	if rec.Code != http.StatusOK || !bytes.HasSuffix(rec.Body.Bytes(), []byte("}\n")) {
		t.Fatalf("status %d body %q, want 200 with the value", rec.Code, rec.Body.Bytes())
	}
}

// TestHTTPRowsDeadline keeps the deadline path on the lane encoder:
// a rows query cut by its deadline answers 200 cancelled.
func TestHTTPRowsDeadline(t *testing.T) {
	svc := newService(t, Config{Engine: testEngine(t, slowJoinRows)})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/query",
		queryRequest{SQL: joinSQL, WantRows: true, DeadlineMs: (15 * time.Millisecond).Milliseconds()})
	var res ExecResult
	if err := json.Unmarshal(body, &res); err != nil || resp.StatusCode != http.StatusOK || res.State != "cancelled" {
		t.Fatalf("status %d state %q (%.200s), want 200 cancelled", resp.StatusCode, res.State, body)
	}
	if int64(len(res.Data)) != res.Rows {
		t.Errorf("%d rows in data for a count of %d", len(res.Data), res.Rows)
	}
}

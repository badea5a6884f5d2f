package qpi

import (
	"math"
	"regexp"
	"strings"
	"testing"
)

func testEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	e.MustCreateSkewedTable("r", 3000, 1,
		SkewedColumn{Name: "k", Domain: 100, Zipf: 1, PermSeed: 11})
	e.MustCreateSkewedTable("s", 4000, 2,
		SkewedColumn{Name: "k", Domain: 100, Zipf: 1, PermSeed: 22})
	return e
}

func TestCreateTableAndInsert(t *testing.T) {
	e := New()
	tb, err := e.CreateTable("t",
		ColumnDef{Name: "a", Type: "int"},
		ColumnDef{Name: "b", Type: "float"},
		ColumnDef{Name: "c", Type: "string"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(1, 2.5, "x"); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(nil, 0.0, ""); err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 2 {
		t.Errorf("Rows = %d", tb.Rows())
	}
	if err := tb.Insert(struct{}{}, 0.0, ""); err == nil {
		t.Error("unsupported type accepted")
	}
	if err := e.Analyze("t"); err != nil {
		t.Fatal(err)
	}
	if err := e.Analyze("missing"); err == nil {
		t.Error("Analyze of missing table should fail")
	}
}

func TestCreateTableValidation(t *testing.T) {
	e := New()
	if _, err := e.CreateTable(""); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := e.CreateTable("t"); err == nil {
		t.Error("no columns accepted")
	}
	if _, err := e.CreateTable("t", ColumnDef{Name: "a", Type: "blob"}); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestScanAndFilterQuery(t *testing.T) {
	e := testEngine(t)
	n, err := e.Scan("r", "")
	if err != nil {
		t.Fatal(err)
	}
	f, err := n.Filter(Le(Col("r", "k"), 50))
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := q.Rows()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r[1].(int64) > 50 {
			t.Fatalf("filter leaked row %v", r)
		}
	}
	if len(rows) == 0 {
		t.Error("no rows survived")
	}
}

func TestHashJoinQueryWithProgress(t *testing.T) {
	e := testEngine(t)
	j := HashJoin(e.MustScan("r"), e.MustScan("s"), Col("r", "k"), Col("s", "k"))
	q := e.MustCompile(j)
	var reports []Report
	n, err := q.Run(nil, WithProgress(func(r Report) { reports = append(reports, r) }, 500))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("join produced nothing")
	}
	if len(reports) < 5 {
		t.Fatalf("only %d progress reports", len(reports))
	}
	last := reports[len(reports)-1]
	if math.Abs(last.Progress-1) > 1e-9 {
		t.Errorf("final progress = %g", last.Progress)
	}
	if len(last.Pipelines) != 2 {
		t.Errorf("pipelines = %d", len(last.Pipelines))
	}
	// The join estimate must have converged to the exact size during the
	// probe pass.
	oe, _ := q.EstimateOf("")
	est, src := oe.Estimate, oe.Source
	if est != float64(n) {
		t.Errorf("estimate %g != rows %d", est, n)
	}
	if src != "once-exact" {
		t.Errorf("source = %q", src)
	}
}

func TestGroupByQuery(t *testing.T) {
	e := testEngine(t)
	g, err := GroupBy(e.MustScan("r"), []Ref{Col("r", "k")},
		Agg{Func: CountStar, As: "cnt"},
		Agg{Func: Sum, Col: Col("r", "rowid"), As: "s"},
	)
	if err != nil {
		t.Fatal(err)
	}
	q := e.MustCompile(g)
	rows, err := q.Rows()
	if err != nil {
		t.Fatal(err)
	}
	var totalCnt int64
	for _, r := range rows {
		totalCnt += r[1].(int64)
	}
	if totalCnt != 3000 {
		t.Errorf("counts sum to %d, want 3000", totalCnt)
	}
	cols := q.Columns()
	if len(cols) != 3 || cols[1] != "cnt" {
		t.Errorf("columns = %v", cols)
	}
}

func TestSortMergeJoinQuery(t *testing.T) {
	e := testEngine(t)
	hj := HashJoin(e.MustScan("r"), e.MustScan("s"), Col("r", "k"), Col("s", "k"))
	qh := e.MustCompile(hj)
	nh, err := qh.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	mj := SortMergeJoin(e.MustScan("r"), e.MustScan("s"), Col("r", "k"), Col("s", "k"))
	qm := e.MustCompile(mj)
	nm, err := qm.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if nh != nm {
		t.Errorf("hash join %d rows vs sort-merge %d", nh, nm)
	}
}

func TestIndexedNLJoinQuery(t *testing.T) {
	e := testEngine(t)
	j := IndexedNLJoin(e.MustScan("r"), e.MustScan("s"), Col("r", "k"), Col("s", "k"))
	q := e.MustCompile(j)
	n, err := q.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	hj := HashJoin(e.MustScan("s"), e.MustScan("r"), Col("s", "k"), Col("r", "k"))
	n2, err := e.MustCompile(hj).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != n2 {
		t.Errorf("NL join %d vs hash join %d", n, n2)
	}
}

func TestCompileModesAndSampling(t *testing.T) {
	e := testEngine(t)
	for _, mode := range []EstimatorMode{Once, DNE, Byte} {
		j := HashJoin(e.MustScan("r"), e.MustScan("s"), Col("r", "k"), Col("s", "k"))
		q, err := e.Compile(j, WithMode(mode), WithSampling(0.1, 7))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.Run(nil); err != nil {
			t.Fatal(err)
		}
		if p := q.Progress(); math.Abs(p-1) > 1e-9 {
			t.Errorf("mode %d: final progress %g", mode, p)
		}
	}
	for _, f := range []float64{3, math.NaN()} {
		j := HashJoin(e.MustScan("r"), e.MustScan("s"), Col("r", "k"), Col("s", "k"))
		if _, err := e.Compile(j, WithSampling(f, 1)); err == nil {
			t.Errorf("sampling fraction %g accepted", f)
		}
	}
}

func TestWithoutEstimators(t *testing.T) {
	e := testEngine(t)
	j := HashJoin(e.MustScan("r"), e.MustScan("s"), Col("r", "k"), Col("s", "k"))
	q := e.MustCompile(j, WithoutEstimators())
	if q.att != nil {
		t.Error("estimators attached despite WithoutEstimators")
	}
	if _, err := q.Run(nil); err != nil {
		t.Fatal(err)
	}
}

func TestExplainContainsOperators(t *testing.T) {
	e := testEngine(t)
	j := HashJoin(e.MustScan("r"), e.MustScan("s"), Col("r", "k"), Col("s", "k"))
	q := e.MustCompile(MustGroupBy(j, nil, Agg{Func: CountStar, As: "n"}))
	out := q.Explain()
	if !strings.Contains(out, "HashJoin") || !strings.Contains(out, "Scan(r)") {
		t.Errorf("Explain = %q", out)
	}
	// COUNT(*) reads no column of the join, which keeps one.
	if !regexp.MustCompile(`HashJoin\(r\.k = s\.k\)  \(est=\d+ cols=1 `).MatchString(out) {
		t.Errorf("Explain shows no one-column join: %q", out)
	}
}

func TestLoadTPCH(t *testing.T) {
	e := New()
	e.MustLoadTPCH(TPCHConfig{SF: 0.005, Seed: 1, Tables: []string{"orders", "customer"}})
	names := e.Tables()
	if len(names) != 2 {
		t.Fatalf("tables = %v", names)
	}
	rows, err := e.TableRows("orders")
	if err != nil || rows != 7500 {
		t.Errorf("orders rows = %d, %v", rows, err)
	}
	if _, err := e.TableRows("nope"); err == nil {
		t.Error("missing table should error")
	}
	if err := e.LoadTPCH(TPCHConfig{SF: -1}); err == nil {
		t.Error("bad SF accepted")
	}
}

func TestErrorPaths(t *testing.T) {
	e := New()
	if _, err := e.Scan("missing", ""); err != nil {
		// expected
	} else {
		t.Error("scan of missing table should fail")
	}
	if _, err := e.Compile(nil); err == nil {
		t.Error("nil plan accepted")
	}
	e2 := testEngine(t)
	n := e2.MustScan("r")
	if _, err := n.Filter(Eq(Col("r", "nope"), 1)); err == nil {
		t.Error("filter on missing column accepted")
	}
	if _, err := n.Project(Col("r", "nope")); err == nil {
		t.Error("project of missing column accepted")
	}
	if _, err := GroupBy(n, []Ref{Col("r", "nope")}); err == nil {
		t.Error("group by missing column accepted")
	}
	if _, err := GroupBy(n, []Ref{Col("r", "k")}, Agg{Func: "median", Col: Col("r", "k")}); err == nil {
		t.Error("unknown aggregate accepted")
	}
}

func TestPipelineChainThroughPublicAPI(t *testing.T) {
	// Three-way chain through the builder: estimates for both joins
	// converge during the bottom probe pass.
	e := New()
	e.MustCreateSkewedTable("a", 1000, 1, SkewedColumn{Name: "x", Domain: 50, Zipf: 1, PermSeed: 1})
	e.MustCreateSkewedTable("b", 1000, 2, SkewedColumn{Name: "x", Domain: 50, Zipf: 1, PermSeed: 2})
	e.MustCreateSkewedTable("c", 1000, 3, SkewedColumn{Name: "x", Domain: 50, Zipf: 1, PermSeed: 3})
	lower := HashJoin(e.MustScan("b"), e.MustScan("c"), Col("b", "x"), Col("c", "x"))
	upper := HashJoin(e.MustScan("a"), lower, Col("a", "x"), Col("c", "x"))
	q := e.MustCompile(upper)
	n, err := q.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	oe, _ := q.EstimateOf("")
	est, src := oe.Estimate, oe.Source
	if est != float64(n) || src != "once-exact" {
		t.Errorf("top join estimate %g (%s), want exact %d", est, src, n)
	}
}

func TestProjectAndLimit(t *testing.T) {
	e := testEngine(t)
	n, err := e.MustScan("r").Project(Col("r", "k"))
	if err != nil {
		t.Fatal(err)
	}
	q := e.MustCompile(n.Limit(7))
	rows, err := q.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 || len(rows[0]) != 1 {
		t.Errorf("rows = %v", rows)
	}
}

func TestCondCombinators(t *testing.T) {
	e := testEngine(t)
	n := e.MustScan("r")
	and, err := n.Filter(And(Ge(Col("r", "k"), 10), Le(Col("r", "k"), 20)))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := e.MustCompile(and).Rows()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		k := r[1].(int64)
		if k < 10 || k > 20 {
			t.Fatalf("AND filter leaked %d", k)
		}
	}
	or, err := n.Filter(Or(Eq(Col("r", "k"), 1), Eq(Col("r", "k"), 2)))
	if err != nil {
		t.Fatal(err)
	}
	rows, err = e.MustCompile(or).Rows()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		k := r[1].(int64)
		if k != 1 && k != 2 {
			t.Fatalf("OR filter leaked %d", k)
		}
	}
	colEq, err := n.Filter(ColEq(Col("r", "k"), Col("r", "k")))
	if err != nil {
		t.Fatal(err)
	}
	rows, err = e.MustCompile(colEq).Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3000 {
		t.Errorf("k = k should keep all rows, got %d", len(rows))
	}
}

func TestDashboard(t *testing.T) {
	e := testEngine(t)
	d := NewDashboard()
	q1 := e.MustCompile(HashJoin(e.MustScan("r"), e.MustScan("s"), Col("r", "k"), Col("s", "k")))
	q2 := e.MustCompile(MustGroupBy(e.MustScan("r"), []Ref{Col("r", "k")}, Agg{Func: CountStar, As: "c"}))
	if err := d.Register("join", q1); err != nil {
		t.Fatal(err)
	}
	if err := d.Register("agg", q2); err != nil {
		t.Fatal(err)
	}
	if err := d.Register("join", q1); err == nil {
		t.Error("duplicate label accepted")
	}
	if d.Overall() != 0 {
		t.Errorf("initial overall = %g", d.Overall())
	}
	if _, err := q1.Run(nil); err != nil {
		t.Fatal(err)
	}
	mid := d.Overall()
	if mid <= 0 || mid >= 1 {
		t.Errorf("overall after one query = %g", mid)
	}
	if _, err := q2.Run(nil); err != nil {
		t.Fatal(err)
	}
	if got := d.Overall(); math.Abs(got-1) > 1e-9 {
		t.Errorf("final overall = %g", got)
	}
	snap := d.Snapshot()
	if len(snap) != 2 || !snap[0].Done || !snap[1].Done {
		t.Fatalf("snapshot = %+v", snap)
	}
	if !strings.Contains(d.String(), "join") {
		t.Error("dashboard render missing label")
	}
	d.Unregister("join")
	if len(d.Snapshot()) != 1 {
		t.Error("unregister failed")
	}
}

func TestWithMemoryBudget(t *testing.T) {
	e := testEngine(t)
	mk := func(opts ...CompileOption) int64 {
		q := e.MustQuery("SELECT r.k FROM r JOIN s ON r.k = s.k ORDER BY k", opts...)
		n, err := q.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if p := q.Progress(); math.Abs(p-1) > 1e-9 {
			t.Errorf("final progress %g", p)
		}
		return n
	}
	mem := mk()
	spill := mk(WithMemoryBudget(8 * 1024))
	if mem != spill {
		t.Errorf("in-memory %d rows vs budgeted %d", mem, spill)
	}
	// The estimator must still converge exactly under spilling.
	q := e.MustQuery("SELECT r.k FROM r JOIN s ON r.k = s.k", WithMemoryBudget(8*1024))
	n, err := q.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, est := range q.Estimates() {
		if strings.HasPrefix(est.Operator, "HashJoin") {
			if est.Source != "once-exact" || est.Estimate != float64(n) {
				t.Errorf("budgeted join estimate %+v, want exact %d", est, n)
			}
		}
	}
}

func TestStartBackgroundQuery(t *testing.T) {
	e := New()
	e.MustCreateSkewedTable("r", 30000, 1, SkewedColumn{Name: "k", Domain: 500, Zipf: 1, PermSeed: 1})
	e.MustCreateSkewedTable("s", 40000, 2, SkewedColumn{Name: "k", Domain: 500, Zipf: 1, PermSeed: 2})
	q := e.MustQuery("SELECT r.k FROM r JOIN s ON r.k = s.k")
	running, err := q.Start(nil, WithInterval(2000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Start(nil, WithInterval(1)); err == nil {
		t.Error("second Start accepted")
	}
	// Poll from this (foreign) goroutine while the query runs.
	sawPartial := false
	for {
		select {
		case <-running.Done():
			goto done
		default:
		}
		if p := running.Progress(); p > 0 && p < 1 {
			sawPartial = true
		}
	}
done:
	n, err := running.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no rows")
	}
	if got := running.Report().Progress; math.Abs(got-1) > 1e-9 {
		t.Errorf("final progress = %g", got)
	}
	_ = sawPartial // timing-dependent; asserting would flake on fast machines
}

func TestDriftReport(t *testing.T) {
	e := New()
	// Heavily skewed misaligned join: the optimizer's uniform estimate is
	// far off; after execution the once estimates expose the drift.
	e.MustCreateSkewedTable("r", 20000, 1, SkewedColumn{Name: "k", Domain: 2000, Zipf: 2, PermSeed: 3})
	e.MustCreateSkewedTable("s", 20000, 2, SkewedColumn{Name: "k", Domain: 2000, Zipf: 2, PermSeed: 99})
	q := e.MustQuery("SELECT r.k FROM r JOIN s ON r.k = s.k")
	if got := q.DriftReport(1.5); len(got) != 0 {
		t.Errorf("drift before execution = %v", got)
	}
	if _, err := q.Run(nil); err != nil {
		t.Fatal(err)
	}
	drifts := q.DriftReport(1.5)
	if len(drifts) == 0 {
		t.Fatal("expected drift on a misestimated skewed join")
	}
	for i := 1; i < len(drifts); i++ {
		if drifts[i].Factor > drifts[i-1].Factor {
			t.Fatal("drift report not sorted")
		}
	}
	if drifts[0].Factor < 1.5 {
		t.Errorf("top drift factor %g below threshold", drifts[0].Factor)
	}
	// A huge threshold filters everything.
	if got := q.DriftReport(1e12); len(got) != 0 {
		t.Errorf("drift at 1e12 threshold = %v", got)
	}
}

func TestRunningETA(t *testing.T) {
	e := New()
	e.MustCreateSkewedTable("r", 40000, 1, SkewedColumn{Name: "k", Domain: 400, Zipf: 1, PermSeed: 1})
	e.MustCreateSkewedTable("s", 40000, 2, SkewedColumn{Name: "k", Domain: 400, Zipf: 1, PermSeed: 2})
	q := e.MustQuery("SELECT r.k FROM r JOIN s ON r.k = s.k")
	running, err := q.Start(nil, WithInterval(1000))
	if err != nil {
		t.Fatal(err)
	}
	sawETA := false
	for {
		select {
		case <-running.Done():
			goto done
		default:
		}
		if eta, ok := running.ETA(); ok && eta >= 0 {
			sawETA = true
		}
	}
done:
	if _, err := running.Wait(); err != nil {
		t.Fatal(err)
	}
	eta, ok := running.ETA()
	if !ok || eta != 0 {
		t.Errorf("finished ETA = %v, %v; want 0, true", eta, ok)
	}
	_ = sawETA // timing-dependent on fast machines
}

package qpi

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"qpi/internal/core"
	"qpi/internal/exec"
	"qpi/internal/plan"
	"qpi/internal/sql"
)

// The pruning matrix. Engine.Compile narrows every scan to the columns
// the plan reads (exec.Prune); the hand-wired route the repository
// benchmark times never does: planned by internal/sql or built by hand,
// estimated, attached and drained, as Compile does minus the pass. Every case runs both and requires the same rows, the same
// labels and output columns, the same optimizer beliefs before the run
// and the same final estimate on every operator, bit for bit, in the Once
// and Robust modes.

// pruneCase is one query of the matrix: SQL, or a plan built with the
// public builder.
type pruneCase struct {
	name  string
	sql   string
	build func(e *Engine) *Node
	opts  []CompileOption
	// narrows says the query reads fewer columns than its scans hold.
	narrows bool
	// oracle, when set, is the query's result computed without the engine.
	oracle []string
}

// routeOutcome is what one route produced.
type routeOutcome struct {
	labels, cols, before, after, rows []string
	scanWidth                         int
}

// opStats renders every operator's optimizer belief in pre-order: its
// estimate and the hints the optimizer leaves beside it.
func opStats(root exec.Operator) []string {
	var out []string
	exec.Walk(root, func(op exec.Operator) {
		st := op.Stats()
		out = append(out, fmt.Sprintf("%v %s groups=%v keys=%v", st.Estimate(), st.Source(), st.GroupsHint, st.BuildKeysHint))
	})
	return out
}

// finalLine renders one operator's final estimate as Query.Estimates
// reports it.
func finalLine(emitted int64, est float64, src string, done bool) string {
	return fmt.Sprintf("emitted=%d estimate=%v src=%s done=%v", emitted, est, src, done)
}

func scanWidth(root exec.Operator) int {
	n := 0
	exec.Walk(root, func(op exec.Operator) {
		if sc, ok := op.(*exec.Scan); ok {
			n += sc.Schema().Len()
		}
	})
	return n
}

func opLabels(root exec.Operator) []string {
	var out []string
	exec.Walk(root, func(op exec.Operator) { out = append(out, op.Name()) })
	return out
}

func sortedRows(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r...)
	}
	sort.Strings(out)
	return out
}

// publicRoute compiles and runs the case the way users do.
func publicRoute(t *testing.T, e *Engine, c pruneCase, opts []CompileOption) routeOutcome {
	t.Helper()
	var q *Query
	var err error
	if c.sql != "" {
		q, err = e.Query(c.sql, opts...)
		if err == nil {
			var p *Prepared
			if p, err = e.Prepare(c.sql); err == nil && !slices.Equal(p.Columns(), q.Columns()) {
				t.Errorf("%s: prepared columns %v, compiled %v", c.name, p.Columns(), q.Columns())
			}
		}
	} else {
		q, err = e.Compile(c.build(e), opts...)
	}
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	o := routeOutcome{labels: opLabels(q.root), cols: q.Columns(), before: opStats(q.root), scanWidth: scanWidth(q.root)}
	rows, err := q.Rows()
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	o.rows = sortedRows(rows)
	for _, est := range q.Estimates() {
		o.after = append(o.after, finalLine(est.Emitted, est.Estimate, est.Source, est.Done))
	}
	return o
}

// handRoute runs the case unpruned, wired from the internal packages.
func handRoute(t *testing.T, e *Engine, c pruneCase, opts []CompileOption) routeOutcome {
	t.Helper()
	var root exec.Operator
	if c.sql != "" {
		stmt, err := sql.Parse(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if root, err = sql.Plan(stmt, e.cat); err != nil {
			t.Fatal(err)
		}
	} else {
		root = c.build(e).op
	}
	cfg := compileCfg{}
	for _, o := range opts {
		o(&cfg)
	}
	exec.Walk(root, func(op exec.Operator) {
		switch o := op.(type) {
		case *exec.Scan:
			o.SampleFraction, o.Seed = cfg.sampleFraction, cfg.sampleSeed
		case *exec.HashJoin:
			o.SetMemoryBudget(cfg.memBudget)
		case *exec.Sort:
			o.SetMemoryBudget(cfg.memBudget)
		}
	})
	plan.EstimateCardinalities(root, e.cat)
	cols := make([]string, root.Schema().Len())
	for i, col := range root.Schema().Cols {
		cols[i] = col.Qualified()
	}
	o := routeOutcome{labels: opLabels(root), cols: cols, before: opStats(root), scanWidth: scanWidth(root)}
	core.Attach(root)
	if err := root.Open(); err != nil {
		t.Fatal(err)
	}
	tuples, err := exec.Drain(root)
	if err == nil {
		err = root.Close()
	}
	if err != nil {
		t.Fatalf("%s: hand-wired route: %v", c.name, err)
	}
	rows := make([][]any, len(tuples))
	for i, tu := range tuples {
		rows[i] = make([]any, len(tu))
		tupleRow(rows[i], tu)
	}
	o.rows = sortedRows(rows)
	exec.Walk(root, func(op exec.Operator) {
		st := op.Stats()
		o.after = append(o.after, finalLine(st.Emitted.Load(), st.Total(), st.Source(), st.IsDone()))
	})
	return o
}

// checkPruneCase runs one case both ways in both modes.
func checkPruneCase(t *testing.T, e *Engine, c pruneCase) {
	t.Helper()
	for _, mode := range []EstimatorMode{Once, Robust} {
		opts := append(slices.Clone(c.opts), WithMode(mode))
		label := fmt.Sprintf("%s (mode %d)", c.name, mode)
		pub, hand := publicRoute(t, e, c, opts), handRoute(t, e, c, opts)
		if len(pub.rows) == 0 {
			t.Fatalf("%s: no rows", label)
		}
		if c.oracle != nil && !slices.Equal(pub.rows, c.oracle) {
			t.Errorf("%s: %d rows, the oracle's %d differ", label, len(pub.rows), len(c.oracle))
		}
		for _, cmp := range []struct {
			what      string
			pub, hand []string
		}{
			{"rows", pub.rows, hand.rows},
			{"labels", pub.labels, hand.labels},
			{"columns", pub.cols, hand.cols},
			{"optimizer estimates", pub.before, hand.before},
			{"final estimates", pub.after, hand.after},
		} {
			if !slices.Equal(cmp.pub, cmp.hand) {
				t.Errorf("%s: %s differ pruned and unpruned:\n%v\nvs\n%v", label, cmp.what, head(cmp.pub), head(cmp.hand))
			}
		}
		if narrower := pub.scanWidth < hand.scanWidth; narrower != c.narrows {
			t.Errorf("%s: scans emit %d columns pruned, %d unpruned", label, pub.scanWidth, hand.scanWidth)
		}
	}
}

func head(s []string) []string { return s[:min(len(s), 12)] }

func TestPruningMatrix(t *testing.T) {
	e := New()
	e.MustLoadTPCH(TPCHConfig{SF: 0.002, Seed: 3})
	for _, c := range []pruneCase{
		{name: "SELECT *", sql: "SELECT * FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey WHERE l.partkey < 100"},
		{name: "a scan nothing reads", sql: "SELECT n.name FROM nation n, region r", narrows: true},
		{name: "COUNT(*)", sql: "SELECT COUNT(*) c FROM lineitem l WHERE l.suppkey > 3", narrows: true},
		{name: "self-join aliases", narrows: true,
			sql: "SELECT n1.name, n2.regionkey FROM nation n1 JOIN nation n2 ON n1.regionkey = n2.regionkey"},
		{name: "LEFT JOIN", sql: "SELECT c.custkey, o.totalprice FROM customer c LEFT JOIN orders o ON o.custkey = c.custkey", narrows: true},
		{name: "SEMI JOIN", sql: "SELECT c.acctbal FROM customer c SEMI JOIN orders o ON o.custkey = c.custkey", narrows: true},
		{name: "ANTI JOIN", sql: "SELECT o.totalprice FROM orders o ANTI JOIN lineitem l ON l.orderkey = o.orderkey", narrows: true},
		{name: "ORDER BY an unselected column", sql: "SELECT l.partkey FROM lineitem l ORDER BY l.extendedprice DESC LIMIT 40", narrows: true},
		{name: "HAVING and COUNT(col) on unselected columns", narrows: true,
			sql: "SELECT o.custkey, COUNT(o.totalprice) n FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey GROUP BY o.custkey HAVING SUM(l.extendedprice) > 1000 ORDER BY n DESC"},
		{name: "WithSampling", narrows: true, opts: []CompileOption{WithSampling(0.1, 7)},
			sql: "SELECT o.orderdate, l.suppkey FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey JOIN part p ON p.partkey = l.partkey"},
		{name: "WithMemoryBudget", narrows: true, opts: []CompileOption{WithMemoryBudget(32 << 10)},
			sql: "SELECT o.orderkey, l.extendedprice FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey ORDER BY l.extendedprice"},
		{name: "Q8 shape built with the builder", narrows: true, build: func(e *Engine) *Node {
			j := HashJoin(e.MustScan("region"), e.MustScan("nation", "n1"), Col("region", "regionkey"), Col("n1", "regionkey"))
			j = HashJoin(j, e.MustScan("customer"), Col("n1", "nationkey"), Col("customer", "nationkey"))
			j = HashJoin(j, e.MustScan("orders"), Col("customer", "custkey"), Col("orders", "custkey"))
			j = HashJoin(j, e.MustScan("lineitem"), Col("orders", "orderkey"), Col("lineitem", "orderkey"))
			return MustGroupBy(j, []Ref{Col("orders", "orderdate")}, Agg{Func: CountStar, As: "cnt"})
		}},
	} {
		checkPruneCase(t, e, c)
	}
}

// TestPruneNarrowsJoins pins how far Prune narrows the joins of the
// repository benchmark's plans: every join of Figure 8's Q8 shape (the
// skew_pipeline plan) and pkfk_join's PK-FK join. Unpruned they emit 3,
// 5, 8, 3, 11, 14 and 15 columns, and 2.
func TestPruneNarrowsJoins(t *testing.T) {
	e := New()
	e.MustLoadTPCH(TPCHConfig{SF: 0.002, Seed: 3})
	widths := func(q *Query) map[string]int {
		out := map[string]int{}
		exec.Walk(q.root, func(op exec.Operator) {
			if j, ok := op.(*exec.HashJoin); ok {
				out[j.Name()] = j.Schema().Len()
			}
		})
		return out
	}
	q8, err := e.Compile(q8Node(e))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"HashJoin(region.regionkey = n1.regionkey)":     1,
		"HashJoin(n1.nationkey = customer.nationkey)":   1,
		"HashJoin(customer.custkey = orders.custkey)":   2,
		"HashJoin(n2.nationkey = supplier.nationkey)":   1,
		"HashJoin(orders.orderkey = lineitem.orderkey)": 3,
		"HashJoin(supplier.suppkey = lineitem.suppkey)": 2,
		"HashJoin(part.partkey = lineitem.partkey)":     1,
	}
	if got := widths(q8); !reflect.DeepEqual(got, want) {
		t.Errorf("Q8 join widths %v, want %v", got, want)
	}
	pkfk, err := e.Query("SELECT o.orderkey FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey")
	if err != nil {
		t.Fatal(err)
	}
	if got := widths(pkfk); !reflect.DeepEqual(got, map[string]int{"HashJoin(o.orderkey = l.orderkey)": 1}) {
		t.Errorf("pkfk_join join widths %v, want one join of 1", got)
	}
}

// TestPruningMatrixFuzzSeeds runs FuzzQueryModes' seed inputs through the
// matrix, against the same oracles.
func TestPruningMatrixFuzzSeeds(t *testing.T) {
	for _, seed := range []struct {
		seed      int64
		rows, dom int
	}{{3, 80, 10}, {8, 200, 3}} {
		e, tables := fuzzEngine(t, seed.seed, seed.rows, seed.dom)
		for _, c := range []pruneCase{
			{name: "fuzz join", sql: fuzzModesSQL, oracle: joinOracle(tables)},
			{name: "fuzz group", sql: fuzzGroupSQL, oracle: groupOracle(tables)},
			{name: "fuzz join spilling", sql: fuzzModesSQL, oracle: joinOracle(tables), opts: []CompileOption{WithMemoryBudget(128)}},
		} {
			c.name = fmt.Sprintf("%s, seed %d", c.name, seed.seed)
			c.narrows = true
			checkPruneCase(t, e, c)
		}
	}
}

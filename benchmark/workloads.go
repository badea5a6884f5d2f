package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"qpi"
	"qpi/internal/catalog"
	"qpi/internal/data"
	"qpi/internal/exec"
	"qpi/internal/expr"
	"qpi/internal/sql"
	"qpi/internal/storage"
	"qpi/internal/tpch"
	"qpi/internal/vfs"
	"qpi/internal/zipf"
)

// dirFS creates spill files under one directory of the checkout, so the
// benchmark writes nothing outside it.
type dirFS struct{ dir string }

func (d dirFS) CreateTemp(pattern string) (vfs.File, error) { return os.CreateTemp(d.dir, pattern) }
func (d dirFS) Remove(name string) error                    { return os.Remove(name) }

// newSpillFS returns a descriptor-counting filesystem over
// <out>/spill.
func newSpillFS(cfg config) (*vfs.FaultFS, error) {
	dir := filepath.Join(cfg.outDir, "spill")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return vfs.NewFaultFS(dirFS{dir}), nil
}

const pkfkSQL = "SELECT o.orderkey FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey"

// pkfkConfig is the TPC-H slice both PK-FK workloads join.
func pkfkConfig(cfg config) tpch.Config {
	return tpch.Config{SF: 0.01 * cfg.scale, Seed: cfg.seed, Tables: []string{"orders", "lineitem"}}
}

// pkfkEngine loads the slice into a public engine.
func pkfkEngine(tc tpch.Config) (*qpi.Engine, error) {
	eng := qpi.New()
	return eng, eng.LoadTPCH(qpi.TPCHConfig{SF: tc.SF, Seed: tc.Seed, Tables: tc.Tables})
}

// setupPKFKJoin loads orders and lineitem into a public engine and
// prepares the join; the traced run also generates the same tables into
// a catalog for the hand-wired route.
func setupPKFKJoin(cfg config) (*tupleWorkload, error) {
	tc := pkfkConfig(cfg)
	eng, err := pkfkEngine(tc)
	if err != nil {
		return nil, err
	}
	prep, err := eng.Prepare(pkfkSQL)
	if err != nil {
		return nil, err
	}
	orders, _ := eng.TableRows("orders")
	lineitem, _ := eng.TableRows("lineitem")
	fs, err := newSpillFS(cfg)
	if err != nil {
		return nil, err
	}
	w := &tupleWorkload{
		name:      "pkfk_join",
		inputRows: int64(orders + lineitem),
		// Every lineitem row references an existing order.
		wantRows: int64(lineitem),
		newQuery: prep.NewQuery,
		monotone: true,
		spillFS:  fs,
	}
	if cfg.trace {
		if w.cat, err = tpch.Generate(tc); err != nil {
			return nil, err
		}
		w.handRoot = func(tl *traceLog, root int) (exec.Operator, error) {
			t := time.Now()
			stmt, err := sql.Parse(pkfkSQL)
			if err != nil {
				return nil, err
			}
			t = tl.lap(root, "sql", "parse", t)
			op, err := sql.Plan(stmt, w.cat)
			tl.lap(root, "sql", "plan", t)
			return op, err
		}
	}
	return w, nil
}

func runPKFKJoin(cfg config) (*report, error) {
	return runTuple(cfg, func() (*tupleWorkload, error) { return setupPKFKJoin(cfg) })
}

// column copies one integer column out of a table.
func column(t *storage.Table, name string) []int64 {
	idx := t.Schema().MustResolve(t.Name(), name)
	out := make([]int64, 0, t.NumRows())
	for _, tu := range t.Rows() {
		out = append(out, tu[idx].I)
	}
	return out
}

// hotRange returns a key range of the given half-width centred on the
// most frequent of the values. Under Zipf(2) that range holds most of
// the referencing rows while the optimizer, assuming uniform keys, takes
// it for a narrow slice: the engineered underestimate of the paper's
// Figure 8.
func hotRange(values []int64, halfWidth int) (lo, hi int64) {
	counts := map[int64]int64{}
	for _, v := range values {
		counts[v]++
	}
	var hot, best int64
	for v, c := range counts {
		if c > best || (c == best && v < hot) {
			hot, best = v, c
		}
	}
	if halfWidth < 1 {
		halfWidth = 1
	}
	return hot - int64(halfWidth), hot + int64(halfWidth)
}

// loadPublic copies a generated table into a public engine with
// CreateTable and Insert, the way a user loads their own data, and
// analyzes it unless it is to stay un-ANALYZEd.
func loadPublic(eng *qpi.Engine, t *storage.Table, analyze bool) error {
	var cols []qpi.ColumnDef
	for _, c := range t.Schema().Cols {
		typ := "int"
		switch c.Kind {
		case data.KindFloat:
			typ = "float"
		case data.KindString:
			typ = "string"
		}
		cols = append(cols, qpi.ColumnDef{Name: c.Name, Type: typ})
	}
	pt, err := eng.CreateTable(t.Name(), cols...)
	if err != nil {
		return err
	}
	row := make([]any, len(cols))
	it := t.SequentialOrder()
	for tu := it.Next(); tu != nil; tu = it.Next() {
		for i, v := range tu {
			switch v.Kind {
			case data.KindInt:
				row[i] = v.I
			case data.KindFloat:
				row[i] = v.F
			case data.KindString:
				row[i] = v.S
			default:
				row[i] = nil
			}
		}
		if err := pt.Insert(row...); err != nil {
			return err
		}
	}
	if analyze {
		return eng.Analyze(t.Name())
	}
	return nil
}

// q8Public builds the Figure 8 plan (TPC-H Q8's shape) with the public
// builder API: region ⋈ nation ⋈ σcustomer ⋈ orders and nation ⋈
// supplier feed, with σpart, three hash joins probing lineitem, under a
// GROUP BY orderdate.
func q8Public(eng *qpi.Engine, f q8Filters) *qpi.Node {
	col := qpi.Col
	region := eng.MustScan("region")
	n1 := eng.MustScan("nation", "n1")
	customer := eng.MustScan("customer").MustFilter(qpi.And(
		qpi.Ge(col("customer", "custkey"), f.custLo), qpi.Le(col("customer", "custkey"), f.custHi)))
	orders := eng.MustScan("orders")
	n2 := eng.MustScan("nation", "n2")
	supplier := eng.MustScan("supplier")
	part := eng.MustScan("part").MustFilter(qpi.And(
		qpi.Ge(col("part", "partkey"), f.partLo), qpi.Le(col("part", "partkey"), f.partHi)))
	lineitem := eng.MustScan("lineitem")

	jRN := qpi.HashJoin(region, n1, col("region", "regionkey"), col("n1", "regionkey"))
	jRNC := qpi.HashJoin(jRN, customer, col("n1", "nationkey"), col("customer", "nationkey"))
	ordersSub := qpi.HashJoin(jRNC, orders, col("customer", "custkey"), col("orders", "custkey"))
	supplierSub := qpi.HashJoin(n2, supplier, col("n2", "nationkey"), col("supplier", "nationkey"))
	j3 := qpi.HashJoin(ordersSub, lineitem, col("orders", "orderkey"), col("lineitem", "orderkey"))
	j2 := qpi.HashJoin(supplierSub, j3, col("supplier", "suppkey"), col("lineitem", "suppkey"))
	j1 := qpi.HashJoin(part, j2, col("part", "partkey"), col("lineitem", "partkey"))
	return qpi.MustGroupBy(j1, []qpi.Ref{col("orders", "orderdate")}, qpi.Agg{Func: qpi.CountStar, As: "cnt"})
}

// q8Exec builds the same plan from the internal operators, for the
// hand-wired route.
func q8Exec(cat *catalog.Catalog, f q8Filters) exec.Operator {
	scan := func(table, alias string) *exec.Scan { return exec.NewScan(cat.MustLookup(table).Table, alias) }
	between := func(in exec.Operator, table, name string, lo, hi int64) exec.Operator {
		c := expr.Column(in.Schema(), table, name)
		return exec.NewFilter(in, expr.AndOf(
			expr.Compare(expr.GE, c, expr.IntLit(lo)), expr.Compare(expr.LE, c, expr.IntLit(hi))))
	}
	join := func(build, probe exec.Operator, bt, bc, pt, pc string) *exec.HashJoin {
		return exec.NewHashJoin(build, probe, build.Schema().MustResolve(bt, bc), probe.Schema().MustResolve(pt, pc))
	}
	customer := between(scan("customer", ""), "customer", "custkey", f.custLo, f.custHi)
	part := between(scan("part", ""), "part", "partkey", f.partLo, f.partHi)

	jRN := join(scan("region", ""), scan("nation", "n1"), "region", "regionkey", "n1", "regionkey")
	jRNC := join(jRN, customer, "n1", "nationkey", "customer", "nationkey")
	ordersSub := join(jRNC, scan("orders", ""), "customer", "custkey", "orders", "custkey")
	supplierSub := join(scan("nation", "n2"), scan("supplier", ""), "n2", "nationkey", "supplier", "nationkey")
	j3 := join(ordersSub, scan("lineitem", ""), "orders", "orderkey", "lineitem", "orderkey")
	j2 := join(supplierSub, j3, "supplier", "suppkey", "lineitem", "suppkey")
	j1 := join(part, j2, "part", "partkey", "lineitem", "partkey")
	return exec.NewHashAgg(j1, []int{j1.Schema().MustResolve("orders", "orderdate")},
		[]exec.AggSpec{{Func: exec.CountStar, Name: "cnt"}})
}

// q8Filters are skew_pipeline's two hot-key range filters.
type q8Filters struct{ custLo, custHi, partLo, partHi int64 }

// skewKeys are the key columns that decide how much work skew_pipeline
// does: one orders row per entry of orderKey and custKey, one lineitem
// row per entry of lineOrder and linePart.
type skewKeys struct {
	orderKey, custKey   []int64
	lineOrder, linePart []int64
	customers, parts    int
}

// shares places the two filters and returns the shares of lineitem that
// reach the first and the last join of the main pipeline: rows whose
// order survives the customer filter, and of those the rows whose part
// survives the part filter.
func (k skewKeys) shares() (f q8Filters, covered, kept float64) {
	f.custLo, f.custHi = hotRange(k.custKey, k.customers/25)
	f.partLo, f.partHi = hotRange(k.linePart, k.parts/25)
	selected := map[int64]bool{}
	for i, c := range k.custKey {
		if c >= f.custLo && c <= f.custHi {
			selected[k.orderKey[i]] = true
		}
	}
	for i, o := range k.lineOrder {
		if selected[o] {
			covered++
			if p := k.linePart[i]; p >= f.partLo && p <= f.partHi {
				kept++
			}
		}
	}
	n := float64(len(k.lineOrder))
	return f, covered / n, kept / n
}

// screenKeys draws the key columns alone, the way internal/tpch draws
// them (a Zipf generator per foreign key, seeded from the generation
// seed and the column's salt), which takes a fortieth of generating the
// tables. skewedTPCH checks the real tables against the same band, so a
// change to the generator cannot go unnoticed.
func screenKeys(sf float64, seed int64) skewKeys {
	scaled := func(base int) int { return max(1, int(float64(base)*sf)) }
	fk := func(n, rows int, salt int64) []int64 {
		return zipf.MustNew(n, 2, seed+salt, seed+salt*31).Draw(rows, nil)
	}
	k := skewKeys{customers: scaled(tpch.CustomerBase), parts: scaled(tpch.PartBase)}
	orders, lines := scaled(tpch.OrdersBase), scaled(tpch.LineitemBase)
	k.custKey = fk(k.customers, orders, 17)
	k.lineOrder = fk(orders, lines, 19)
	k.linePart = fk(k.parts, lines, 23)
	k.orderKey = make([]int64, orders)
	for i := range k.orderKey {
		k.orderKey[i] = int64(i + 1)
	}
	return k
}

// skewedTPCH generates the skew_pipeline tables and their filters.
// Under Zipf(2) a handful of keys hold most rows, so how much of
// lineitem the main pipeline carries swings from one generation seed to
// the next: almost none when the hottest order's customer misses the
// customer filter, and 70% to 98% when it does not. The workload is
// defined by those shares, not left to the draw: generation seeds are
// derived from the seed and tried in turn until the orders that survive
// the customer filter cover 94-96.5% of lineitem and the part filter
// keeps 57.2-59.8% of it, which holds the work per query within a few
// percent across seeds. About one generation seed in sixteen qualifies.
func skewedTPCH(cfg config) (*catalog.Catalog, q8Filters, error) {
	const tries = 256
	inBand := func(covered, kept float64) bool {
		return covered >= 0.94 && covered <= 0.965 && kept >= 0.572 && kept <= 0.598
	}
	tc := tpch.Config{SF: 0.004 * cfg.scale, Skew: 2}
	for i := int64(0); i < tries; i++ {
		tc.Seed = cfg.seed*tries + i
		if _, covered, kept := screenKeys(tc.SF, tc.Seed).shares(); !inBand(covered, kept) {
			continue
		}
		cat, err := tpch.Generate(tc)
		if err != nil {
			return nil, q8Filters{}, err
		}
		orders, lineitem := cat.MustLookup("orders").Table, cat.MustLookup("lineitem").Table
		f, covered, kept := skewKeys{
			orderKey: column(orders, "orderkey"), custKey: column(orders, "custkey"),
			lineOrder: column(lineitem, "orderkey"), linePart: column(lineitem, "partkey"),
			customers: cat.MustLookup("customer").Table.NumRows(), parts: cat.MustLookup("part").Table.NumRows(),
		}.shares()
		if !inBand(covered, kept) {
			return nil, q8Filters{}, fmt.Errorf("skew_pipeline: the key columns drawn for screening are not the generator's (seed %d: %.3f and %.3f of lineitem)", tc.Seed, covered, kept)
		}
		return cat, f, nil
	}
	return nil, q8Filters{}, fmt.Errorf("skew_pipeline: none of %d generation seeds gave the defined shares at seed %d", tries, cfg.seed)
}

// setupSkewPipeline generates skewed TPC-H, loads it into a public
// engine leaving lineitem un-ANALYZEd, and finds the hot-key filters.
func setupSkewPipeline(cfg config) (*tupleWorkload, error) {
	cat, filters, err := skewedTPCH(cfg)
	if err != nil {
		return nil, err
	}
	eng := qpi.New()
	var inputRows int64
	for _, name := range cat.Names() {
		t := cat.MustLookup(name).Table
		if err := loadPublic(eng, t, name != "lineitem"); err != nil {
			return nil, err
		}
		inputRows += int64(t.NumRows())
	}
	// nation is scanned twice.
	inputRows += int64(cat.MustLookup("nation").Table.NumRows())
	// The hand-wired route's catalog forgets lineitem's statistics too.
	cat.MustLookup("lineitem").Stats.Columns = map[string]*catalog.ColumnStats{}

	fs, err := newSpillFS(cfg)
	if err != nil {
		return nil, err
	}
	w := &tupleWorkload{
		name:      "skew_pipeline",
		inputRows: inputRows,
		newQuery: func(opts ...qpi.CompileOption) (*qpi.Query, error) {
			return eng.Compile(q8Public(eng, filters), opts...)
		},
		cat: cat,
		handRoot: func(*traceLog, int) (exec.Operator, error) {
			return q8Exec(cat, filters), nil
		},
		minDrift: 10,
		spillFS:  fs,
	}
	// The reference row count comes from one run without estimators.
	q, err := w.newQuery(qpi.WithoutEstimators())
	if err != nil {
		return nil, err
	}
	if w.wantRows, err = q.Run(nil); err != nil {
		return nil, err
	}
	if w.wantRows == 0 {
		return nil, fmt.Errorf("skew_pipeline: the plan returns no rows at seed %d", cfg.seed)
	}
	return w, nil
}

func runSkewPipeline(cfg config) (*report, error) {
	return runTuple(cfg, func() (*tupleWorkload, error) { return setupSkewPipeline(cfg) })
}

package experiments

import (
	"fmt"
	"time"

	"qpi/internal/catalog"
	"qpi/internal/core"
	"qpi/internal/distinct"
	"qpi/internal/exec"
	"qpi/internal/plan"
	"qpi/internal/tpch"
)

// Table4 reproduces Table 4: (a) the runtime overhead of push-down
// estimation on two-join pipelines over copies of the orders relation
// with duplicated key columns — Case 1 (upper join key from the lower
// probe input) and Case 2 (from the lower build input, requiring the
// derived histogram); and (b) the overhead the GEE and MLE estimators add
// to a GROUP BY custkey over orders, across scale factors.
func Table4(cfg Config) ([]*Table, error) {
	a, err := table4Pipelines(cfg)
	if err != nil {
		return nil, err
	}
	b, err := table4Aggregation(cfg)
	if err != nil {
		return nil, err
	}
	return []*Table{a, b}, nil
}

func table4Pipelines(cfg Config) (*Table, error) {
	t := &Table{
		Title:   "Table 4 (a): pipeline estimation overhead (two-join chains, 10% samples)",
		Headers: []string{"SF", "case", "baseline", "with estimation", "overhead"},
	}
	for _, sf := range []float64{cfg.SF, cfg.SF * 2} {
		rows := int(float64(tpch.OrdersBase) * sf)
		for _, kase := range []int{1, 2} {
			kase := kase
			base, err := bestOf(3, func() (time.Duration, error) {
				return timePipeline(cfg, rows, kase, false)
			})
			if err != nil {
				return nil, err
			}
			est, err := bestOf(3, func() (time.Duration, error) {
				return timePipeline(cfg, rows, kase, true)
			})
			if err != nil {
				return nil, err
			}
			ovh := 100 * (est.Seconds() - base.Seconds()) / base.Seconds()
			t.AddRow(fmt.Sprintf("%.3g", sf), fmt.Sprintf("Case %d", kase),
				fmtDur(base), fmtDur(est), fmt.Sprintf("%+.1f%%", ovh))
		}
	}
	return t, nil
}

// timePipeline builds a two-join chain over three copies of an
// orders-like relation with duplicated key columns (k1, k2) and times its
// execution. kase selects whether the upper join keys off the lower probe
// (1) or lower build (2) relation.
func timePipeline(cfg Config, rows, kase int, estimate bool) (time.Duration, error) {
	domain := rows / 4
	if domain < 10 {
		domain = 10
	}
	mk := func(name string, seed int64) (*catalog.Entry, error) {
		tb, err := tpch.SkewedTable(name, rows, seed,
			tpch.ColumnSpec{Name: "k1", Domain: domain, Z: 0, PermSeed: seed + 1},
			tpch.ColumnSpec{Name: "k2", Domain: domain, Z: 0, PermSeed: seed + 2},
		)
		if err != nil {
			return nil, err
		}
		c := catalog.New()
		return c.Register(tb), nil
	}
	cat := catalog.New()
	var tables [3]*catalog.Entry
	for i, name := range []string{"oa", "ob", "oc"} {
		e, err := mk(name, cfg.Seed+int64(i)*17)
		if err != nil {
			return 0, err
		}
		cat.Register(e.Table)
		tables[i] = e
	}
	a := exec.NewScan(tables[0].Table, "")
	b := exec.NewScan(tables[1].Table, "")
	c := exec.NewScan(tables[2].Table, "")
	if estimate {
		for i, sc := range []*exec.Scan{a, b, c} {
			sc.SampleFraction = cfg.SampleFraction
			sc.Seed = cfg.Seed + int64(i)
		}
	}
	lower := exec.NewHashJoin(b, c,
		b.Schema().MustResolve("ob", "k1"), c.Schema().MustResolve("oc", "k1"))
	var probeKey int
	if kase == 1 {
		probeKey = lower.Schema().MustResolve("oc", "k2")
	} else {
		probeKey = lower.Schema().MustResolve("ob", "k2")
	}
	top := exec.NewHashJoin(a, lower, a.Schema().MustResolve("oa", "k2"), probeKey)
	plan.EstimateCardinalities(top, cat)
	if estimate {
		core.Attach(top)
	}
	start := time.Now()
	if _, err := exec.Run(top); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

func table4Aggregation(cfg Config) (*Table, error) {
	t := &Table{
		Title:   "Table 4 (b): aggregation estimation overhead (GROUP BY custkey on orders, 10% samples)",
		Headers: []string{"SF", "baseline", "GEE", "MLE", "ovh GEE", "ovh MLE"},
	}
	for _, sf := range []float64{cfg.SF / 2, cfg.SF, cfg.SF * 2} {
		cat, err := tpch.Generate(tpch.Config{
			SF: sf, Seed: cfg.Seed, Tables: []string{"orders"},
		})
		if err != nil {
			return nil, err
		}
		base, err := bestOf(5, func() (time.Duration, error) { return timeAgg(cfg, cat, "none") })
		if err != nil {
			return nil, err
		}
		gee, err := bestOf(5, func() (time.Duration, error) { return timeAgg(cfg, cat, "gee") })
		if err != nil {
			return nil, err
		}
		mle, err := bestOf(5, func() (time.Duration, error) { return timeAgg(cfg, cat, "mle") })
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.3g", sf), fmtDur(base), fmtDur(gee), fmtDur(mle),
			fmt.Sprintf("%+.1f%%", 100*(gee.Seconds()-base.Seconds())/base.Seconds()),
			fmt.Sprintf("%+.1f%%", 100*(mle.Seconds()-base.Seconds())/base.Seconds()))
	}
	return t, nil
}

// timeAgg times GROUP BY custkey over orders with the chosen estimator
// ("none", "gee", "mle") attached to the aggregation's input pass.
func timeAgg(cfg Config, cat *catalog.Catalog, estimator string) (time.Duration, error) {
	orders := cat.MustLookup("orders").Table
	sc := exec.NewScan(orders, "")
	if estimator != "none" {
		sc.SampleFraction = cfg.SampleFraction
		sc.Seed = cfg.Seed
	}
	ck := sc.Schema().MustResolve("orders", "custkey")
	agg := exec.NewHashAgg(sc, []int{ck}, []exec.AggSpec{{Func: exec.CountStar, Name: "cnt"}})
	plan.EstimateCardinalities(agg, cat)
	total := float64(orders.NumRows())
	// Both estimators ride the aggregation's own hash table via the
	// group-count hook (the paper's interleaved integration); GEE is the
	// pure O(1)-per-tuple update, MLE additionally recomputes on the
	// Algorithm 3 adaptive interval.
	switch estimator {
	case "gee":
		tr := distinct.NewProfileTracker(total, -1) // τ=-1: always GEE
		tr.DisableMLERecompute()
		agg.OnInputGroupCounts = tr.ObserveCounts
	case "mle":
		tr := distinct.NewProfileTracker(total, 1e18) // τ huge: always MLE
		agg.OnInputGroupCounts = tr.ObserveCounts
	}
	start := time.Now()
	if _, err := exec.Run(agg); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

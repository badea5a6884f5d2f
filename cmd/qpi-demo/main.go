// Command qpi-demo runs a skewed multi-join query with a live progress
// bar, contrasting the paper's online ("once") progress estimates with
// the dne baseline on the same workload.
package main

import (
	"flag"
	"fmt"
	"strings"

	"qpi"
)

func main() {
	var (
		rows   = flag.Int("rows", 100000, "rows per synthetic table")
		domain = flag.Int("domain", 5000, "join key domain size")
		z      = flag.Float64("z", 1, "Zipf skew of the join keys")
		mode   = flag.String("mode", "once", "progress estimator: once, dne, byte")
		serve  = flag.String("serve", "", "serve /metrics, /dashboard, /debug/vars on this address while the query runs")
		trace  = flag.Bool("trace", false, "dump the execution event stream after the run")
	)
	flag.Parse()

	eng := qpi.New()
	fmt.Printf("generating 3 × %d rows (domain %d, Zipf %g)...\n", *rows, *domain, *z)
	for i, name := range []string{"a", "b", "c"} {
		eng.MustCreateSkewedTable(name, *rows, int64(i+1),
			qpi.SkewedColumn{Name: "k", Domain: *domain, Zipf: *z, PermSeed: int64(100 * (i + 1))})
	}

	// Pipeline of two hash joins on the same attribute, followed by a
	// GROUP BY on the join key (push-down estimation end to end).
	lower := qpi.HashJoin(eng.MustScan("b"), eng.MustScan("c"), qpi.Col("b", "k"), qpi.Col("c", "k"))
	upper := qpi.HashJoin(eng.MustScan("a"), lower, qpi.Col("a", "k"), qpi.Col("c", "k"))
	root := qpi.MustGroupBy(upper, []qpi.Ref{qpi.Col("c", "k")}, qpi.Agg{Func: qpi.CountStar, As: "cnt"})

	var m qpi.EstimatorMode
	switch *mode {
	case "dne":
		m = qpi.DNE
	case "byte":
		m = qpi.Byte
	default:
		m = qpi.Once
	}
	q := eng.MustCompile(root, qpi.WithMode(m), qpi.WithSampling(0.1, 7))

	opts := []qpi.RunOption{qpi.WithProgress(func(r qpi.Report) {
		bar := int(50 * r.Progress)
		fmt.Printf("\r[%-50s] %5.1f%%  (C=%.0f / T=%.0f)",
			strings.Repeat("#", bar), 100*r.Progress, r.C, r.T)
	}, int64(*rows/20))}
	var tr *qpi.Tracer
	if *trace {
		tr = qpi.NewTracer()
		opts = append(opts, qpi.WithTrace(tr))
	}
	if *serve != "" {
		if err := qpi.DefaultDashboard.Register("qpi-demo", q); err != nil {
			fmt.Println("register:", err)
			return
		}
		srv, err := qpi.Serve(*serve)
		if err != nil {
			fmt.Println("serve:", err)
			return
		}
		defer srv.Close()
		fmt.Printf("observability: http://%s/metrics /dashboard /debug/vars\n", srv.Addr())
	}

	fmt.Println(q.Explain())
	n, err := q.Run(nil, opts...)
	fmt.Println()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("query produced %d groups\n\n", n)
	fmt.Println("final operator estimates:")
	for _, e := range q.Estimates() {
		fmt.Printf("  %s%-40s emitted=%-10d est=%-12.0f src=%s\n",
			strings.Repeat("  ", e.Depth), e.Operator, e.Emitted, e.Estimate, e.Source)
	}
	if tr != nil {
		m := q.Metrics()
		fmt.Printf("\nmetrics: tuples=%d batches=%d spill=%d runs/%d bytes recomputes=%d probes=%d\n",
			m.Tuples, m.Batches, m.SpillFiles, m.SpillBytes, m.EstimatorRecomputes, m.HistogramProbes)
		fmt.Printf("\nexecution trace (%d events):\n%s", tr.Len(), tr.Dump())
	}
}

package qpi

// One benchmark per paper table/figure (regenerating the experiment at a
// reduced scale; use cmd/qpi-bench -paper for full scale) plus ablation
// benchmarks for the design choices called out in DESIGN.md §7.

import (
	"math/rand"
	"runtime"
	"testing"

	"qpi/internal/catalog"
	"qpi/internal/core"
	"qpi/internal/data"
	"qpi/internal/disk"
	"qpi/internal/distinct"
	"qpi/internal/exec"
	"qpi/internal/experiments"
	"qpi/internal/plan"
	"qpi/internal/tpch"
	"qpi/internal/vfs"
	"qpi/internal/zipf"
)

// benchConfig is small enough for -bench runs yet large enough that the
// estimators do real work.
func benchConfig() experiments.Config {
	return experiments.Config{
		Rows:           10000,
		DomainSmall:    500,
		DomainLarge:    8000,
		SF:             0.008,
		SampleFraction: 0.10,
		Seed:           42,
		Checkpoints:    []float64{0.05, 0.10, 0.50, 1.00},
	}
}

func runExperiment(b *testing.B, name string) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(name, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3BinaryJoinAccuracy regenerates Figure 3 (once ratio error
// on binary joins, small and large domains, z ∈ {0,1,2}).
func BenchmarkFig3BinaryJoinAccuracy(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig4BaselineComparison regenerates Figure 4 (once vs dne vs
// byte on a misestimated skewed join and a PK-FK join with selection).
func BenchmarkFig4BaselineComparison(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5SameAttributePipeline regenerates Figure 5 (two-join
// pipeline on one attribute, both levels' estimates).
func BenchmarkFig5SameAttributePipeline(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6DifferentAttributePipeline regenerates Figure 6 (Case 1
// and Case 2 pipelines with derived histograms).
func BenchmarkFig6DifferentAttributePipeline(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkTable1DistinctEstimators regenerates Table 1 (GEE vs MLE
// rows-to-accuracy across skews and domain sizes).
func BenchmarkTable1DistinctEstimators(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2HistogramMemory regenerates Table 2 (histogram memory
// accounting).
func BenchmarkTable2HistogramMemory(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkTable3JoinOverhead regenerates Table 3 (join runtime with and
// without the framework at 1/5/10% samples, hash and sort-merge).
func BenchmarkTable3JoinOverhead(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkTable4PipelineAndAggOverhead regenerates Table 4 (pipeline
// Case 1/2 overhead and GROUP BY overhead under GEE/MLE).
func BenchmarkTable4PipelineAndAggOverhead(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkFig8ProgressIndicator regenerates Figure 8 (once vs dne
// progress trajectories on a Q8-shaped plan).
func BenchmarkFig8ProgressIndicator(b *testing.B) { runExperiment(b, "fig8") }

// ---- overhead microbenchmarks (Table 3's mechanism, isolated) ----

func buildJoin(b *testing.B, estimate bool) (*exec.HashJoin, *catalog.Catalog) {
	b.Helper()
	cat, err := tpch.Generate(tpch.Config{SF: 0.01, Seed: 1, Tables: []string{"orders", "lineitem"}})
	if err != nil {
		b.Fatal(err)
	}
	orders := cat.MustLookup("orders").Table
	lineitem := cat.MustLookup("lineitem").Table
	bs := exec.NewScan(orders, "")
	ps := exec.NewScan(lineitem, "")
	j := exec.NewHashJoin(bs, ps,
		bs.Schema().MustResolve("orders", "orderkey"),
		ps.Schema().MustResolve("lineitem", "orderkey"))
	plan.EstimateCardinalities(j, cat)
	if estimate {
		core.Attach(j)
	}
	return j, cat
}

// BenchmarkJoinBaseline measures the raw grace hash join (no estimation).
func BenchmarkJoinBaseline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		j, _ := buildJoin(b, false)
		b.StartTimer()
		if _, err := exec.Run(j); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHashJoinThroughput compares the two execution paths of the
// grace hash join on the same orders ⋈ lineitem workload as
// BenchmarkJoinBaseline: the tuple-at-a-time reference and the lane-native
// columnar path every compiled plan runs. tuples/sec counts every tuple
// moved (build + probe inputs and join output).
func BenchmarkHashJoinThroughput(b *testing.B) {
	for _, columnar := range []bool{false, true} {
		name := "tuple"
		if columnar {
			name = "columnar"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var tuples int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				j, _ := buildJoin(b, false)
				j.SetColumnar(columnar)
				b.StartTimer()
				var n int64
				var err error
				if columnar {
					n, err = exec.RunCol(j)
				} else {
					n, err = exec.Run(j)
				}
				if err != nil {
					b.Fatal(err)
				}
				tuples += n + j.BuildRows() + j.ProbeRows()
			}
			b.ReportMetric(float64(tuples)/b.Elapsed().Seconds(), "tuples/sec")
		})
	}
}

// BenchmarkJoinWithEstimation measures the same join with the framework
// attached; compare ns/op against BenchmarkJoinBaseline for the paper's
// central overhead claim.
func BenchmarkJoinWithEstimation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		j, _ := buildJoin(b, true)
		b.StartTimer()
		if _, err := exec.Run(j); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- ablations ----

// BenchmarkAblationIncrementalUpdate compares the paper's O(1)
// incremental estimate update (§4.1.1) against the naive alternative it
// replaces: maintaining histograms on both inputs and multiplying
// corresponding buckets at an interval.
func BenchmarkAblationIncrementalUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n, domain = 200000, 5000
	buildKeys := make([]data.Value, n)
	probeKeys := make([]data.Value, n)
	for i := range buildKeys {
		buildKeys[i] = data.Int(int64(rng.Intn(domain)))
		probeKeys[i] = data.Int(int64(rng.Intn(domain)))
	}
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := core.NewJoinEstimator(n)
			for _, k := range buildKeys {
				e.ObserveBuild(k)
			}
			for _, k := range probeKeys {
				e.ObserveProbe(k)
			}
		}
	})
	b.Run("bucket-multiply", func(b *testing.B) {
		b.ReportAllocs()
		const interval = 1000
		for i := 0; i < b.N; i++ {
			bh := core.NewFreqHistogram()
			ph := core.NewFreqHistogram()
			for _, k := range buildKeys {
				bh.Add(k)
			}
			est := 0.0
			for t, k := range probeKeys {
				ph.Add(k)
				if (t+1)%interval == 0 {
					// Multiply corresponding buckets — the cost the
					// incremental form avoids.
					sum := 0.0
					ph.Each(func(v data.Value, c int64) bool {
						sum += float64(c) * float64(bh.Count(v))
						return true
					})
					est = sum / float64(t+1) * n
				}
			}
			_ = est
		}
	})
}

// BenchmarkAblationMLEInterval compares Algorithm 3's adaptive
// recomputation interval against fixed intervals.
func BenchmarkAblationMLEInterval(b *testing.B) {
	g := zipf.MustNew(5000, 0, 3, 0)
	const n = 100000
	vals := make([]data.Value, n)
	for i := range vals {
		vals[i] = data.Int(g.Next())
	}
	b.Run("adaptive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := distinct.NewMLE(n)
			for _, v := range vals {
				m.Observe(v)
			}
			_ = m.Estimate()
		}
	})
	b.Run("fixed-small", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := distinct.NewMLEWithInterval(n, 100, 100, 0)
			for _, v := range vals {
				m.Observe(v)
			}
			_ = m.Estimate()
		}
	})
	b.Run("fixed-large", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := distinct.NewMLEWithInterval(n, 10000, 10000, 0)
			for _, v := range vals {
				m.Observe(v)
			}
			_ = m.Estimate()
		}
	})
}

// BenchmarkAblationChooser compares GEE-only, MLE-only and the γ² chooser
// on a low-skew stream (where they differ most).
func BenchmarkAblationChooser(b *testing.B) {
	g := zipf.MustNew(3000, 0, 9, 0)
	const n = 100000
	vals := make([]data.Value, n)
	for i := range vals {
		vals[i] = data.Int(g.Next())
	}
	b.Run("gee", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := distinct.NewGEE(n)
			for _, v := range vals {
				e.Observe(v)
			}
			_ = e.Estimate()
		}
	})
	b.Run("mle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := distinct.NewMLE(n)
			for _, v := range vals {
				e.Observe(v)
			}
			_ = e.Estimate()
		}
	})
	b.Run("chooser", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := distinct.NewChooser(n, distinct.DefaultTau)
			for _, v := range vals {
				e.Observe(v)
			}
			_ = e.Estimate()
		}
	})
}

// BenchmarkHistogram measures the core per-tuple histogram operations the
// lightweight claim rests on.
func BenchmarkHistogram(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	keys := make([]data.Value, 100000)
	for i := range keys {
		keys[i] = data.Int(int64(rng.Intn(10000)))
	}
	b.Run("add", func(b *testing.B) {
		b.ReportAllocs()
		h := core.NewFreqHistogram()
		for i := 0; i < b.N; i++ {
			h.Add(keys[i%len(keys)])
		}
	})
	b.Run("count", func(b *testing.B) {
		h := core.NewFreqHistogram()
		for _, k := range keys {
			h.Add(k)
		}
		b.ResetTimer()
		var sink int64
		for i := 0; i < b.N; i++ {
			sink += h.Count(keys[i%len(keys)])
		}
		_ = sink
	})
}

// BenchmarkProgressSnapshot measures the cost of one monitor snapshot on
// a Q8-sized plan — what a UI pays per refresh.
func BenchmarkProgressSnapshot(b *testing.B) {
	eng := New()
	eng.MustLoadTPCH(TPCHConfig{SF: 0.002, Seed: 1})
	jRN := HashJoin(eng.MustScan("region"), eng.MustScan("nation", "n1"),
		Col("region", "regionkey"), Col("n1", "regionkey"))
	jRNC := HashJoin(jRN, eng.MustScan("customer"),
		Col("n1", "nationkey"), Col("customer", "nationkey"))
	ordersSub := HashJoin(jRNC, eng.MustScan("orders"),
		Col("customer", "custkey"), Col("orders", "custkey"))
	j3 := HashJoin(ordersSub, eng.MustScan("lineitem"),
		Col("orders", "orderkey"), Col("lineitem", "orderkey"))
	q := eng.MustCompile(j3)
	if _, err := q.Run(nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = q.Report()
	}
}

// q8Node builds the Figure 8 plan (TPC-H Q8's shape: region ⋈ nation ⋈
// customer ⋈ orders and nation ⋈ supplier feeding, with part, three hash
// joins probing lineitem, under a GROUP BY) with the builder, as the
// repository benchmark's skew_pipeline does for every query.
func q8Node(eng *Engine) *Node {
	j := HashJoin(eng.MustScan("region"), eng.MustScan("nation", "n1"), Col("region", "regionkey"), Col("n1", "regionkey"))
	j = HashJoin(j, eng.MustScan("customer"), Col("n1", "nationkey"), Col("customer", "nationkey"))
	ordersSub := HashJoin(j, eng.MustScan("orders"), Col("customer", "custkey"), Col("orders", "custkey"))
	supplierSub := HashJoin(eng.MustScan("nation", "n2"), eng.MustScan("supplier"), Col("n2", "nationkey"), Col("supplier", "nationkey"))
	j3 := HashJoin(ordersSub, eng.MustScan("lineitem"), Col("orders", "orderkey"), Col("lineitem", "orderkey"))
	j2 := HashJoin(supplierSub, j3, Col("supplier", "suppkey"), Col("lineitem", "suppkey"))
	j1 := HashJoin(eng.MustScan("part"), j2, Col("part", "partkey"), Col("lineitem", "partkey"))
	return MustGroupBy(j1, []Ref{Col("orders", "orderdate")}, Agg{Func: CountStar, As: "cnt"})
}

// BenchmarkCompileQ8 prices the compile-time column pruning pass in the
// terms of the repository benchmark's qpi.newquery_us: "newquery" builds
// and compiles the Q8-shaped plan (prune, estimate, attach, monitor),
// "prune" times the pass alone on a freshly built plan.
func BenchmarkCompileQ8(b *testing.B) {
	eng := New()
	eng.MustLoadTPCH(TPCHConfig{SF: 0.002, Seed: 1})
	b.Run("newquery", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Compile(q8Node(eng)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prune", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			n := q8Node(eng)
			b.StartTimer()
			exec.Prune(n.op)
		}
	})
}

// BenchmarkQ8Pipeline compiles and runs the Q8-shaped plan on TPC-H SF
// 0.004 with Zipf(2) foreign keys, the data skew_pipeline runs on, with
// estimators on and off: `go test -bench Q8Pipeline -cpuprofile` profiles
// the skewed pipeline in one command.
func BenchmarkQ8Pipeline(b *testing.B) {
	eng := New()
	eng.MustLoadTPCH(TPCHConfig{SF: 0.004, Seed: 1, Skew: 2})
	for _, bc := range []struct {
		name string
		opts []CompileOption
	}{{"on", nil}, {"off", []CompileOption{WithoutEstimators()}}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q, err := eng.Compile(q8Node(eng), bc.opts...)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := q.Run(nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPKFKPipeline compiles and runs the repository benchmark's
// pkfk_join query (orders ⋈ lineitem on TPC-H SF 0.01) from SQL through
// Engine.Compile, with estimators on and off: the overhead ratio of the
// paper's Table 3 on the path users reach, beside BenchmarkQ8Pipeline's.
func BenchmarkPKFKPipeline(b *testing.B) {
	eng := New()
	eng.MustLoadTPCH(TPCHConfig{SF: 0.01, Seed: 1, Tables: []string{"orders", "lineitem"}})
	const sql = "SELECT o.orderkey FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey"
	for _, bc := range []struct {
		name string
		opts []CompileOption
	}{{"on", nil}, {"off", []CompileOption{WithoutEstimators()}}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q, err := eng.Query(sql, bc.opts...)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := q.Run(nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtApproxHistograms regenerates the approximate-histogram
// accuracy/memory extension experiment (§6 future work).
func BenchmarkExtApproxHistograms(b *testing.B) { runExperiment(b, "ext-approx") }

// BenchmarkExtDiskJoinOverhead regenerates the on-disk join overhead
// extension experiment (I/O-bound baseline, as in the paper's setting).
func BenchmarkExtDiskJoinOverhead(b *testing.B) { runExperiment(b, "ext-disk") }

// BenchmarkSpilledJoin measures the grace hash join in memory-budgeted
// (spilling) mode against BenchmarkJoinBaseline. Spill I/O goes through a
// counting vfs.FaultFS over the real filesystem: creates/op is the
// temporary files the join created, 1 while its spilled partitions share
// one file.
func BenchmarkSpilledJoin(b *testing.B) {
	b.ReportAllocs()
	fs := vfs.NewFaultFS(nil)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		j, _ := buildJoin(b, false)
		j.SetMemoryBudget(256 * 1024).SetSpillFS(fs)
		b.StartTimer()
		if _, err := exec.Run(j); err != nil {
			b.Fatal(err)
		}
		if j.Spilled() == 0 {
			b.Fatal("expected spills")
		}
	}
	b.ReportMetric(float64(fs.Count(vfs.OpCreate))/float64(b.N), "creates/op")
}

// BenchmarkBudgetedScatter is BenchmarkSpilledJoin on the lane-native
// path every compiled plan runs: the budgeted partition passes move each
// batch's rows a partition group at a time, into lanes or spill frames.
func BenchmarkBudgetedScatter(b *testing.B) {
	b.ReportAllocs()
	fs := vfs.NewFaultFS(nil)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		j, _ := buildJoin(b, false)
		j.SetMemoryBudget(256 * 1024).SetColumnar(true).SetSpillFS(fs)
		b.StartTimer()
		if _, err := exec.RunCol(j); err != nil {
			b.Fatal(err)
		}
		if j.Spilled() == 0 {
			b.Fatal("expected spills")
		}
	}
	b.ReportMetric(float64(fs.Count(vfs.OpCreate))/float64(b.N), "creates/op")
}

// BenchmarkScanColLanes drains lineitem through the columnar scan and
// touches every column of every batch, which is what its consumers do:
// the batches are windows of the table's lanes, so no column is pivoted.
func BenchmarkScanColLanes(b *testing.B) {
	cat, err := tpch.Generate(tpch.Config{SF: 0.01, Seed: 1, Tables: []string{"lineitem"}})
	if err != nil {
		b.Fatal(err)
	}
	lineitem := cat.MustLookup("lineitem").Table
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := exec.NewScan(lineitem, "")
		if err := sc.Open(); err != nil {
			b.Fatal(err)
		}
		rows := 0
		for {
			cb, err := sc.NextColBatch()
			if err != nil {
				b.Fatal(err)
			}
			if cb == nil {
				break
			}
			for c := 0; c < cb.Width(); c++ {
				if !cb.Col(c).Homogeneous() {
					b.Fatal("mixed column in lineitem")
				}
			}
			rows += cb.Live()
		}
		if rows != lineitem.NumRows() {
			b.Fatalf("scanned %d of %d rows", rows, lineitem.NumRows())
		}
		sc.Close()
	}
	b.ReportMetric(float64(lineitem.NumRows())*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkCatalogLiveBytes reports live_MB, the heap a generated TPC-H
// catalog (SF 0.01, seed 1, every table, with its statistics) keeps live:
// the resident cost of a stored table's layout.
func BenchmarkCatalogLiveBytes(b *testing.B) {
	var live int64
	for i := 0; i < b.N; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		cat, err := tpch.Generate(tpch.Config{SF: 0.01, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(cat)
		live = int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	b.ReportMetric(float64(live)/1e6, "live_MB")
}

// BenchmarkDiskScan measures streaming a table from the on-disk block
// format.
func BenchmarkDiskScan(b *testing.B) {
	cat, err := tpch.Generate(tpch.Config{SF: 0.01, Seed: 1, Tables: []string{"orders"}})
	if err != nil {
		b.Fatal(err)
	}
	path := b.TempDir() + "/orders.qpit"
	if err := disk.WriteTable(path, cat.MustLookup("orders").Table); err != nil {
		b.Fatal(err)
	}
	tf, err := disk.OpenTable(path)
	if err != nil {
		b.Fatal(err)
	}
	defer tf.Close()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := disk.NewScan(tf, "")
		if _, err := exec.Run(sc); err != nil {
			b.Fatal(err)
		}
	}
}

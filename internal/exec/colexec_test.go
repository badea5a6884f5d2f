package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"qpi/internal/data"
	"qpi/internal/expr"
	"qpi/internal/storage"
)

// Equivalence of the two pull contracts, operator by operator: the same
// plan drained through NextColBatch and through Next must produce the
// same rows in the same order, leave the same counters on every operator
// and fire the same hooks. internal/difftest checks whole generated plans
// against an oracle; these tests pin the cases a generator reaches only
// by luck — punctuation mid-batch, a limit cutting a selection vector,
// row-major operators behind the adapter, a join under a tuple parent.

// fingerprints renders rows into comparable strings.
func fingerprints(rows []data.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	return out
}

// requireSameRows asserts two result sets are identical, row by row.
func requireSameRows(t *testing.T, want, got []data.Tuple, label string) {
	t.Helper()
	w, g := fingerprints(want), fingerprints(got)
	if len(w) != len(g) {
		t.Fatalf("%s: %d rows vs %d", label, len(w), len(g))
	}
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("%s: row %d differs: %s vs %s", label, i, w[i], g[i])
		}
	}
}

// requireSameStats asserts the final counters of every operator agree
// between two runs of structurally identical plans.
func requireSameStats(t *testing.T, a, b Operator, label string) {
	t.Helper()
	var as, bs []Operator
	Walk(a, func(op Operator) { as = append(as, op) })
	Walk(b, func(op Operator) { bs = append(bs, op) })
	if len(as) != len(bs) {
		t.Fatalf("%s: plans differ: %d operators vs %d", label, len(as), len(bs))
	}
	for i := range as {
		sa, sb := as[i].Stats(), bs[i].Stats()
		if sa.Emitted.Load() != sb.Emitted.Load() {
			t.Errorf("%s: %s Emitted %d vs %d", label, as[i].Name(), sa.Emitted.Load(), sb.Emitted.Load())
		}
		if sa.IsDone() != sb.IsDone() {
			t.Errorf("%s: %s Done %v vs %v", label, as[i].Name(), sa.IsDone(), sb.IsDone())
		}
	}
}

// requireColumnarMatchesTuple builds the plan twice, drains one copy
// through Next and the other through NextColBatch, and requires the same
// ordered rows and the same counters on every operator.
func requireColumnarMatchesTuple(t *testing.T, label string, mk func() Operator) {
	t.Helper()
	tup, col := mk(), mk()
	requireSameRows(t, drainMode(t, tup, false), drainMode(t, col, true), label)
	requireSameStats(t, tup, col, label)
}

// TestScanBatchEquivalence holds the lane scan to Next over batch sizes
// that divide a block, straddle blocks and leave the NULL-bit windows
// unaligned, sequentially and in sample order, full-width and pruned to
// three of the six columns: the same rows in the same order with the same
// counters, every batch full but the last, and OnSampleEnd fired exactly
// once, after the SampleBoundary()-th OnTuple — which for most of these
// sizes is the middle of a batch. A pruned scan's rows are the table's
// rows cut to its columns.
func TestScanBatchEquivalence(t *testing.T) {
	defer data.SetBatchSize(0)
	const n = 23*storage.BlockSize + 17 // partial last batch + partial block
	tb := laneTable("t", n)
	type run struct {
		sc         *Scan
		rows       []data.Tuple
		seen       int
		sampleEnds []int // tuples seen at each OnSampleEnd
	}
	pruned := []bool{false, false, true, false, true, true} // s, mixed, allnull
	for _, bs := range []int{1, 7, 100, 128, 1000, 1024} {
		for _, frac := range []float64{0, 0.1, 0.5, 1} {
			var full []data.Tuple // the full-width scan's rows, in this order
			for _, narrow := range []bool{false, true} {
				data.SetBatchSize(bs)
				label := fmt.Sprintf("scan, batches of %d, sample %g, pruned %v", bs, frac, narrow)
				drain := func(columnar bool) *run {
					r := &run{sc: NewScan(tb, "")}
					if narrow {
						r.sc.narrow(slices.Clone(pruned))
					}
					r.sc.SampleFraction = frac
					r.sc.Seed = 7
					r.sc.OnTuple = func(data.Tuple) { r.seen++ }
					r.sc.OnSampleEnd = func() { r.sampleEnds = append(r.sampleEnds, r.seen) }
					if columnar {
						left := n
						r.sc.OnBatch = func(rows int) {
							if want := min(bs, left); rows != want {
								t.Fatalf("%s: batch of %d rows with %d left", label, rows, left)
							}
							left -= rows
						}
					}
					r.rows = drainMode(t, r.sc, columnar)
					return r
				}
				tup, col := drain(false), drain(true)
				requireSameRows(t, tup.rows, col.rows, label)
				if len(col.rows) != n {
					t.Fatalf("%s: %d of %d rows", label, len(col.rows), n)
				}
				if a, b := tup.sc.Stats(), col.sc.Stats(); a.Emitted.Load() != b.Emitted.Load() || !a.IsDone() || !b.IsDone() {
					t.Errorf("%s: tuple path emitted %d done=%v, lane scan %d done=%v", label, a.Emitted.Load(), a.IsDone(), b.Emitted.Load(), b.IsDone())
				}
				if got, want := col.sc.Stats().Batches.Load(), int64((n+bs-1)/bs); got != want {
					t.Errorf("%s: %d batches, want %d", label, got, want)
				}
				var want []int // an unsampled scan has no sample to end
				if frac > 0 {
					want = []int{tb.SampleOrder(frac, 7).SampleBoundary()}
				}
				for _, r := range []*run{tup, col} {
					if !slices.Equal(r.sampleEnds, want) {
						t.Fatalf("%s: OnSampleEnd after tuples %v, want %v", label, r.sampleEnds, want)
					}
				}
				if !narrow {
					full = tup.rows
					continue
				}
				for i, row := range full {
					if cut := (data.Tuple{row[2], row[4], row[5]}); tup.rows[i].String() != cut.String() {
						t.Fatalf("%s: row %d is %s, the full-width row cut to the scan's columns %s", label, i, tup.rows[i], cut)
					}
				}
			}
		}
	}
}

// laneTable builds a table with every column shape the lanes distinguish
// — integers, floats, strings, integers with NULLs, a column of mixed
// kinds and one that is NULL throughout — over n rows keyed 0..n-1.
func laneTable(name string, n int) *storage.Table {
	var cols []data.Column
	for _, c := range []string{"k", "f", "s", "knull", "mixed", "allnull"} {
		cols = append(cols, data.Column{Table: name, Name: c, Kind: data.KindInt})
	}
	tb := storage.NewTable(name, data.NewSchema(cols...))
	for i := 0; i < n; i++ {
		row := data.Tuple{
			data.Int(int64(i)),
			data.Float(float64(i%17) / 4),
			data.Str(fmt.Sprintf("s%03d", i%101)),
			data.Int(int64(i % 13)),
			data.Int(int64(i % 9)),
			data.Null(),
		}
		if i%5 == 0 {
			row[3] = data.Null()
		}
		switch i % 7 {
		case 2:
			row[4] = data.Str("m")
		case 4:
			row[4] = data.Null()
		}
		tb.MustAppend(row)
	}
	return tb
}

// snapshotLanes deep-copies what a table holds: every lane.
func snapshotLanes(tb *storage.Table) []data.ColVec {
	var lanes []data.ColVec
	for c := 0; c < tb.Schema().Len(); c++ {
		v := *tb.Lane(c)
		v.Ints, v.Floats, v.Strs = slices.Clone(v.Ints), slices.Clone(v.Floats), slices.Clone(v.Strs)
		v.Nulls, v.Tags = slices.Clone(v.Nulls), slices.Clone(v.Tags)
		lanes = append(lanes, v)
	}
	return lanes
}

// TestScanLanesNeverMutateTheTable runs every consumer of a scan's batches
// — filter, computed and shared projections, limit, GROUP BY, a join and a
// join that spills both sides — over one table twice, so the second run
// draws the batches the first one returned to the pool, and requires the
// table's lanes to be what they were and both runs to agree with
// the tuple-at-a-time reference. The scan's batches are windows of the
// table: anything that resets, releases or pools one, or appends to one in
// place, shows here.
func TestScanLanesNeverMutateTheTable(t *testing.T) {
	a, b := laneTable("a", 2*data.BatchSize()+300), laneTable("b", data.BatchSize()+77)
	before := [][]data.ColVec{snapshotLanes(a), snapshotLanes(b)}
	col := func(op Operator, table, name string) expr.Expr { return expr.Column(op.Schema(), table, name) }
	plans := map[string]func() Operator{
		"filter/project/limit": func() Operator {
			sc := NewScan(a, "")
			f := NewFilter(sc, expr.Compare(expr.LT, col(sc, "a", "knull"), expr.IntLit(9)))
			p := NewProject(f, []expr.Expr{
				col(f, "a", "s"), col(f, "a", "mixed"), col(f, "a", "allnull"),
				expr.Arith{Op: expr.Add, L: col(f, "a", "k"), R: col(f, "a", "knull")},
				expr.Arith{Op: expr.Mul, L: col(f, "a", "f"), R: expr.IntLit(2)},
			}, []string{"s", "mixed", "allnull", "kk", "ff"})
			return NewLimit(p, 1500)
		},
		"group by": func() Operator {
			sc := NewScan(a, "")
			return NewHashAgg(sc, []int{sc.Schema().MustResolve("a", "s")}, []AggSpec{
				{Func: CountStar, Name: "c"},
				{Func: Sum, Col: sc.Schema().MustResolve("a", "knull"), Name: "sum"},
				{Func: Min, Col: sc.Schema().MustResolve("a", "f"), Name: "lo"},
			})
		},
		"join": func() Operator {
			sc := NewScan(a, "")
			f := NewFilter(sc, expr.Compare(expr.LT, col(sc, "a", "k"), expr.IntLit(400)))
			return NewHashJoinOn(NewScan(b, ""), f, "b", "mixed", "a", "mixed")
		},
		"spilling join": func() Operator {
			return NewHashJoinMulti(NewScan(b, ""), NewScan(a, ""), []int{0}, []int{0}, ProbeOuterJoin).
				SetMemoryBudget(64 << 10)
		},
	}
	for label, mk := range plans {
		want := drainMode(t, mk(), false)
		if len(want) == 0 {
			t.Fatalf("%s: empty reference result", label)
		}
		// Passes 3 and 4 run the plan pruned: its scans hand out windows of
		// fewer lanes.
		for pass := 1; pass <= 4; pass++ {
			op := mk()
			if pass > 2 {
				Prune(op)
			}
			requireSameRows(t, want, drainMode(t, op, true), fmt.Sprintf("%s, pass %d", label, pass))
			if j, ok := op.(*HashJoin); ok && label == "spilling join" && j.Spilled() == 0 {
				t.Fatalf("%s did not spill", label)
			}
		}
	}
	for i, tb := range []*storage.Table{a, b} {
		if after := snapshotLanes(tb); !reflect.DeepEqual(before[i], after) {
			t.Errorf("table %s changed under the scans", tb.Name())
		}
	}
	if out := data.ColBatchesOut(); out != 0 {
		t.Errorf("%d pooled batches still out", out)
	}
}

// TestFilterProjectLimitBatchEquivalence: a filter that empties whole
// batches and narrows the others to selection vectors, a projection that
// shares and computes columns, and a limit that lands inside a selection
// vector. Operators under the limit see whole batches on the columnar
// path, so only the limit's own counters are comparable there; the
// pipeline without the limit is compared operator by operator.
func TestFilterProjectLimitBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bs := data.BatchSize()
	rows := make([][2]int64, 6*bs)
	for i := range rows {
		x := int64(rng.Intn(50))
		if batch := i / bs; batch == 1 || batch == 4 {
			x += 100 // the filter drops these batches whole
		}
		rows[i] = [2]int64{x, int64(rng.Intn(1000))}
	}
	pipeline := func() Operator {
		sc := NewScan(makeTable2("t", rows), "")
		f := NewFilter(sc, expr.Compare(expr.LT, expr.Column(sc.Schema(), "t", "x"), expr.IntLit(20)))
		return NewProject(f, []expr.Expr{
			expr.Column(f.Schema(), "t", "y"),
			expr.Arith{Op: expr.Add, L: expr.Column(f.Schema(), "t", "x"), R: expr.IntLit(1)},
		}, []string{"y", "x1"})
	}
	requireColumnarMatchesTuple(t, "filter/project", pipeline)

	const limit = 700 // about 0.4 of a batch survives the filter: mid-vector in the second live batch
	tup, col := NewLimit(pipeline(), limit), NewLimit(pipeline(), limit)
	got := drainMode(t, col, true)
	requireSameRows(t, drainMode(t, tup, false), got, "filter/project/limit")
	if len(got) != limit {
		t.Fatalf("limit %d returned %d rows", limit, len(got))
	}
	if a, b := tup.Stats(), col.Stats(); a.Emitted.Load() != b.Emitted.Load() || !a.IsDone() || !b.IsDone() {
		t.Errorf("limit counters: tuple %d done=%v, columnar %d done=%v",
			a.Emitted.Load(), a.IsDone(), b.Emitted.Load(), b.IsDone())
	}
}

// TestHashAggBatchEquivalence: hash aggregation over integer, string and
// multi-column groups, over more than two batches' worth of groups and
// with no GROUP BY (NULL keys and NULL aggregate inputs included, fed
// through a filter so the input batches carry selection vectors, and
// pruned on one side, whose scan then carries no rows) emits the input's
// groups in first-seen order with their aggregates, through Next and
// through NextColBatch alike, and its OnInputGroupCounts spans
// concatenate to each input row's running count of its group. Over no
// input, a grouped aggregation emits nothing and a scalar one one row.
func TestHashAggBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	bs := data.BatchSize()
	sch := data.NewSchema(
		data.Column{Table: "t", Name: "g", Kind: data.KindInt},
		data.Column{Table: "t", Name: "s", Kind: data.KindString},
		data.Column{Table: "t", Name: "v", Kind: data.KindInt},
		data.Column{Table: "t", Name: "u", Kind: data.KindInt},
		data.Column{Table: "t", Name: "w", Kind: data.KindInt},
	)
	tb := storage.NewTable("t", sch)
	var in []data.Tuple
	for i := 0; i < 4*bs; i++ {
		g, s := data.Int(int64(rng.Intn(40))), data.Str(fmt.Sprintf("s%02d", rng.Intn(25)))
		if rng.Intn(20) == 0 {
			g = data.Null()
		}
		if rng.Intn(20) == 0 {
			s = data.Null()
		}
		u := data.Int(int64(rng.Intn(1000)))
		if rng.Intn(4) == 0 {
			u = data.Null()
		}
		in = append(in, data.Tuple{g, s, data.Int(int64(rng.Intn(100))), u, data.Int(int64(i * 7 % (3 * bs)))})
		tb.MustAppend(in[i])
	}
	for _, cut := range []int64{80, 0} { // v < 0 passes no row
		for _, groupBy := range [][]int{{0}, {1}, {0, 1}, {4}, nil} {
			label := fmt.Sprintf("hashagg%v, v < %d", groupBy, cut)
			// The reference, grouped by hand over the filter's rows: each
			// row's running group count, and per group COUNT(*), SUM(v),
			// MIN(v), MAX(u) and AVG(u).
			type group struct {
				vals        data.Tuple
				n, sum, min int64
				umax        data.Value
				usum, un    int64
			}
			var wantCounts []int64
			var groups []*group
			byKey := map[string]*group{}
			for _, r := range in {
				if r[2].I >= cut {
					continue
				}
				key := fmt.Sprintf("%#v", r.Project(groupBy))
				g := byKey[key]
				if g == nil {
					g = &group{vals: r.Project(groupBy), min: r[2].I}
					byKey[key] = g
					groups = append(groups, g)
				}
				g.n++
				g.sum += r[2].I
				g.min = min(g.min, r[2].I)
				if u := r[3]; !u.IsNull() {
					if g.umax.IsNull() || u.I > g.umax.I {
						g.umax = u
					}
					g.usum += u.I
					g.un++
				}
				wantCounts = append(wantCounts, g.n)
			}
			if groupBy == nil && len(groups) == 0 {
				groups = append(groups, &group{})
			}
			if slices.Equal(groupBy, []int{4}) && cut > 0 && len(groups) <= 2*bs {
				t.Fatalf("%s: %d groups leave in fewer than three batches", label, len(groups))
			}
			var want []data.Tuple
			for _, g := range groups {
				row := append(g.vals, data.Int(g.n), data.Null(), data.Null(), g.umax, data.Null())
				if g.n > 0 {
					row[len(g.vals)+1], row[len(g.vals)+2] = data.Float(float64(g.sum)), data.Int(g.min)
				}
				if g.un > 0 {
					row[len(g.vals)+4] = data.Float(float64(g.usum) / float64(g.un))
				}
				want = append(want, row)
			}

			mk := func() Operator {
				sc := NewScan(tb, "")
				f := NewFilter(sc, expr.Compare(expr.LT, expr.Column(sc.Schema(), "t", "v"), expr.IntLit(cut)))
				return NewHashAgg(f, groupBy, []AggSpec{
					{Func: CountStar, Name: "c"},
					{Func: Sum, Col: 2, Name: "sum"},
					{Func: Min, Col: 2, Name: "lo"},
					{Func: Max, Col: 3, Name: "hi"},
					{Func: Avg, Col: 3, Name: "avg"},
				})
			}
			for _, columnar := range []bool{false, true} {
				op := mk()
				if columnar {
					Prune(op)
				}
				var spans []int64
				op.(*HashAgg).OnInputGroupCounts = func(ns []int64) { spans = append(spans, ns...) }
				requireSameRows(t, want, drainMode(t, op, columnar), fmt.Sprintf("%s, columnar %v", label, columnar))
				if !slices.Equal(spans, wantCounts) {
					t.Errorf("%s, columnar %v: the spans carry %d group counts, not the %d running counts of the input",
						label, columnar, len(spans), len(wantCounts))
				}
			}
		}
	}
}

// TestHashJoinBatchEquivalence: for every join type the join drained
// through NextColBatch emits the rows Next emits, in the same
// partition-clustered order, with the same counters on the join and both
// scans.
func TestHashJoinBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	build := make([]int64, 2500)
	probe := make([]int64, 3000)
	for i := range build {
		build[i] = int64(rng.Intn(80))
	}
	for i := range probe {
		probe[i] = int64(rng.Intn(80))
	}
	for _, jt := range []JoinType{InnerJoin, ProbeOuterJoin, SemiJoin, AntiJoin} {
		mk := func() *HashJoin {
			return NewHashJoinMulti(
				NewScan(makeTable("a", build), ""),
				NewScan(makeTable("b", probe), ""),
				[]int{0}, []int{0}, jt)
		}
		base := mk()
		want := drainMode(t, base, false)
		label := fmt.Sprintf("%v join", jt)
		j := mk()
		requireSameRows(t, want, drainMode(t, j, true), label)
		requireSameStats(t, base, j, label)
		if j.BuildRows() != base.BuildRows() || j.ProbeRows() != base.ProbeRows() {
			t.Errorf("%s: rows build=%d/%d probe=%d/%d", label,
				j.BuildRows(), base.BuildRows(), j.ProbeRows(), base.ProbeRows())
		}
	}
}

// TestHashJoinNullKeysBatched checks the NULL-key rules on both drains:
// build NULLs never join, probe NULLs are preserved only by the
// probe-preserving join types.
func TestHashJoinNullKeysBatched(t *testing.T) {
	mkSide := func(name string, vals []int64, nulls int) *storage.Table {
		sch := data.NewSchema(data.Column{Table: name, Name: "k", Kind: data.KindInt})
		tb := storage.NewTable(name, sch)
		for _, v := range vals {
			tb.MustAppend(data.Tuple{data.Int(v)})
		}
		for i := 0; i < nulls; i++ {
			tb.MustAppend(data.Tuple{data.Null()})
		}
		return tb
	}
	wantRows := map[JoinType]int{InnerJoin: 4, ProbeOuterJoin: 8, SemiJoin: 3, AntiJoin: 4}
	for _, jt := range []JoinType{InnerJoin, ProbeOuterJoin, SemiJoin, AntiJoin} {
		mk := func() *HashJoin {
			return NewHashJoinMulti(
				NewScan(mkSide("a", []int64{1, 2, 2, 3}, 2), ""),
				NewScan(mkSide("b", []int64{2, 3, 3, 4}, 3), ""),
				[]int{0}, []int{0}, jt)
		}
		base := mk()
		want := drainMode(t, base, false)
		if len(want) != wantRows[jt] {
			t.Fatalf("%v join: Next returned %d rows, want %d", jt, len(want), wantRows[jt])
		}
		label := fmt.Sprintf("%v join nulls", jt)
		j := mk()
		requireSameRows(t, want, drainMode(t, j, true), label)
		requireSameStats(t, base, j, label)
	}
}

// TestHashJoinBatchHooks checks the hook ordering contract documented on
// HashJoin, drained through Next (tuple) and through NextColBatch
// (columnar): the span hooks cover every input row; OnBuildEnd fires once
// between the passes and OnProbeEnd once after the probe pass; all of it
// before any output. Only the tuple drain carries OnOutput, which would
// send the columnar drain through the row fallback.
func TestHashJoinBatchHooks(t *testing.T) {
	a := randTable("a", 2000, 50, 21)
	b := randTable("b", 2400, 50, 22)
	for _, m := range []struct {
		name     string
		columnar bool
	}{{name: "tuple"}, {name: "columnar", columnar: true}} {
		t.Run(m.name, func(t *testing.T) {
			j := NewHashJoinOn(
				NewScan(makeTable("a", a), ""),
				NewScan(makeTable("b", b), ""),
				"a", "k", "b", "k")

			// phase: 0 build pass, 1 probe pass, 2 join phase.
			phase, buildEnds, probeEnds := 0, 0, 0
			j.OnBuildEnd = func() { buildEnds++; phase = 1 }
			j.OnProbeEnd = func() { probeEnds++; phase = 2 }
			inPhase := func(hook string, want int) {
				if phase != want {
					t.Errorf("%s fired in phase %d, want %d", hook, phase, want)
				}
			}
			var buildSpanned, probeSpanned, outputs int
			spanHook := func(name string, want int, rows *int) func(*data.ColBatch) {
				return func(cb *data.ColBatch) {
					inPhase(name, want)
					*rows += cb.Live()
				}
			}
			j.OnBuildCol = spanHook("OnBuildCol", 0, &buildSpanned)
			j.OnProbeCol = spanHook("OnProbeCol", 1, &probeSpanned)
			if !m.columnar {
				j.OnOutput = func(data.Tuple) {
					inPhase("OnOutput", 2)
					outputs++
				}
			}

			rows := drainMode(t, j, m.columnar)
			if buildSpanned != len(a) || probeSpanned != len(b) {
				t.Errorf("span hooks build=%d probe=%d, inputs %d/%d", buildSpanned, probeSpanned, len(a), len(b))
			}
			if buildEnds != 1 || probeEnds != 1 {
				t.Errorf("barriers fired build=%d probe=%d times, want once each", buildEnds, probeEnds)
			}
			if len(rows) == 0 || !m.columnar && outputs != len(rows) {
				t.Errorf("OnOutput fired %d times for %d rows", outputs, len(rows))
			}
			if got := j.Stats().Batches.Load(); (got > 0) != m.columnar {
				t.Errorf("%d output batches from the %s drain", got, m.name)
			}
		})
	}
}

// TestAdaptersCompose puts the row-major operators — a Sort and a
// MergeJoin over two more Sorts — under a hash join: its
// partition passes reach them through the adapter over Next, and the
// plan must agree with its all-tuple twin.
func TestAdaptersCompose(t *testing.T) {
	a := randTable("a", 1500, 300, 23)
	b := randTable("b", 1200, 300, 24)
	c := randTable("c", 900, 300, 25)
	mk := func() Operator {
		mj, _, _ := NewSortMergeJoin(
			NewScan(makeTable("b", b), ""),
			NewScan(makeTable("c", c), ""), 0, 0)
		return NewHashJoin(NewSort(NewScan(makeTable("a", a), ""), 0), mj, 0, 0)
	}
	for _, op := range []Operator{NewSort(NewScan(makeTable("a", a), ""), 0), mk().Children()[1]} {
		if _, native := op.(ColOperator); native {
			t.Fatalf("%s implements ColOperator; the test needs row-major operators", op.Name())
		}
	}
	requireColumnarMatchesTuple(t, "sort and merge join under a hash join", mk)
}

// TestMixedModePlan pulls a hash join through Next from a parent drained
// tuple-at-a-time: the join's lane-native partitions must serve rows one
// at a time, and agree with the same plan drained through NextColBatch.
func TestMixedModePlan(t *testing.T) {
	a := randTable("a", 1200, 60, 24)
	b := randTable("b", 1500, 60, 25)
	requireColumnarMatchesTuple(t, "join pulled by Next", func() Operator {
		j := NewHashJoinOn(
			NewScan(makeTable("a", a), ""),
			NewScan(makeTable("b", b), ""),
			"a", "k", "b", "k")
		return NewFilter(j, expr.Compare(expr.LT, expr.Column(j.Schema(), "b", "k"), expr.IntLit(45)))
	})
}

// TestScanDoesNotSeeLaterInserts: rows appended to the table after a scan
// has opened are not returned by that scan, on either pull contract, and
// the rows it does return are the ones that were there.
func TestScanDoesNotSeeLaterInserts(t *testing.T) {
	for _, columnar := range []bool{false, true} {
		n := 2*data.BatchSize() + 50
		tb := laneTable("t", n)
		sc := NewScan(tb, "")
		if err := sc.Open(); err != nil {
			t.Fatal(err)
		}
		var rows []data.Tuple
		if columnar {
			cb, err := sc.NextColBatch()
			if err != nil {
				t.Fatal(err)
			}
			rows = cb.ToTuples(rows)
		} else {
			tu, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, tu)
		}
		for _, r := range laneTable("more", 3*n).Rows() {
			tb.MustAppend(data.Tuple{data.Int(-1), r[1], r[2], r[3], data.Float(1), r[5]})
		}
		var rest []data.Tuple
		var err error
		if columnar {
			rest, err = DrainCol(sc)
		} else {
			rest, err = Drain(sc)
		}
		if err != nil {
			t.Fatal(err)
		}
		requireSameRows(t, laneTable("t", n).Rows(), append(rows, rest...), fmt.Sprintf("scan opened before the inserts (columnar %v)", columnar))
		if err := sc.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

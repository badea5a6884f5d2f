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

// The lane operators at the edges of their batches, operator by
// operator, each checked against rows built without the operator under
// test: internal/difftest checks whole generated plans against an
// oracle; these tests pin the cases a generator reaches only by luck —
// punctuation mid-batch, a limit cutting a selection vector, row
// operators under a hash join, a hash join under a row operator.

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

// TestScanBatchEquivalence holds the lane scan to the table's own walk
// (storage.Iterator) over batch sizes that divide a block, straddle blocks
// and leave the NULL-bit windows unaligned, sequentially and in sample
// order, full-width and pruned to three of the six columns: the same rows
// in the same order, every batch full but the last, the counters exact,
// and OnSampleEnd fired exactly once, in the batch that reads the
// SampleBoundary()-th row — for most of these sizes the middle of a
// batch. A pruned scan's rows are the table's rows cut to its columns.
func TestScanBatchEquivalence(t *testing.T) {
	defer data.SetBatchSize(0)
	const n = 23*storage.BlockSize + 17 // partial last batch + partial block
	tb := laneTable("t", n)
	pruned := []bool{false, false, true, false, true, true} // s, mixed, allnull
	for _, bs := range []int{1, 7, 100, 128, 1000, 1024} {
		for _, frac := range []float64{0, 0.1, 0.5, 1} {
			it := tb.SequentialOrder()
			if frac > 0 {
				it = tb.SampleOrder(frac, 7)
			}
			boundary := it.SampleBoundary()
			var full []data.Tuple // the table's rows in the walk's order
			for tu := it.Next(); tu != nil; tu = it.Next() {
				full = append(full, tu)
			}
			for _, narrow := range []bool{false, true} {
				data.SetBatchSize(bs)
				label := fmt.Sprintf("scan, batches of %d, sample %g, pruned %v", bs, frac, narrow)
				sc := NewScan(tb, "")
				if narrow {
					sc.narrow(slices.Clone(pruned))
				}
				sc.SampleFraction = frac
				sc.Seed = 7
				seen := 0
				var sampleEnds []int // rows of earlier batches at each OnSampleEnd
				sc.OnSampleEnd = func() { sampleEnds = append(sampleEnds, seen) }
				sc.OnBatch = func(rows int) {
					if want := min(bs, n-seen); rows != want {
						t.Fatalf("%s: batch of %d rows with %d left", label, rows, n-seen)
					}
					seen += rows
				}
				want := full
				if narrow {
					want = nil
					for _, row := range full {
						want = append(want, data.Tuple{row[2], row[4], row[5]})
					}
				}
				requireSameRows(t, want, collect(t, sc), label)
				if st := sc.Stats(); st.Emitted.Load() != n || !st.IsDone() {
					t.Errorf("%s: emitted %d done=%v, want %d done", label, st.Emitted.Load(), st.IsDone(), n)
				}
				if got, want := sc.Stats().Batches.Load(), int64((n+bs-1)/bs); got != want {
					t.Errorf("%s: %d batches, want %d", label, got, want)
				}
				var wantEnds []int // an unsampled scan has no sample to end
				if frac > 0 {
					wantEnds = []int{(boundary - 1) / bs * bs}
				}
				if !slices.Equal(sampleEnds, wantEnds) {
					t.Fatalf("%s: OnSampleEnd after %v rows of earlier batches, want %v (boundary %d)", label, sampleEnds, wantEnds, boundary)
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
// table's lanes to be what they were and every run to agree with the
// same plan over fresh copies of the tables. The scan's batches are
// windows of the table: anything that resets, releases or pools one, or
// appends to one in place, shows here.
func TestScanLanesNeverMutateTheTable(t *testing.T) {
	tables := func() (a, b *storage.Table) {
		return laneTable("a", 2*data.BatchSize()+300), laneTable("b", data.BatchSize()+77)
	}
	a, b := tables()
	before := [][]data.ColVec{snapshotLanes(a), snapshotLanes(b)}
	col := func(op Operator, table, name string) expr.Expr { return expr.Column(op.Schema(), table, name) }
	plans := map[string]func(a, b *storage.Table) Operator{
		"filter/project/limit": func(a, b *storage.Table) Operator {
			sc := NewScan(a, "")
			f := NewFilter(sc, expr.Compare(expr.LT, col(sc, "a", "knull"), expr.IntLit(9)))
			p := NewProject(f, []expr.Expr{
				col(f, "a", "s"), col(f, "a", "mixed"), col(f, "a", "allnull"),
				expr.Arith{Op: expr.Add, L: col(f, "a", "k"), R: col(f, "a", "knull")},
				expr.Arith{Op: expr.Mul, L: col(f, "a", "f"), R: expr.IntLit(2)},
			}, []string{"s", "mixed", "allnull", "kk", "ff"})
			return NewLimit(p, 1500)
		},
		"group by": func(a, b *storage.Table) Operator {
			sc := NewScan(a, "")
			return NewHashAgg(sc, []int{sc.Schema().MustResolve("a", "s")}, []AggSpec{
				{Func: CountStar, Name: "c"},
				{Func: Sum, Col: sc.Schema().MustResolve("a", "knull"), Name: "sum"},
				{Func: Min, Col: sc.Schema().MustResolve("a", "f"), Name: "lo"},
			})
		},
		"join": func(a, b *storage.Table) Operator {
			sc := NewScan(a, "")
			f := NewFilter(sc, expr.Compare(expr.LT, col(sc, "a", "k"), expr.IntLit(400)))
			return NewHashJoinOn(NewScan(b, ""), f, "b", "mixed", "a", "mixed")
		},
		"spilling join": func(a, b *storage.Table) Operator {
			return NewHashJoinMulti(NewScan(b, ""), NewScan(a, ""), []int{0}, []int{0}, ProbeOuterJoin).
				SetMemoryBudget(64 << 10)
		},
	}
	for label, mk := range plans {
		want := collect(t, mk(tables()))
		if len(want) == 0 {
			t.Fatalf("%s: empty reference result", label)
		}
		// Passes 3 and 4 run the plan pruned: its scans hand out windows of
		// fewer lanes.
		for pass := 1; pass <= 4; pass++ {
			op := mk(a, b)
			if pass > 2 {
				Prune(op)
			}
			requireSameRows(t, want, collect(t, op), fmt.Sprintf("%s, pass %d", label, pass))
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
// vector, against the rows computed by hand, with every operator's
// counters exact.
func TestFilterProjectLimitBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bs := data.BatchSize()
	rows := make([][2]int64, 6*bs)
	var want []data.Tuple // y, x+1 of the rows with x < 20
	for i := range rows {
		x := int64(rng.Intn(50))
		if batch := i / bs; batch == 1 || batch == 4 {
			x += 100 // the filter drops these batches whole
		}
		rows[i] = [2]int64{x, int64(rng.Intn(1000))}
		if x < 20 {
			want = append(want, data.Tuple{data.Int(rows[i][1]), data.Int(x + 1)})
		}
	}
	tb := makeTable2("t", rows)
	const limit = 700 // about 0.4 of a batch survives the filter: mid-vector in the second live batch
	for _, n := range []int64{-1, limit} {
		sc := NewScan(tb, "")
		f := NewFilter(sc, expr.Compare(expr.LT, expr.Column(sc.Schema(), "t", "x"), expr.IntLit(20)))
		var top Operator = NewProject(f, []expr.Expr{
			expr.Column(f.Schema(), "t", "y"),
			expr.Arith{Op: expr.Add, L: expr.Column(f.Schema(), "t", "x"), R: expr.IntLit(1)},
		}, []string{"y", "x1"})
		label, wantRows := "filter/project", want
		if n >= 0 {
			top, label, wantRows = NewLimit(top, n), "filter/project/limit", want[:n]
		}
		requireSameRows(t, wantRows, collect(t, top), label)
		if st := top.Stats(); st.Emitted.Load() != int64(len(wantRows)) || !st.IsDone() {
			t.Errorf("%s: emitted %d done=%v, want %d", label, st.Emitted.Load(), st.IsDone(), len(wantRows))
		}
		if n < 0 && (f.Stats().Emitted.Load() != int64(len(want)) || sc.Stats().Emitted.Load() != int64(len(rows))) {
			t.Errorf("%s: filter emitted %d of %d, scan %d of %d", label,
				f.Stats().Emitted.Load(), len(want), sc.Stats().Emitted.Load(), len(rows))
		}
	}
}

// TestHashAggBatchEquivalence: hash aggregation over integer, string and
// multi-column groups, over more than two batches' worth of groups and
// with no GROUP BY (NULL keys and NULL aggregate inputs included, fed
// through a filter so the input batches carry selection vectors, and
// pruned or not, a pruned scan carrying no rows) emits the input's
// groups in first-seen order with their aggregates, and its
// OnInputGroupCounts spans
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
			for _, pruned := range []bool{false, true} {
				op := mk()
				if pruned {
					Prune(op)
				}
				var spans []int64
				op.(*HashAgg).OnInputGroupCounts = func(ns []int64) { spans = append(spans, ns...) }
				requireSameRows(t, want, collect(t, op), fmt.Sprintf("%s, pruned %v", label, pruned))
				if !slices.Equal(spans, wantCounts) {
					t.Errorf("%s, pruned %v: the spans carry %d group counts, not the %d running counts of the input",
						label, pruned, len(spans), len(wantCounts))
				}
			}
		}
	}
}

// TestHashJoinBatchEquivalence: for every join type the join emits the
// grace-order reference rows, in its partition-clustered order, with
// exact counters.
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
	bt, pt := makeTable("a", build), makeTable("b", probe)
	for _, jt := range []JoinType{InnerJoin, ProbeOuterJoin, SemiJoin, AntiJoin} {
		j := NewHashJoinMulti(NewScan(bt, ""), NewScan(pt, ""), []int{0}, []int{0}, jt)
		label := fmt.Sprintf("%v join", jt)
		rows := collect(t, j)
		requireSameRows(t, graceOrder(bt, pt, []int{0}, jt, j.parts), rows, label)
		if st := j.Stats(); st.Emitted.Load() != int64(len(rows)) || !st.IsDone() ||
			j.BuildRows() != int64(len(build)) || j.ProbeRows() != int64(len(probe)) {
			t.Errorf("%s: emitted %d done=%v for %d rows; rows build=%d/%d probe=%d/%d", label, st.Emitted.Load(),
				st.IsDone(), len(rows), j.BuildRows(), len(build), j.ProbeRows(), len(probe))
		}
	}
}

// TestHashJoinNullKeysBatched checks the NULL-key rules: build NULLs
// never join, probe NULLs are preserved only by the probe-preserving join
// types.
func TestHashJoinNullKeysBatched(t *testing.T) {
	bt, pt := kvTable("a", []int64{1, 2, 2, 3, -1, -1}), kvTable("b", []int64{2, 3, 3, 4, -1, -1, -1})
	wantRows := map[JoinType]int{InnerJoin: 4, ProbeOuterJoin: 8, SemiJoin: 3, AntiJoin: 4}
	for _, jt := range []JoinType{InnerJoin, ProbeOuterJoin, SemiJoin, AntiJoin} {
		j := NewHashJoinMulti(NewScan(bt, ""), NewScan(pt, ""), []int{0}, []int{0}, jt)
		label := fmt.Sprintf("%v join nulls", jt)
		rows := collect(t, j)
		if len(rows) != wantRows[jt] || j.Stats().Emitted.Load() != int64(len(rows)) {
			t.Fatalf("%s: %d rows, %d emitted, want %d", label, len(rows), j.Stats().Emitted.Load(), wantRows[jt])
		}
		requireSameRows(t, graceOrder(bt, pt, []int{0}, jt, j.parts), rows, label)
	}
}

// TestHashJoinBatchHooks checks the hook ordering contract documented on
// HashJoin, with the join drained directly (columnar) and read a tuple at
// a time by a row operator, the outer input of a nested-loops join
// (tuple): the span hooks cover every input row; OnBuildEnd fires once
// between the passes and OnProbeEnd once after the probe pass; all of it
// before any output, which the row operator sees only in the join phase.
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
			var top Operator = j
			if !m.columnar {
				top = underRowOperator(&tap{Operator: j, f: func(cb *data.ColBatch) {
					inPhase("output batch", 2)
					outputs += cb.Live()
				}})
			}

			rows := collect(t, top)
			if buildSpanned != len(a) || probeSpanned != len(b) {
				t.Errorf("span hooks build=%d probe=%d, inputs %d/%d", buildSpanned, probeSpanned, len(a), len(b))
			}
			if buildEnds != 1 || probeEnds != 1 {
				t.Errorf("barriers fired build=%d probe=%d times, want once each", buildEnds, probeEnds)
			}
			if len(rows) == 0 || int64(len(rows)) != j.Stats().Emitted.Load() || !m.columnar && outputs != len(rows) {
				t.Errorf("the row operator read %d of the join's %d rows; %d emitted", outputs, j.Stats().Emitted.Load(), len(rows))
			}
			if got, want := j.Stats().Batches.Load(), (len(rows)+data.BatchSize()-1)/data.BatchSize(); got < int64(want) {
				t.Errorf("%d output batches for %d rows", got, len(rows))
			}
		})
	}
}

// underRowOperator returns op read a tuple at a time by a row operator: a
// cross nested-loops join with a one-row inner, whose rows are op's rows
// with that row's one column appended (see dropLast).
func underRowOperator(op Operator) *NestedLoopsJoin {
	return NewNestedLoopsJoin(op, NewScan(makeTable("one", []int64{1}), ""), nil)
}

// tap passes its child's batches through unchanged, calling f with each
// on its way up: what a test reads of the batches a parent pulls.
type tap struct {
	Operator
	f func(*data.ColBatch)
}

// Children makes the child itself part of the plan, so Bind and Walk
// reach it.
func (t *tap) Children() []Operator { return []Operator{t.Operator} }

// NextColBatch implements Operator.
func (t *tap) NextColBatch() (*data.ColBatch, error) {
	cb, err := t.Operator.NextColBatch()
	if cb != nil && t.f != nil {
		t.f(cb)
	}
	return cb, err
}

// dropLast cuts the column underRowOperator appends off every row.
func dropLast(rows []data.Tuple) []data.Tuple {
	out := make([]data.Tuple, len(rows))
	for i, r := range rows {
		out[i] = r[:len(r)-1]
	}
	return out
}

// refEquiJoin is the naive equijoin of two row sets on columns lk and
// rk: l ⧺ r for every matching pair, NULL keys never matching.
func refEquiJoin(left, right []data.Tuple, lk, rk int) []data.Tuple {
	var out []data.Tuple
	for _, l := range left {
		for _, r := range right {
			if !l[lk].IsNull() && data.Equal(l[lk], r[rk]) {
				out = append(out, l.Concat(r))
			}
		}
	}
	return out
}

// intRows renders a key column as single-column rows.
func intRows(vals []int64) []data.Tuple {
	out := make([]data.Tuple, len(vals))
	for i, v := range vals {
		out[i] = data.Tuple{data.Int(v)}
	}
	return out
}

// TestAdaptersCompose puts the row operators on the batch boundary under
// a hash join: a sort spilling runs, a sort-based aggregation and a merge
// join over two sorts each feed a build and a probe side through their
// row-backed batches. The rows must be the reference's, every operator
// must have emitted (Emitted) exactly the rows its parent read, and the
// span hooks must cover as many rows as the per-tuple hooks that preceded
// them fired (the counts below were recorded there): a sort's input
// batches add up to its input tuples and a merge join's output batches to
// its output tuples, while a partition pass counts its input batches.
func TestAdaptersCompose(t *testing.T) {
	a := randTable("a", 1500, 300, 23)
	b := randTable("b", 1200, 300, 24)
	cs := randTable("c", 900, 300, 25)
	aggRows := func(vals []int64) (out []data.Tuple) { // SELECT k, COUNT(*) GROUP BY k
		counts := map[int64]int64{}
		for _, v := range vals {
			counts[v]++
		}
		for k, n := range counts {
			out = append(out, data.Tuple{data.Int(k), data.Int(n)})
		}
		return out
	}
	type hooks struct{ sortInputs, mergeOutputs, buildSpans, probeSpans int }
	for _, c := range []struct {
		name         string
		build, probe func() Operator
		want         []data.Tuple
		fired        hooks
	}{
		{
			"sort, merge join",
			func() Operator { return NewSort(NewScan(makeTable("a", a), ""), 0) },
			func() Operator {
				mj, _, _ := NewSortMergeJoin(NewScan(makeTable("b", b), ""), NewScan(makeTable("c", cs), ""), 0, 0)
				return mj
			},
			refEquiJoin(intRows(a), refEquiJoin(intRows(b), intRows(cs), 0, 0), 0, 0),
			hooks{3600, 3719, 2, 4},
		},
		{
			"spilling sort, sort aggregation",
			func() Operator { return NewSort(NewScan(makeTable("a", a), ""), 0).SetMemoryBudget(4 << 10) },
			func() Operator {
				return NewSortAgg(NewScan(makeTable("b", b), ""), []int{0}, []AggSpec{{Func: CountStar}})
			},
			refEquiJoin(intRows(a), aggRows(b), 0, 0),
			hooks{2700, 0, 2, 1},
		},
		{
			"sort aggregation, spilling sort",
			func() Operator {
				return NewSortAgg(NewScan(makeTable("b", b), ""), []int{0}, []AggSpec{{Func: CountStar}})
			},
			func() Operator { return NewSort(NewScan(makeTable("a", a), ""), 0).SetMemoryBudget(4 << 10) },
			refEquiJoin(aggRows(b), intRows(a), 0, 0),
			hooks{2700, 0, 1, 2},
		},
	} {
		j := NewHashJoin(c.build(), c.probe(), 0, 0)
		var fired hooks
		Walk(j, func(op Operator) {
			switch o := op.(type) {
			case *Sort:
				o.OnInputCol = func(cb *data.ColBatch) { fired.sortInputs += cb.Live() }
			case *MergeJoin:
				o.OnOutputCol = func(cb *data.ColBatch) { fired.mergeOutputs += cb.Live() }
			}
		})
		j.OnBuildCol = func(*data.ColBatch) { fired.buildSpans++ }
		j.OnProbeCol = func(*data.ColBatch) { fired.probeSpans++ }
		rows := collect(t, j)
		if g, w := sortedStrings(rows), sortedStrings(c.want); !slices.Equal(g, w) {
			t.Fatalf("%s: %d rows, the reference %d", c.name, len(g), len(w))
		}
		if j.Stats().Emitted.Load() != int64(len(rows)) || j.BuildRows() != j.Build().Stats().Emitted.Load() ||
			j.ProbeRows() != j.Probe().Stats().Emitted.Load() {
			t.Errorf("%s: the join or its inputs emitted rows nobody read", c.name)
		}
		if fired != c.fired {
			t.Errorf("%s: hooks fired %+v, want %+v", c.name, fired, c.fired)
		}
		for _, op := range j.Children() {
			if s, ok := op.(*Sort); ok && s.memBudget > 0 && s.Stats().SpillFiles.Load() == 0 {
				t.Errorf("%s: the budgeted sort did not spill", c.name)
			}
		}
	}
}

// TestMixedModePlan reads a hash join a tuple at a time from a row
// operator — the outer input of a nested-loops join, under a filter — and
// the join's lane-native output must reach it whole.
func TestMixedModePlan(t *testing.T) {
	a := randTable("a", 1200, 60, 24)
	b := randTable("b", 1500, 60, 25)
	j := NewHashJoinOn(NewScan(makeTable("a", a), ""), NewScan(makeTable("b", b), ""), "a", "k", "b", "k")
	read := 0
	nl := NewIndexedNLJoin(&tap{Operator: j, f: func(cb *data.ColBatch) { read += cb.Live() }},
		NewScan(makeTable("c", []int64{3, 44, 44}), ""), 1, 0)
	f := NewFilter(nl, expr.Compare(expr.LT, expr.Column(nl.Schema(), "b", "k"), expr.IntLit(45)))
	ab := refEquiJoin(intRows(a), intRows(b), 0, 0)
	var want []data.Tuple
	for _, r := range refEquiJoin(ab, intRows([]int64{3, 44, 44}), 1, 0) {
		if r[1].I < 45 {
			want = append(want, r)
		}
	}
	got := collect(t, f)
	if g, w := sortedStrings(got), sortedStrings(want); !slices.Equal(g, w) || len(w) == 0 {
		t.Fatalf("join read by a row operator: %d rows, the reference %d", len(g), len(w))
	}
	if n := j.Stats().Emitted.Load(); n != int64(read) || n != int64(len(ab)) || !j.Stats().IsDone() {
		t.Errorf("the join emitted %d rows, the row operator read %d, done=%v", n, read, j.Stats().IsDone())
	}
}

// TestScanDoesNotSeeLaterInserts: rows appended to the table after a scan
// has opened are not returned by that scan, and the rows it does return
// are the ones that were there.
func TestScanDoesNotSeeLaterInserts(t *testing.T) {
	n := 2*data.BatchSize() + 50
	tb := laneTable("t", n)
	sc := NewScan(tb, "")
	if err := sc.Open(); err != nil {
		t.Fatal(err)
	}
	cb, err := sc.NextColBatch()
	if err != nil {
		t.Fatal(err)
	}
	rows := cb.ToTuples(nil)
	for _, r := range laneTable("more", 3*n).Rows() {
		tb.MustAppend(data.Tuple{data.Int(-1), r[1], r[2], r[3], data.Float(1), r[5]})
	}
	rest, err := Drain(sc)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, laneTable("t", n).Rows(), append(rows, rest...), "scan opened before the inserts")
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
}

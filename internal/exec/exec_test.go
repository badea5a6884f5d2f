package exec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"qpi/internal/data"
	"qpi/internal/expr"
	"qpi/internal/storage"
)

// makeTable builds a single-int-column table named name with column "k".
func makeTable(name string, vals []int64) *storage.Table {
	s := data.NewSchema(data.Column{Table: name, Name: "k", Kind: data.KindInt})
	t := storage.NewTable(name, s)
	for _, v := range vals {
		t.MustAppend(data.Tuple{data.Int(v)})
	}
	return t
}

// makeTable2 builds a two-int-column table (x, y).
func makeTable2(name string, rows [][2]int64) *storage.Table {
	s := data.NewSchema(
		data.Column{Table: name, Name: "x", Kind: data.KindInt},
		data.Column{Table: name, Name: "y", Kind: data.KindInt},
	)
	t := storage.NewTable(name, s)
	for _, r := range rows {
		t.MustAppend(data.Tuple{data.Int(r[0]), data.Int(r[1])})
	}
	return t
}

func collect(t *testing.T, op Operator) []data.Tuple {
	t.Helper()
	if err := op.Open(); err != nil {
		t.Fatalf("Open: %v", err)
	}
	rows, err := Drain(op)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := op.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return rows
}

func firstInts(rows []data.Tuple, col int) []int64 {
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r[col].I
	}
	return out
}

func TestScanSequential(t *testing.T) {
	sc := NewScan(makeTable("t", []int64{1, 2, 3}), "")
	rows := collect(t, sc)
	if got := firstInts(rows, 0); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("rows = %v", got)
	}
	if sc.Stats().Emitted.Load() != 3 || !sc.Stats().IsDone() {
		t.Errorf("stats = %+v", sc.Stats())
	}
	if sc.Stats().InputTotal != 3 {
		t.Errorf("InputTotal = %d", sc.Stats().InputTotal)
	}
}

func TestScanAliasRenamesSchema(t *testing.T) {
	sc := NewScan(makeTable("t", []int64{1}), "u")
	if sc.Schema().Resolve("u", "k") < 0 {
		t.Error("alias u not applied")
	}
	if sc.Schema().Resolve("t", "k") >= 0 {
		t.Error("original table name still resolvable")
	}
	if sc.Name() != "Scan(t AS u)" {
		t.Errorf("Name = %q", sc.Name())
	}
}

func TestScanSamplePunctuation(t *testing.T) {
	vals := make([]int64, 10*storage.BlockSize)
	for i := range vals {
		vals[i] = int64(i)
	}
	defer data.SetBatchSize(0)
	data.SetBatchSize(storage.BlockSize)
	sc := NewScan(makeTable("t", vals), "")
	sc.SampleFraction = 0.3
	sc.Seed = 7
	fired := -1
	seen := 0
	sc.OnBatch = func(rows int) { seen += rows }
	sc.OnSampleEnd = func() { fired = seen }
	rows := collect(t, sc)
	if len(rows) != len(vals) {
		t.Fatalf("emitted %d rows, want %d", len(rows), len(vals))
	}
	// The sample is three blocks: it ends with the third batch of a block.
	if want := 2 * storage.BlockSize; fired != want {
		t.Errorf("OnSampleEnd after %d rows of earlier batches, want %d", fired, want)
	}
}

func TestScanSampleEndFiresForZeroFraction(t *testing.T) {
	sc := NewScan(makeTable("t", []int64{1}), "")
	fired := false
	sc.OnSampleEnd = func() { fired = true }
	collect(t, sc)
	if fired {
		t.Error("OnSampleEnd should not fire when no sample configured")
	}
}

func TestScanInvalidFraction(t *testing.T) {
	for _, f := range []float64{-0.1, 1.5, math.NaN()} {
		sc := NewScan(makeTable("t", []int64{1}), "")
		sc.SampleFraction = f
		if err := sc.Open(); err == nil {
			t.Errorf("fraction %g accepted", f)
		}
	}
}

func TestScanFraction(t *testing.T) {
	defer data.SetBatchSize(0)
	data.SetBatchSize(2)
	sc := NewScan(makeTable("t", []int64{1, 2, 3, 4}), "")
	if err := sc.Open(); err != nil {
		t.Fatal(err)
	}
	sc.NextColBatch()
	if f := sc.Fraction(); f != 0.5 {
		t.Errorf("Fraction = %g, want 0.5", f)
	}
}

func TestFilter(t *testing.T) {
	sc := NewScan(makeTable("t", []int64{1, 2, 3, 4, 5}), "")
	f := NewFilter(sc, expr.Compare(expr.GT, expr.Column(sc.Schema(), "t", "k"), expr.IntLit(3)))
	rows := collect(t, f)
	if got := firstInts(rows, 0); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Errorf("rows = %v", got)
	}
	if f.Stats().Emitted.Load() != 2 {
		t.Errorf("Emitted = %d", f.Stats().Emitted.Load())
	}
}

// TestFilterAndAllocatesNothingWarm: a Filter over a two-term And —
// two columns, and the BETWEEN shape on one — narrows through its own
// selection buffer, so once warm a batch costs no allocation.
func TestFilterAndAllocatesNothingWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime adds allocations of its own")
	}
	rows := make([][2]int64, 64*data.BatchSize())
	for i := range rows {
		rows[i] = [2]int64{int64(i*7919) % 100, int64(i) % 13}
	}
	tb := makeTable2("t", rows)
	for _, pred := range []func(s *data.Schema) expr.Expr{
		func(s *data.Schema) expr.Expr {
			return expr.AndOf(expr.Compare(expr.LT, expr.Column(s, "t", "x"), expr.IntLit(50)),
				expr.Compare(expr.GT, expr.Column(s, "t", "y"), expr.IntLit(3)))
		},
		func(s *data.Schema) expr.Expr {
			x := expr.Column(s, "t", "x")
			return expr.AndOf(expr.Compare(expr.GE, x, expr.IntLit(25)), expr.Compare(expr.LE, x, expr.IntLit(74)))
		},
	} {
		sc := NewScan(tb, "")
		f := NewFilter(sc, pred(sc.Schema()))
		if err := f.Open(); err != nil {
			t.Fatal(err)
		}
		next := func() {
			if cb, err := f.NextColBatch(); err != nil || cb == nil || cb.Live() == 0 {
				t.Fatalf("%s: NextColBatch = %v, %v", f.Name(), cb, err)
			}
		}
		next()
		if allocs := testing.AllocsPerRun(32, next); allocs != 0 {
			t.Errorf("%s: %.1f allocations per batch once warm, want 0", f.Name(), allocs)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestProject(t *testing.T) {
	sc := NewScan(makeTable2("t", [][2]int64{{1, 10}, {2, 20}}), "")
	p := NewProject(sc,
		[]expr.Expr{
			expr.Column(sc.Schema(), "t", "y"),
			expr.Arith{Op: expr.Mul, L: expr.Column(sc.Schema(), "t", "x"), R: expr.IntLit(2)},
		},
		[]string{"y", "x2"})
	rows := collect(t, p)
	if len(rows) != 2 || rows[0][0].I != 10 || rows[0][1].I != 2 || rows[1][1].I != 4 {
		t.Errorf("rows = %v", rows)
	}
	if p.Schema().Resolve("", "x2") != 1 {
		t.Errorf("schema = %v", p.Schema())
	}
}

func TestProjectColumns(t *testing.T) {
	sc := NewScan(makeTable2("t", [][2]int64{{1, 10}}), "")
	p := ProjectColumns(sc, [2]string{"t", "y"})
	rows := collect(t, p)
	if len(rows) != 1 || rows[0][0].I != 10 {
		t.Errorf("rows = %v", rows)
	}
}

func TestProjectArityPanics(t *testing.T) {
	sc := NewScan(makeTable("t", nil), "")
	defer func() {
		if recover() == nil {
			t.Error("no panic on arity mismatch")
		}
	}()
	NewProject(sc, []expr.Expr{expr.IntLit(1)}, []string{"a", "b"})
}

func TestLimit(t *testing.T) {
	sc := NewScan(makeTable("t", []int64{1, 2, 3, 4}), "")
	l := NewLimit(sc, 2)
	rows := collect(t, l)
	if len(rows) != 2 {
		t.Errorf("rows = %v", rows)
	}
}

// bruteJoin computes the expected equijoin result counts.
func bruteJoinCount(a, b []int64) int64 {
	counts := map[int64]int64{}
	for _, v := range a {
		counts[v]++
	}
	var n int64
	for _, v := range b {
		n += counts[v]
	}
	return n
}

func TestHashJoinCorrectness(t *testing.T) {
	a := []int64{1, 2, 2, 3, 5, 5, 5}
	b := []int64{2, 3, 3, 5, 9}
	j := NewHashJoinOn(
		NewScan(makeTable("a", a), ""),
		NewScan(makeTable("b", b), ""),
		"a", "k", "b", "k")
	rows := collect(t, j)
	if int64(len(rows)) != bruteJoinCount(a, b) {
		t.Errorf("join size = %d, want %d", len(rows), bruteJoinCount(a, b))
	}
	for _, r := range rows {
		if r[0].I != r[1].I {
			t.Fatalf("joined mismatched keys: %v", r)
		}
	}
	if j.BuildRows() != int64(len(a)) || j.ProbeRows() != int64(len(b)) {
		t.Errorf("BuildRows/ProbeRows = %d/%d", j.BuildRows(), j.ProbeRows())
	}
}

func TestHashJoinEmptyInputs(t *testing.T) {
	j := NewHashJoinOn(
		NewScan(makeTable("a", nil), ""),
		NewScan(makeTable("b", []int64{1}), ""),
		"a", "k", "b", "k")
	if rows := collect(t, j); len(rows) != 0 {
		t.Errorf("rows = %v", rows)
	}
	j2 := NewHashJoinOn(
		NewScan(makeTable("a", []int64{1}), ""),
		NewScan(makeTable("b", nil), ""),
		"a", "k", "b", "k")
	if rows := collect(t, j2); len(rows) != 0 {
		t.Errorf("rows = %v", rows)
	}
}

func TestHashJoinNullKeysDoNotJoin(t *testing.T) {
	s := data.NewSchema(data.Column{Table: "a", Name: "k", Kind: data.KindInt})
	ta := storage.NewTable("a", s)
	ta.MustAppend(data.Tuple{data.Null()})
	ta.MustAppend(data.Tuple{data.Int(1)})
	sb := data.NewSchema(data.Column{Table: "b", Name: "k", Kind: data.KindInt})
	tb := storage.NewTable("b", sb)
	tb.MustAppend(data.Tuple{data.Null()})
	tb.MustAppend(data.Tuple{data.Int(1)})
	j := NewHashJoinOn(NewScan(ta, ""), NewScan(tb, ""), "a", "k", "b", "k")
	rows := collect(t, j)
	if len(rows) != 1 || rows[0][0].I != 1 {
		t.Errorf("rows = %v", rows)
	}
}

func TestHashJoinHookOrdering(t *testing.T) {
	// Every build span must fire before OnBuildEnd, which fires before any
	// probe span; every probe span before OnProbeEnd; OnProbeEnd before
	// the first output tuple.
	j := NewHashJoinOn(
		NewScan(makeTable("a", []int64{1, 2}), ""),
		NewScan(makeTable("b", []int64{1, 2, 2}), ""),
		"a", "k", "b", "k")
	var events []string
	j.OnBuildCol = func(cb *data.ColBatch) { events = append(events, fmt.Sprintf("b%d", cb.Live())) }
	j.OnBuildEnd = func() { events = append(events, "build-end") }
	j.OnProbeCol = func(cb *data.ColBatch) { events = append(events, fmt.Sprintf("p%d", cb.Live())) }
	j.OnProbeEnd = func() { events = append(events, "end") }
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	cb, err := j.NextColBatch()
	if err != nil || cb == nil {
		t.Fatalf("first NextColBatch = %v, %v", cb, err)
	}
	want := []string{"b2", "build-end", "p3", "end"}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	j.Close()
}

func TestHashJoinOutputClusteredByPartition(t *testing.T) {
	// The grace join must emit whole partitions at a time: the partition
	// id sequence of the output must never revisit an earlier partition.
	var vals []int64
	for i := int64(0); i < 500; i++ {
		vals = append(vals, i%50)
	}
	j := NewHashJoinOn(
		NewScan(makeTable("a", vals), ""),
		NewScan(makeTable("b", vals), ""),
		"a", "k", "b", "k").SetPartitions(8)
	rows := collect(t, j)
	seen := map[int]bool{}
	cur := -1
	for _, r := range rows {
		p := partitionOf(hashValue(r[0]), 8)
		if p != cur {
			if seen[p] {
				t.Fatalf("partition %d revisited", p)
			}
			seen[p] = true
			cur = p
		}
	}
}

func TestHashJoinStatsEstimate(t *testing.T) {
	j := NewHashJoinOn(
		NewScan(makeTable("a", []int64{1}), ""),
		NewScan(makeTable("b", []int64{1, 1}), ""),
		"a", "k", "b", "k")
	j.Stats().SetEstimate(42, "optimizer")
	if j.Stats().Total() != 42 {
		t.Errorf("Total = %g", j.Stats().Total())
	}
	rows := collect(t, j)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if j.Stats().Total() != 2 { // done → exact
		t.Errorf("Total after done = %g", j.Stats().Total())
	}
}

func TestSortOrdersAndHooks(t *testing.T) {
	sc := NewScan(makeTable("t", []int64{3, 1, 2}), "")
	s := NewSort(sc, 0)
	var seen []int64
	endFired := false
	s.OnInput = func(tu data.Tuple) { seen = append(seen, tu[0].I) }
	s.OnInputEnd = func() { endFired = len(seen) == 3 }
	rows := collect(t, s)
	if got := firstInts(rows, 0); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("sorted = %v", got)
	}
	if !endFired {
		t.Error("OnInputEnd did not fire after all input")
	}
}

func TestMergeJoinMatchesHashJoin(t *testing.T) {
	a := []int64{5, 1, 3, 3, 7, 3}
	b := []int64{3, 3, 1, 9, 5, 5}
	mj, _, _ := NewSortMergeJoin(
		NewScan(makeTable("a", a), ""),
		NewScan(makeTable("b", b), ""),
		0, 0)
	rows := collect(t, mj)
	if int64(len(rows)) != bruteJoinCount(a, b) {
		t.Errorf("merge join size = %d, want %d", len(rows), bruteJoinCount(a, b))
	}
	for _, r := range rows {
		if r[0].I != r[1].I {
			t.Fatalf("mismatched keys: %v", r)
		}
	}
}

func TestMergeJoinDuplicateGroups(t *testing.T) {
	// 3 left copies x 2 right copies of key 4 → 6 outputs.
	mj, _, _ := NewSortMergeJoin(
		NewScan(makeTable("a", []int64{4, 4, 4}), ""),
		NewScan(makeTable("b", []int64{4, 4}), ""),
		0, 0)
	rows := collect(t, mj)
	if len(rows) != 6 {
		t.Errorf("rows = %d, want 6", len(rows))
	}
}

func TestMergeJoinNullKeys(t *testing.T) {
	s := data.NewSchema(data.Column{Table: "a", Name: "k", Kind: data.KindInt})
	ta := storage.NewTable("a", s)
	ta.MustAppend(data.Tuple{data.Null()})
	ta.MustAppend(data.Tuple{data.Int(2)})
	sb := data.NewSchema(data.Column{Table: "b", Name: "k", Kind: data.KindInt})
	tb := storage.NewTable("b", sb)
	tb.MustAppend(data.Tuple{data.Null()})
	tb.MustAppend(data.Tuple{data.Int(2)})
	mj, _, _ := NewSortMergeJoin(NewScan(ta, ""), NewScan(tb, ""), 0, 0)
	rows := collect(t, mj)
	if len(rows) != 1 || rows[0][0].I != 2 {
		t.Errorf("rows = %v", rows)
	}
}

func TestMergeJoinEmpty(t *testing.T) {
	mj, _, _ := NewSortMergeJoin(
		NewScan(makeTable("a", nil), ""),
		NewScan(makeTable("b", []int64{1}), ""),
		0, 0)
	if rows := collect(t, mj); len(rows) != 0 {
		t.Errorf("rows = %v", rows)
	}
}

func TestIndexedNLJoin(t *testing.T) {
	a := []int64{1, 2, 2, 9}
	b := []int64{2, 2, 1}
	j := NewIndexedNLJoin(
		NewScan(makeTable("a", a), ""),
		NewScan(makeTable("b", b), ""),
		0, 0)
	rows := collect(t, j)
	if int64(len(rows)) != bruteJoinCount(b, a) {
		t.Errorf("rows = %d, want %d", len(rows), bruteJoinCount(b, a))
	}
}

func TestThetaNLJoin(t *testing.T) {
	outer := NewScan(makeTable("a", []int64{1, 2, 3}), "")
	inner := NewScan(makeTable("b", []int64{2, 3}), "")
	sch := outer.Schema().Concat(inner.Schema())
	pred := expr.Compare(expr.LT,
		expr.Col{Index: sch.MustResolve("a", "k")},
		expr.Col{Index: sch.MustResolve("b", "k")})
	j := NewNestedLoopsJoin(outer, inner, pred)
	rows := collect(t, j)
	// pairs with a.k < b.k: (1,2),(1,3),(2,3) = 3
	if len(rows) != 3 {
		t.Errorf("rows = %v", rows)
	}
}

func TestCrossNLJoin(t *testing.T) {
	j := NewNestedLoopsJoin(
		NewScan(makeTable("a", []int64{1, 2}), ""),
		NewScan(makeTable("b", []int64{10, 20, 30}), ""),
		nil)
	rows := collect(t, j)
	if len(rows) != 6 {
		t.Errorf("rows = %d, want 6", len(rows))
	}
}

func TestNLJoinHooks(t *testing.T) {
	j := NewIndexedNLJoin(
		NewScan(makeTable("a", []int64{1, 2}), ""),
		NewScan(makeTable("b", []int64{1}), ""),
		0, 0)
	var outer, inner int
	j.OnOuterTuple = func(data.Tuple) { outer++ }
	j.OnInnerTuple = func(data.Tuple) { inner++ }
	collect(t, j)
	if outer != 2 || inner != 1 {
		t.Errorf("hooks outer=%d inner=%d", outer, inner)
	}
}

func TestHashAggBasic(t *testing.T) {
	tb := makeTable2("t", [][2]int64{{1, 10}, {1, 20}, {2, 5}, {1, 30}})
	sc := NewScan(tb, "")
	agg := NewHashAgg(sc, []int{0}, []AggSpec{
		{Func: CountStar, Name: "cnt"},
		{Func: Sum, Col: 1, Name: "sum_y"},
		{Func: Min, Col: 1, Name: "min_y"},
		{Func: Max, Col: 1, Name: "max_y"},
		{Func: Avg, Col: 1, Name: "avg_y"},
	})
	rows := collect(t, agg)
	if len(rows) != 2 {
		t.Fatalf("groups = %d, want 2", len(rows))
	}
	byKey := map[int64]data.Tuple{}
	for _, r := range rows {
		byKey[r[0].I] = r
	}
	g1 := byKey[1]
	if g1[1].I != 3 || g1[2].F != 60 || g1[3].I != 10 || g1[4].I != 30 || g1[5].F != 20 {
		t.Errorf("group 1 = %v", g1)
	}
	g2 := byKey[2]
	if g2[1].I != 1 || g2[2].F != 5 {
		t.Errorf("group 2 = %v", g2)
	}
	if agg.InputRows() != 4 {
		t.Errorf("InputRows = %d", agg.InputRows())
	}
}

func TestHashAggHook(t *testing.T) {
	sc := NewScan(makeTable("t", []int64{1, 1, 2}), "")
	agg := NewHashAgg(sc, []int{0}, []AggSpec{{Func: CountStar}})
	var counts []int64
	var atEnd []int64
	agg.OnInputGroupCounts = func(ns []int64) { counts = append(counts, ns...) }
	agg.OnInputEnd = func() { atEnd = append([]int64(nil), counts...) }
	collect(t, agg)
	if want := []int64{1, 2, 1}; !reflect.DeepEqual(atEnd, want) {
		t.Errorf("group counts before OnInputEnd = %v, want %v", atEnd, want)
	}
}

// TestHashAggAllocatesLessThanOncePerGroup: a COUNT(*) aggregation drained
// through NextColBatch keeps its groups in lanes and emits windows of
// them, so it allocates far less than once per group — a struct or an
// output row per group would be one allocation each.
func TestHashAggAllocatesLessThanOncePerGroup(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime adds allocations of its own")
	}
	const groups = 4000
	keys := make([]int64, 4*groups)
	for i := range keys {
		keys[i] = int64(i*7919) % groups
	}
	tb := makeTable("t", keys)
	allocs := testing.AllocsPerRun(5, func() {
		n, err := Run(NewHashAgg(NewScan(tb, ""), []int{0}, []AggSpec{{Func: CountStar}}))
		if err != nil || n != groups {
			t.Fatalf("Run = %d, %v; want %d groups", n, err, groups)
		}
	})
	if allocs >= groups {
		t.Errorf("%.0f allocations for %d groups, want fewer than one per group", allocs, groups)
	}
}

func TestSortAggMatchesHashAgg(t *testing.T) {
	var rows [][2]int64
	for i := int64(0); i < 200; i++ {
		rows = append(rows, [2]int64{i % 17, i})
	}
	tb := makeTable2("t", rows)
	h := NewHashAgg(NewScan(tb, ""), []int{0}, []AggSpec{
		{Func: CountStar, Name: "cnt"}, {Func: Sum, Col: 1, Name: "s"},
	})
	s := NewSortAgg(NewScan(tb, ""), []int{0}, []AggSpec{
		{Func: CountStar, Name: "cnt"}, {Func: Sum, Col: 1, Name: "s"},
	})
	hr, sr := collect(t, h), collect(t, s)
	if len(hr) != len(sr) {
		t.Fatalf("group counts differ: %d vs %d", len(hr), len(sr))
	}
	key := func(r data.Tuple) int64 { return r[0].I }
	sort.Slice(hr, func(i, j int) bool { return key(hr[i]) < key(hr[j]) })
	sort.Slice(sr, func(i, j int) bool { return key(sr[i]) < key(sr[j]) })
	for i := range hr {
		if hr[i][0].I != sr[i][0].I || hr[i][1].I != sr[i][1].I || hr[i][2].F != sr[i][2].F {
			t.Fatalf("group %d: hash %v vs sort %v", i, hr[i], sr[i])
		}
	}
	// Over no input, both give a scalar aggregate its one row.
	empty := makeTable2("e", nil)
	specs := []AggSpec{{Func: CountStar, Name: "cnt"}, {Func: Sum, Col: 1, Name: "s"}}
	for _, op := range []Operator{NewHashAgg(NewScan(empty, ""), nil, specs), NewSortAgg(NewScan(empty, ""), nil, specs)} {
		if rows := collect(t, op); len(rows) != 1 || rows[0][0] != data.Int(0) || !rows[0][1].IsNull() {
			t.Errorf("%s over no input = %v, want [[0 NULL]]", op.Name(), rows)
		}
	}
}

func TestMultiColumnGroupBy(t *testing.T) {
	tb := makeTable2("t", [][2]int64{{1, 1}, {1, 1}, {1, 2}, {2, 1}})
	agg := NewHashAgg(NewScan(tb, ""), []int{0, 1}, []AggSpec{{Func: CountStar, Name: "c"}})
	rows := collect(t, agg)
	if len(rows) != 3 {
		t.Errorf("groups = %d, want 3", len(rows))
	}
}

func TestAggNullHandling(t *testing.T) {
	s := data.NewSchema(
		data.Column{Table: "t", Name: "g", Kind: data.KindInt},
		data.Column{Table: "t", Name: "v", Kind: data.KindInt},
	)
	tb := storage.NewTable("t", s)
	tb.MustAppend(data.Tuple{data.Int(1), data.Null()})
	tb.MustAppend(data.Tuple{data.Int(1), data.Int(5)})
	agg := NewHashAgg(NewScan(tb, ""), []int{0}, []AggSpec{
		{Func: CountStar, Name: "star"},
		{Func: Count, Col: 1, Name: "cnt"},
		{Func: Sum, Col: 1, Name: "sum"},
	})
	rows := collect(t, agg)
	if len(rows) != 1 {
		t.Fatalf("groups = %d", len(rows))
	}
	r := rows[0]
	if r[1].I != 2 || r[2].I != 1 || r[3].F != 5 {
		t.Errorf("row = %v", r)
	}
}

func TestRunAndWalk(t *testing.T) {
	j := NewHashJoinOn(
		NewScan(makeTable("a", []int64{1, 2}), ""),
		NewScan(makeTable("b", []int64{1, 2, 2}), ""),
		"a", "k", "b", "k")
	n, err := Run(j)
	if err != nil || n != 3 {
		t.Fatalf("Run = %d, %v", n, err)
	}
	var names []string
	Walk(j, func(op Operator) { names = append(names, op.Name()) })
	if len(names) != 3 {
		t.Errorf("Walk visited %v", names)
	}
}

func TestEmittedCountsEqualGetnextCalls(t *testing.T) {
	// gnm invariant: an operator's Emitted equals the number of live rows
	// of the batches its parent observed.
	sc := NewScan(makeTable("t", []int64{1, 2, 3}), "")
	f := NewFilter(sc, expr.Compare(expr.GE, expr.Col{Index: 0}, expr.IntLit(2)))
	if n := len(collect(t, f)); int64(n) != f.Stats().Emitted.Load() {
		t.Errorf("parent saw %d, Emitted = %d", n, f.Stats().Emitted.Load())
	}
	if sc.Stats().Emitted.Load() != 3 {
		t.Errorf("scan Emitted = %d", sc.Stats().Emitted.Load())
	}
}

// TestJoinAlgorithmEquivalence: the three equijoin algorithms must agree
// on output multiset for random inputs — the classic engine invariant.
func TestJoinAlgorithmEquivalence(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(900 + trial)))
		na, nb := 100+rng.Intn(400), 100+rng.Intn(400)
		dom := 1 + rng.Intn(60)
		a := make([]int64, na)
		b := make([]int64, nb)
		for i := range a {
			a[i] = int64(rng.Intn(dom))
		}
		for i := range b {
			b[i] = int64(rng.Intn(dom))
		}
		multiset := func(rows []data.Tuple, l, r int) map[[2]int64]int {
			m := map[[2]int64]int{}
			for _, t := range rows {
				m[[2]int64{t[l].I, t[r].I}]++
			}
			return m
		}
		hj := NewHashJoinOn(NewScan(makeTable("a", a), ""), NewScan(makeTable("b", b), ""), "a", "k", "b", "k")
		hjRows := collect(t, hj)
		mj, _, _ := NewSortMergeJoin(NewScan(makeTable("a", a), ""), NewScan(makeTable("b", b), ""), 0, 0)
		mjRows := collect(t, mj)
		nl := NewIndexedNLJoin(NewScan(makeTable("b", b), ""), NewScan(makeTable("a", a), ""), 0, 0)
		nlRows := collect(t, nl)

		h := multiset(hjRows, 0, 1)
		m := multiset(mjRows, 0, 1)
		n := multiset(nlRows, 1, 0) // NL output is outer⧺inner = b⧺a
		if len(h) != len(m) || len(h) != len(n) {
			t.Fatalf("trial %d: key-pair counts differ: %d/%d/%d", trial, len(h), len(m), len(n))
		}
		for k, c := range h {
			if m[k] != c || n[k] != c {
				t.Fatalf("trial %d: pair %v: hash %d merge %d nl %d", trial, k, c, m[k], n[k])
			}
		}
	}
}

func TestOperatorNamesAndAccessors(t *testing.T) {
	sc := NewScan(makeTable("t", []int64{1, 2}), "")
	f := NewFilter(sc, alwaysTrueExpr{})
	if f.Name() != "Filter(true)" || f.Pred() == nil || len(f.Children()) != 1 {
		t.Errorf("filter accessors: %q", f.Name())
	}
	agg := NewHashAgg(NewScan(makeTable("t", []int64{1, 1, 2}), ""), []int{0},
		[]AggSpec{{Func: CountStar}})
	if agg.Name() != "HashAgg([0])" || len(agg.Children()) != 1 ||
		len(agg.GroupBy()) != 1 || agg.Child() == nil {
		t.Errorf("hashagg accessors: %q", agg.Name())
	}
	if agg.GroupsSeen() != 0 {
		t.Error("groups before execution")
	}
	if err := agg.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := Drain(agg); err != nil {
		t.Fatal(err)
	}
	if agg.GroupsSeen() != 2 { // inspect before Close releases the table
		t.Errorf("GroupsSeen = %d", agg.GroupsSeen())
	}
	agg.Close()
	sagg := NewSortAgg(NewScan(makeTable("t", []int64{1}), ""), []int{0},
		[]AggSpec{{Func: CountStar}})
	if sagg.Name() != "SortAgg([0])" || sagg.Sorter() == nil ||
		len(sagg.GroupBy()) != 1 || len(sagg.Children()) != 1 {
		t.Errorf("sortagg accessors: %q", sagg.Name())
	}
	for f, want := range map[AggFunc]string{
		CountStar: "COUNT(*)", Count: "COUNT", Sum: "SUM",
		Min: "MIN", Max: "MAX", Avg: "AVG",
	} {
		if f.String() != want {
			t.Errorf("AggFunc(%d).String() = %q", f, f.String())
		}
	}
	nl := NewNestedLoopsJoin(NewScan(makeTable("a", nil), ""), NewScan(makeTable("b", nil), ""), nil)
	if nl.Name() != "NLJoin(cross)" {
		t.Errorf("cross name = %q", nl.Name())
	}
	nl2 := NewNestedLoopsJoin(NewScan(makeTable("a", nil), ""), NewScan(makeTable("b", nil), ""),
		alwaysTrueExpr{})
	if nl2.Name() != "NLJoin(true)" {
		t.Errorf("theta name = %q", nl2.Name())
	}
	inl := NewIndexedNLJoin(NewScan(makeTable("a", nil), ""), NewScan(makeTable("b", nil), ""), 0, 0)
	if inl.Name() != "IndexedNLJoin(a.k = b.k)" || inl.Outer() == nil || inl.Inner() == nil {
		t.Errorf("indexed name = %q", inl.Name())
	}
	mj, ls, rs := NewSortMergeJoin(NewScan(makeTable("a", nil), ""), NewScan(makeTable("b", nil), ""), 0, 0)
	if mj.Name() != "MergeJoin(a.k = b.k)" || ls.Name() != "Sort([0])" || rs == nil {
		t.Errorf("merge names: %q %q", mj.Name(), ls.Name())
	}
	if mj.LeftKey() != 0 || mj.RightKey() != 0 || mj.Left() != Operator(ls) {
		t.Error("merge accessors")
	}
}

func TestStatsTotalFloors(t *testing.T) {
	var s Stats
	s.Emitted.Store(10)
	s.SetEstimate(5, "optimizer") // estimate below observed: floor at emitted
	if s.Total() != 10 {
		t.Errorf("Total = %g", s.Total())
	}
	s.SetEstimate(20, "once")
	if s.Total() != 20 {
		t.Errorf("Total = %g", s.Total())
	}
	s.MarkDone()
	if s.Total() != 10 {
		t.Errorf("done Total = %g", s.Total())
	}
}

// TestSetEstimateInternedSourcesDoNotAllocate: publishing an estimate
// under one of the interned sources is on every estimator's publish path
// and must not allocate; a source outside the set still round-trips.
func TestSetEstimateInternedSourcesDoNotAllocate(t *testing.T) {
	var st Stats
	if n := testing.AllocsPerRun(100, func() { st.SetEstimate(1, "once") }); n != 0 {
		t.Errorf("SetEstimate with an interned source allocates %g times a call", n)
	}
	st.SetEstimate(2, "agg-pushdown")
	if st.Estimate() != 2 || st.Source() != "agg-pushdown" {
		t.Errorf("un-interned source read back as %g %q", st.Estimate(), st.Source())
	}
}

package qpi

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"qpi/internal/data"
	"qpi/internal/exec"
)

// keyRanges returns the build-key range of every hash join of q's plan
// that has one.
func keyRanges(q *Query) []exec.KeyRange {
	var out []exec.KeyRange
	exec.Walk(q.root, func(op exec.Operator) {
		if j, ok := op.(*exec.HashJoin); ok && j.Stats().BuildKeyRange.Known {
			out = append(out, j.Stats().BuildKeyRange)
		}
	})
	return out
}

// TestStaleKeyRangeKeepsJoinsExact: rows inserted after ANALYZE carry keys
// past the analyzed range, below and above it, on both sides of the join.
// The build histogram counts the range in its flat lane and everything
// else in its hash table, so the stale range costs speed only: the rows
// are the join's, and the once estimate ends exact.
func TestStaleKeyRangeKeepsJoinsExact(t *testing.T) {
	e := New()
	dim, err := e.CreateTable("dim", ColumnDef{Name: "k", Type: "int"}, ColumnDef{Name: "v", Type: "int"})
	if err != nil {
		t.Fatal(err)
	}
	fact, err := e.CreateTable("fact", ColumnDef{Name: "k", Type: "int"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	dimCount := map[int]int{}
	addDim := func(k int) {
		for c := 0; c < 1+k%3; c++ { // 1–3 rows a key
			if err := dim.Insert(k, c); err != nil {
				t.Fatal(err)
			}
			dimCount[k]++
		}
	}
	var factKeys []int
	addFact := func(k int) {
		if err := fact.Insert(k); err != nil {
			t.Fatal(err)
		}
		factKeys = append(factKeys, k)
	}
	for k := 1; k <= 200; k++ {
		addDim(k)
	}
	for i := 0; i < 3000; i++ {
		addFact(1 + rng.Intn(200))
	}
	for _, name := range []string{"dim", "fact"} {
		if err := e.Analyze(name); err != nil {
			t.Fatal(err)
		}
	}
	for k := 201; k <= 300; k++ {
		addDim(k)
	}
	addDim(-7)
	for i := 0; i < 2000; i++ {
		addFact(-7 + rng.Intn(320))
	}
	want := 0
	var wantRows []string
	for _, k := range factKeys {
		for c := 0; c < dimCount[k]; c++ {
			want++
			wantRows = append(wantRows, fmt.Sprint(k, c))
		}
	}
	q, err := e.Query("SELECT f.k, d.v FROM fact f JOIN dim d ON f.k = d.k")
	if err != nil {
		t.Fatal(err)
	}
	ranges := keyRanges(q)
	if len(ranges) != 1 || ranges[0].Hi != 200 {
		t.Fatalf("build key ranges %+v, want the analyzed [1, 200]", ranges)
	}
	rows, err := q.Rows()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range rows {
		got = append(got, fmt.Sprint(r[0], r[1]))
	}
	slices.Sort(got)
	slices.Sort(wantRows)
	if !slices.Equal(got, wantRows) {
		t.Fatalf("%d rows, want %d (or they differ)", len(got), len(wantRows))
	}
	// The published estimate itself: a finished operator's reported total
	// is its emitted count whatever the estimators said.
	exec.Walk(q.root, func(op exec.Operator) {
		if j, ok := op.(*exec.HashJoin); ok {
			if st := j.Stats(); st.Source() != "once-exact" || st.Estimate() != float64(want) {
				t.Errorf("join estimate %v (%s), want once-exact %d", st.Estimate(), st.Source(), want)
			}
		}
	})
}

// TestKeyRangesDoNotMoveEstimates runs the skewed Q8 pipeline with the
// catalog's key ranges, so most build histograms count in a flat lane,
// and again with every range cleared, so they all hash: every operator's
// published estimate (bit for bit), its source and its emitted count at
// every progress report, the recompute and probe counts, and the row
// count are the same. Both runs share the process's join hash seed, which
// fixes the probe order the estimates follow.
func TestKeyRangesDoNotMoveEstimates(t *testing.T) {
	eng := New()
	eng.MustLoadTPCH(TPCHConfig{SF: 0.002, Seed: 1, Skew: 2})
	ranged, err := eng.Compile(q8Node(eng))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(keyRanges(ranged)); n < 5 {
		t.Fatalf("%d of Q8's seven joins have a build key range", n)
	}
	for _, name := range eng.Tables() {
		entry, err := eng.cat.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, cs := range entry.Stats.Columns {
			cs.Min, cs.Max = data.Null(), data.Null()
		}
	}
	hashed, err := eng.Compile(q8Node(eng))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(keyRanges(hashed)); n != 0 {
		t.Fatalf("%d joins keep a key range after the catalog lost them", n)
	}
	run := func(q *Query) (reports []string, m Metrics, rows int64) {
		rows, err := q.Run(nil, WithProgress(func(Report) {
			var r []string
			exec.Walk(q.root, func(op exec.Operator) {
				st := op.Stats()
				r = append(r, fmt.Sprintf("%x %s %d", math.Float64bits(st.Estimate()), st.Source(), st.Emitted.Load()))
			})
			reports = append(reports, fmt.Sprint(r))
		}, 1), WithMetrics(&m))
		if err != nil {
			t.Fatal(err)
		}
		return reports, m, rows
	}
	rr, rm, rrows := run(ranged)
	hr, hm, hrows := run(hashed)
	if len(rr) < 10 || !slices.Equal(rr, hr) {
		t.Errorf("%d progress reports ranged, %d hashed, or their estimates differ", len(rr), len(hr))
	}
	if rm.EstimatorRecomputes != hm.EstimatorRecomputes || rm.HistogramProbes != hm.HistogramProbes {
		t.Errorf("recomputes %d / probes %d ranged, %d / %d hashed",
			rm.EstimatorRecomputes, rm.HistogramProbes, hm.EstimatorRecomputes, hm.HistogramProbes)
	}
	if rrows != hrows {
		t.Errorf("%d rows ranged, %d hashed", rrows, hrows)
	}
}

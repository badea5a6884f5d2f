package qpi

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// End-to-end mode equivalence at the public API: the same SQL over the
// same tables must return the result an independent evaluation of the
// inserted rows gives, whether it runs in memory, spilling, or without
// the estimators attached.
// This is the user-visible face of the differential suite in
// internal/difftest.

// fuzzRow is one inserted (k, v) row; k is an int64 or nil.
type fuzzRow struct {
	k any
	v int64
}

// fuzzEngine loads two random tables r and s and returns their rows.
func fuzzEngine(t testing.TB, seed int64, rows, dom int) (*Engine, map[string][]fuzzRow) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e := New()
	inserted := map[string][]fuzzRow{}
	for _, name := range []string{"r", "s"} {
		tb, err := e.CreateTable(name,
			ColumnDef{Name: "k", Type: "int"},
			ColumnDef{Name: "v", Type: "int"},
		)
		if err != nil {
			t.Fatal(err)
		}
		n := 1 + rng.Intn(rows)
		for i := 0; i < n; i++ {
			var k any
			if rng.Float64() >= 0.15 {
				k = int64(rng.Intn(dom))
			}
			v := int64(rng.Intn(8))
			if err := tb.Insert(k, v); err != nil {
				t.Fatal(err)
			}
			inserted[name] = append(inserted[name], fuzzRow{k, v})
		}
		if err := e.Analyze(name); err != nil {
			t.Fatal(err)
		}
	}
	return e, inserted
}

// joinOracle evaluates fuzzModesSQL by nested loops: NULL keys never join.
func joinOracle(tables map[string][]fuzzRow) []string {
	var out []string
	for _, r := range tables["r"] {
		for _, s := range tables["s"] {
			if r.k != nil && r.k == s.k {
				out = append(out, fmt.Sprint(r.k, s.v))
			}
		}
	}
	sort.Strings(out)
	return out
}

// groupOracle evaluates fuzzGroupSQL over the same join.
func groupOracle(tables map[string][]fuzzRow) []string {
	type acc struct {
		n   int64
		sum float64
	}
	groups := map[any]*acc{}
	for _, r := range tables["r"] {
		for _, s := range tables["s"] {
			if r.k == nil || r.k != s.k {
				continue
			}
			g := groups[r.k]
			if g == nil {
				g = &acc{}
				groups[r.k] = g
			}
			g.n++
			g.sum += float64(s.v)
		}
	}
	var out []string
	for k, g := range groups {
		out = append(out, fmt.Sprint(k, g.n, g.sum))
	}
	sort.Strings(out)
	return out
}

func rowsMultiset(t testing.TB, q *Query) []string {
	t.Helper()
	rows, err := q.Rows()
	if err != nil {
		t.Fatalf("Rows: %v", err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r...)
	}
	sort.Strings(out)
	return out
}

func checkQueryModes(t *testing.T, seed int64, rows, dom int, sql string, oracle func(map[string][]fuzzRow) []string) {
	t.Helper()
	e, tables := fuzzEngine(t, seed, rows, dom)
	want := oracle(tables)
	for _, opt := range []struct {
		name string
		co   []CompileOption
	}{
		{"default", nil},
		{"spill", []CompileOption{WithMemoryBudget(128)}},
		{"no-estimators", []CompileOption{WithoutEstimators()}},
	} {
		got := rowsMultiset(t, e.MustQuery(sql, opt.co...))
		if len(got) != len(want) {
			t.Fatalf("seed %d %s: %d rows, oracle says %d", seed, opt.name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d %s: row %d = %q, oracle says %q", seed, opt.name, i, got[i], want[i])
			}
		}
	}
}

const (
	fuzzModesSQL = "SELECT r.k, s.v FROM r JOIN s ON r.k = s.k"
	fuzzGroupSQL = "SELECT r.k, COUNT(*), SUM(s.v) FROM r JOIN s ON r.k = s.k GROUP BY r.k"
)

func TestQueryModesEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		checkQueryModes(t, seed, 200, 1+int(seed)*5, fuzzModesSQL, joinOracle)
	}
	// And with grouping on top.
	for seed := int64(1); seed <= 6; seed++ {
		checkQueryModes(t, seed, 150, 12, fuzzGroupSQL, groupOracle)
	}
}

func FuzzQueryModes(f *testing.F) {
	f.Add(int64(3), 80, 10)
	f.Add(int64(8), 200, 3)
	f.Fuzz(func(t *testing.T, seed int64, rows, dom int) {
		if rows < 1 || rows > 400 || dom < 1 || dom > 100 {
			t.Skip("out of bounds")
		}
		checkQueryModes(t, seed, rows, dom, fuzzModesSQL, joinOracle)
		checkQueryModes(t, seed, rows, dom, fuzzGroupSQL, groupOracle)
	})
}

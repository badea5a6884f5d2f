package qpi

import (
	"cmp"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"qpi/internal/data"
	"qpi/internal/exec"
)

func sqlEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	e.MustLoadTPCH(TPCHConfig{SF: 0.002, Seed: 5})
	return e
}

func TestSQLQueryBasics(t *testing.T) {
	e := sqlEngine(t)
	q, err := e.Query("SELECT custkey FROM customer WHERE custkey <= 3 ORDER BY custkey")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := q.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0][0].(int64) != 1 {
		t.Fatalf("rows = %v", rows)
	}

	// ORDER BY … LIMIT: a limit reading a sort's row-backed batches. The
	// rows are the table's, sorted here; the limit counts exactly its
	// rows and the sort read and emitted every row.
	all, err := e.MustQuery("SELECT custkey, nationkey FROM customer").Rows()
	if err != nil {
		t.Fatal(err)
	}
	slices.SortStableFunc(all, func(a, b []any) int {
		return cmp.Or(cmp.Compare(b[1].(int64), a[1].(int64)), cmp.Compare(a[0].(int64), b[0].(int64)))
	})
	q = e.MustQuery("SELECT custkey, nationkey FROM customer ORDER BY nationkey DESC, custkey LIMIT 25")
	var sorter *exec.Sort
	exec.Walk(q.root, func(op exec.Operator) {
		if s, ok := op.(*exec.Sort); ok {
			sorter = s
		}
	})
	limit, inputs := q.root.(*exec.Limit), 0
	sorter.OnInputCol = func(cb *data.ColBatch) { inputs += cb.Live() }
	if rows, err = q.Rows(); err != nil || !reflect.DeepEqual(rows, all[:25]) {
		t.Errorf("ORDER BY … LIMIT 25 = %v, %v; want %v", rows, err, all[:25])
	}
	if n := limit.Stats().Emitted.Load(); n != 25 || inputs != len(all) || sorter.Stats().Emitted.Load() != int64(len(all)) {
		t.Errorf("limit emitted %d, sort read %d and emitted %d of %d rows", n, inputs, sorter.Stats().Emitted.Load(), len(all))
	}
}

func TestSQLJoinWithProgress(t *testing.T) {
	e := sqlEngine(t)
	q := e.MustQuery(`SELECT o.orderkey FROM orders o
		JOIN customer c ON o.custkey = c.custkey`)
	var final Report
	n, err := q.Run(nil, WithProgress(func(r Report) { final = r }, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("join empty")
	}
	if math.Abs(final.Progress-1) > 1e-9 {
		t.Errorf("final progress = %g", final.Progress)
	}
	// The join must carry a converged once estimate.
	found := false
	for _, est := range q.Estimates() {
		if strings.HasPrefix(est.Operator, "HashJoin") {
			found = true
			if est.Source != "once-exact" {
				t.Errorf("join source = %q", est.Source)
			}
		}
	}
	if !found {
		t.Error("no hash join in plan")
	}
}

func TestSQLAggregates(t *testing.T) {
	e := sqlEngine(t)
	q := e.MustQuery("SELECT COUNT(*) c FROM lineitem")
	rows, err := q.Rows()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := e.TableRows("lineitem")
	if rows[0][0].(int64) != int64(want) {
		t.Errorf("count = %v, want %d", rows[0][0], want)
	}
}

// TestSQLScalarAggregateOverNoRows: an aggregate without GROUP BY gives
// one row even when no input row qualifies — COUNT 0, the others NULL —
// while a grouped one gives none.
func TestSQLScalarAggregateOverNoRows(t *testing.T) {
	e := sqlEngine(t)
	rows, err := e.MustQuery(`SELECT COUNT(*) c, COUNT(extendedprice) n, SUM(extendedprice) s,
		AVG(extendedprice) a, MIN(extendedprice) lo, MAX(extendedprice) hi
		FROM lineitem WHERE lineitem.orderkey < -5`).Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v, want one row", rows)
	}
	if r := rows[0]; r[0] != int64(0) || r[1] != int64(0) || r[2] != nil || r[3] != nil || r[4] != nil || r[5] != nil {
		t.Errorf("row = %v, want [0 0 <nil> <nil> <nil> <nil>]", r)
	}
	rows, err = e.MustQuery("SELECT orderkey, COUNT(*) c FROM lineitem WHERE lineitem.orderkey < -5 GROUP BY orderkey").Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("grouped rows = %v, want none", rows)
	}
}

func TestSQLGroupByEstimation(t *testing.T) {
	e := sqlEngine(t)
	q := e.MustQuery("SELECT custkey, COUNT(*) c FROM orders GROUP BY custkey")
	n, err := q.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	agg := q.Estimates()[0]
	if agg.Estimate != float64(n) {
		t.Errorf("agg estimate %g != %d groups", agg.Estimate, n)
	}
}

func TestSQLSemiAntiJoins(t *testing.T) {
	e := sqlEngine(t)
	semi := e.MustQuery("SELECT custkey FROM customer SEMI JOIN orders ON orders.custkey = customer.custkey")
	anti := e.MustQuery("SELECT custkey FROM customer ANTI JOIN orders ON orders.custkey = customer.custkey")
	ns, err := semi.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	na, err := anti.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	total, _ := e.TableRows("customer")
	if ns+na != int64(total) {
		t.Errorf("semi %d + anti %d != customers %d", ns, na, total)
	}
}

func TestSQLErrors(t *testing.T) {
	e := sqlEngine(t)
	for _, q := range []string{
		"SELEC x",
		"SELECT x FROM nope",
		"SELECT nope FROM customer",
	} {
		if _, err := e.Query(q); err == nil {
			t.Errorf("Query(%q) should fail", q)
		}
	}
}

func TestSQLWithSamplingAndModes(t *testing.T) {
	e := sqlEngine(t)
	for _, m := range []EstimatorMode{Once, DNE, Byte} {
		q, err := e.Query(
			"SELECT o.orderkey FROM orders o JOIN customer c ON o.custkey = c.custkey",
			WithMode(m), WithSampling(0.1, 3))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.Run(nil); err != nil {
			t.Fatal(err)
		}
		if p := q.Progress(); math.Abs(p-1) > 1e-9 {
			t.Errorf("mode %v final progress %g", m, p)
		}
	}
}

func TestMustQueryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustQuery did not panic")
		}
	}()
	sqlEngine(t).MustQuery("not sql")
}

// TestSQLCompositeGroupKeysKeepValuesApart: a multi-column GROUP BY keeps
// a NULL component apart from the string 'NULL', which renders alike.
func TestSQLCompositeGroupKeysKeepValuesApart(t *testing.T) {
	e := New()
	tab, err := e.CreateTable("t", ColumnDef{Name: "a", Type: "int"}, ColumnDef{Name: "b", Type: "string"})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []any{nil, "NULL", "NULL"} {
		if err := tab.Insert(1, b); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := e.MustQuery("SELECT t.a, t.b, COUNT(*) c FROM t GROUP BY t.a, t.b").Rows()
	if err != nil {
		t.Fatal(err)
	}
	got := map[any]int64{}
	for _, r := range rows {
		got[r[1]] = r[2].(int64)
	}
	if len(rows) != 2 || got[nil] != 1 || got["NULL"] != 2 {
		t.Errorf("groups %v, want (1, NULL) once and (1, 'NULL') twice", rows)
	}
}

// TestSQLCompositeJoinKeysDoNotCollide: a two-column equi-join matches
// rows only when both columns are equal, whatever bytes the strings hold.
func TestSQLCompositeJoinKeysDoNotCollide(t *testing.T) {
	e := New()
	for _, side := range []struct {
		name string
		a, b string
	}{{"l", "x\x00y", "z"}, {"r", "x", "y\x00z"}} {
		tab, err := e.CreateTable(side.name, ColumnDef{Name: "a", Type: "string"}, ColumnDef{Name: "b", Type: "string"})
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Insert(side.a, side.b); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := e.MustQuery("SELECT l.a, r.a FROM l JOIN r ON l.a = r.a AND l.b = r.b").Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("join matched %q: the keys differ in both columns", rows)
	}
}

package qpi

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"qpi/internal/data"
	"qpi/internal/vfs"
)

// Query.Rows converts column batches to [][]any at the client boundary.
// These tests hold that conversion to the per-tuple one it replaced: the
// reference below is the old collectRows loop, verbatim.

func referenceRow(t data.Tuple) []any {
	row := make([]any, len(t))
	for i, v := range t {
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
	return row
}

// referenceRows drains q tuple-at-a-time, as Rows did before.
func referenceRows(t *testing.T, q *Query) [][]any {
	t.Helper()
	if err := q.root.Open(); err != nil {
		t.Fatal(err)
	}
	defer q.root.Close()
	var out [][]any
	for {
		tu, err := q.root.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tu == nil {
			return out
		}
		out = append(out, referenceRow(tu))
	}
}

// randomValue draws a value of column kind k: mostly that kind, sometimes
// NULL and, when mixed, sometimes another kind entirely.
func randomValue(rng *rand.Rand, k data.Kind, nulls, mixed bool) data.Value {
	if nulls && rng.Intn(4) == 0 {
		return data.Null()
	}
	if mixed && rng.Intn(5) == 0 {
		k = data.Kind(1 + rng.Intn(3))
	}
	switch k {
	case data.KindInt:
		return data.Int(rng.Int63n(1000) - 500)
	case data.KindFloat:
		return data.Float(rng.NormFloat64())
	default:
		return data.Str(string(rune('a' + rng.Intn(26))))
	}
}

// TestAppendRowsMatchesPerTuple is the property test: over random
// batches — every kind, NULL runs, all-NULL and mixed-kind columns,
// selection vectors, lane-backed and row-backed — the lane-to-[]any
// conversion equals the per-tuple conversion of the same live rows.
func TestAppendRowsMatchesPerTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kinds := []data.Kind{data.KindInt, data.KindFloat, data.KindString, data.KindNull}
	for trial := 0; trial < 400; trial++ {
		width := 1 + rng.Intn(5)
		nrows := rng.Intn(70)
		colKind := make([]data.Kind, width)
		nulls, mixed := make([]bool, width), make([]bool, width)
		for c := range colKind {
			colKind[c] = kinds[rng.Intn(len(kinds))]
			nulls[c], mixed[c] = rng.Intn(2) == 0, rng.Intn(6) == 0
		}
		rows := make([]data.Tuple, nrows)
		for i := range rows {
			rows[i] = make(data.Tuple, width)
			for c := range rows[i] {
				if colKind[c] != data.KindNull {
					rows[i][c] = randomValue(rng, colKind[c], nulls[c], mixed[c])
				}
			}
		}
		var sel []int32
		if rng.Intn(2) == 0 {
			sel = []int32{} // non-nil: may select nothing
			for i := 0; i < nrows; i++ {
				if rng.Intn(3) > 0 {
					sel = append(sel, int32(i))
				}
			}
		}
		var want [][]any
		if sel == nil {
			for _, r := range rows {
				want = append(want, referenceRow(r))
			}
		} else {
			for _, i := range sel {
				want = append(want, referenceRow(rows[i]))
			}
		}

		var laneBacked, rowBacked data.ColBatch
		laneBacked.FromTuples(rows, width)
		laneBacked.Sel = sel
		rowBacked.SetRows(rows, width)
		rowBacked.Sel = sel
		for name, cb := range map[string]*data.ColBatch{"lane-backed": &laneBacked, "row-backed": &rowBacked} {
			prefix := [][]any{{"kept"}}
			got := appendRows(prefix, cb)
			if len(got) < 1 || !reflect.DeepEqual(got[0], []any{"kept"}) {
				t.Fatalf("trial %d %s: earlier rows disturbed", trial, name)
			}
			if got = got[1:]; len(got) != len(want) {
				t.Fatalf("trial %d %s: %d rows, want %d", trial, name, len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("trial %d %s row %d: %#v, want %#v", trial, name, i, got[i], want[i])
				}
				// Rows share one allocation per batch; appending to one
				// must not run into its neighbour.
				if cap(got[i]) != len(got[i]) {
					t.Fatalf("trial %d %s row %d: cap %d beyond len %d", trial, name, i, cap(got[i]), len(got[i]))
				}
			}
		}
	}
}

// TestRowsMatchesPerTupleDrain runs whole queries both ways: strings,
// floats and ints out of TPC-H, a filter's selection vector, an outer
// join's NULL-padded build side, a projection's computed lanes, an
// aggregation's row-backed output and a LIMIT that cuts a batch. Every
// scan's batches are windows of the stored tables, and each query runs
// twice (Rows, then the reference), the second on the batches the first
// returned to the pool: the tables must be what they were at the end.
func TestRowsMatchesPerTupleDrain(t *testing.T) {
	e := New()
	e.MustLoadTPCH(TPCHConfig{SF: 0.002, Seed: 3, Tables: []string{"nation", "customer", "orders", "lineitem"}})
	stored := func() (snap [][]any) {
		for _, name := range e.cat.Names() {
			tb := e.cat.MustLookup(name).Table
			for _, r := range tb.Rows() {
				snap = append(snap, []any{r.Clone()})
			}
			for c := 0; c < tb.Schema().Len(); c++ {
				v := tb.Lane(c)
				snap = append(snap, []any{v.Kind, slices.Clone(v.Ints), slices.Clone(v.Floats), slices.Clone(v.Strs), slices.Clone(v.Nulls), slices.Clone(v.Tags)})
			}
		}
		return snap
	}
	before := stored()
	defer func() {
		if !reflect.DeepEqual(before, stored()) {
			t.Error("the stored tables changed under the queries")
		}
	}()
	for _, sql := range []string{
		"SELECT * FROM orders",
		"SELECT l.orderkey, l.extendedprice FROM lineitem l WHERE l.partkey < 100",
		"SELECT n.name, c.custkey, c.acctbal, o.orderkey FROM nation n JOIN customer c ON n.nationkey = c.nationkey JOIN orders o ON c.custkey = o.custkey",
		// Order keys run past the customer keys: most rows are NULL-padded.
		"SELECT o.orderkey, o.totalprice, c.custkey, c.acctbal FROM orders o LEFT JOIN customer c ON o.orderkey = c.custkey",
		"SELECT l.orderkey + 1, l.extendedprice * 2 FROM lineitem l",
		"SELECT n.name, COUNT(*), SUM(c.acctbal), MIN(c.custkey) FROM nation n JOIN customer c ON n.nationkey = c.nationkey GROUP BY n.name",
		"SELECT o.orderkey, l.partkey FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey LIMIT 1500",
		"SELECT o.orderkey FROM orders o ORDER BY o.totalprice DESC LIMIT 7",
	} {
		got, err := e.MustQuery(sql).Rows()
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		want := referenceRows(t, e.MustQuery(sql))
		if len(got) == 0 || len(got) != len(want) {
			t.Fatalf("%s: %d rows, per-tuple drain gives %d", sql, len(got), len(want))
		}
		nulls := 0
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: row %d = %#v, per-tuple drain gives %#v", sql, i, got[i], want[i])
			}
			for _, v := range got[i] {
				if v == nil {
					nulls++
				}
			}
		}
		if strings.Contains(sql, "LEFT JOIN") && nulls == 0 {
			t.Errorf("%s: no NULL-padded row in %d", sql, len(got))
		}
	}
}

// TestRowsContextCancelMidDrain cancels while result rows are being
// collected from a spilling join: the call returns context.Canceled with
// the rows it had, the query ends "cancelled", and neither a goroutine,
// a spill descriptor nor a pooled batch outlives it.
func TestRowsContextCancelMidDrain(t *testing.T) {
	before, pooled := runtime.NumGoroutine(), data.ColBatchesOut()
	fs := vfs.NewFaultFS(nil)
	q := bigJoinEngine(t).MustQuery("SELECT r.k FROM r JOIN s ON r.k = s.k",
		WithMemoryBudget(64*1024), WithSpillFS(fs))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watcher := make(chan struct{})
	go func() {
		defer close(watcher)
		// The root has emitted: the drain is under way.
		for {
			if root, _ := q.EstimateOf(""); root.Emitted >= 5000 || q.Report().State != "running" {
				cancel()
				return
			}
			runtime.Gosched()
		}
	}()
	rows, err := q.RowsContext(ctx)
	<-watcher
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RowsContext = %d rows, %v; want context.Canceled", len(rows), err)
	}
	if len(rows) < 5000 {
		t.Errorf("%d rows collected before the cancel, want at least the 5000 that triggered it", len(rows))
	}
	if st := q.Report().State; st != "cancelled" {
		t.Errorf("terminal state = %q, want cancelled", st)
	}
	if fs.Count(vfs.OpCreate) == 0 {
		t.Error("the join never spilled: the test is not exercising spill cleanup")
	}
	if n := fs.OpenFiles(); n != 0 {
		t.Errorf("%d spill files still open", n)
	}
	if out := data.ColBatchesOut(); out != pooled {
		t.Errorf("pooled batches held: %d before the query, %d after", pooled, out)
	}
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutine leak: %d before, %d after", before, n)
	}
}

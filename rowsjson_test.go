package qpi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"qpi/internal/data"
	"qpi/internal/exec"
)

// Query.RowsJSON writes result rows as JSON straight from the lanes.
// These tests hold its bytes to encoding/json's Marshal of the rows
// appendRows boxes from the same batches.

// jsonFloats are the float64 values where encoding/json's formatting
// changes form or is easiest to get wrong: signed zeros, subnormals, the
// 'f'/'e' cut-offs at 1e-6 and 1e21 and their neighbours, the extremes.
var jsonFloats = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	2.2250738585072009e-308, 1e-7, -1e-7, 1e-6, 9.999999999999999e-7, 1.0000000000000002e-6,
	1e21, -1e21, 1e20, 999999999999999999999.0, 1.0000000000000001e21, 123456789e15,
	math.MaxFloat64, -math.MaxFloat64, 0.1, 1.0 / 3, -2.5, 5e-324, 1e-300, 1e300, 100,
}

// jsonStrings are string fragments covering every escape encoding/json
// writes with HTML escaping on: quotes and backslashes, the short control
// escapes, other control bytes, <>&, invalid UTF-8 and U+2028/U+2029.
var jsonStrings = []string{
	"", "a", "plain text", `"quoted"`, `back\slash`, "<script>&amp;</script>", "\b\f\n\r\t",
	"\x00\x01\x1f", "\x7f", "\xff", "\xc3", "a\xc3(b", "\xed\xa0\x80", "\u2028", "\u2029",
	"x\u2028y\u2029z", "é", "日本語", "🙂", "\ufffd", "\u00a0", "/", "'",
}

// randomJSONValue draws a value of column kind k: mostly that kind, often
// one of the edge values above, sometimes NULL and, when mixed, sometimes
// another kind. A non-finite float is drawn only when nonFinite.
func randomJSONValue(rng *rand.Rand, k data.Kind, nulls, mixed, nonFinite bool) data.Value {
	if nulls && rng.Intn(4) == 0 {
		return data.Null()
	}
	if mixed && rng.Intn(4) == 0 {
		k = data.Kind(1 + rng.Intn(3))
	}
	switch k {
	case data.KindInt:
		switch rng.Intn(6) {
		case 0:
			return data.Int(math.MinInt64)
		case 1:
			return data.Int(math.MaxInt64)
		case 2:
			return data.Int(rng.Int63n(1000) - 500)
		default:
			return data.Int(rng.Int63() - rng.Int63())
		}
	case data.KindFloat:
		if nonFinite && rng.Intn(40) == 0 {
			return data.Float([]float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)])
		}
		switch rng.Intn(4) {
		case 0:
			return data.Float(jsonFloats[rng.Intn(len(jsonFloats))])
		case 1:
			return data.Float(math.Float64frombits(rng.Uint64() &^ (0x7ff << 52) >> uint(rng.Intn(12))))
		default:
			return data.Float(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30)))
		}
	default:
		var sb strings.Builder
		for n := rng.Intn(4); n > 0; n-- {
			sb.WriteString(jsonStrings[rng.Intn(len(jsonStrings))])
		}
		return data.Str(sb.String())
	}
}

// randomJSONBatch draws a batch of random shape: 1-5 columns of every
// kind (all-NULL ones included), with NULLs, mixed-kind columns, edge
// values, an optional selection vector (possibly selecting nothing),
// lane-backed or row-backed.
func randomJSONBatch(rng *rand.Rand, nonFinite bool) *data.ColBatch {
	kinds := []data.Kind{data.KindInt, data.KindFloat, data.KindString, data.KindNull}
	width, nrows := 1+rng.Intn(5), rng.Intn(40)
	rows := make([]data.Tuple, nrows)
	for i := range rows {
		rows[i] = make(data.Tuple, width)
	}
	for c := 0; c < width; c++ {
		k := kinds[rng.Intn(len(kinds))]
		nulls, mixed := rng.Intn(2) == 0, rng.Intn(5) == 0
		for i := range rows {
			if k != data.KindNull {
				rows[i][c] = randomJSONValue(rng, k, nulls, mixed, nonFinite)
			}
		}
	}
	cb := &data.ColBatch{}
	if rng.Intn(3) == 0 {
		cb.SetRows(rows, width)
	} else {
		cb.FromTuples(rows, width)
	}
	if rng.Intn(2) == 0 {
		cb.Sel = []int32{}
		for i := 0; i < nrows; i++ {
			if rng.Intn(3) > 0 {
				cb.Sel = append(cb.Sel, int32(i))
			}
		}
	}
	return cb
}

// checkRowsJSON encodes the batches one after another as RowsJSON does and
// compares the bytes, or the error, with encoding/json's Marshal of the
// boxed rows of the same batches.
func checkRowsJSON(t *testing.T, batches []*data.ColBatch) {
	t.Helper()
	var boxed [][]any
	for _, cb := range batches {
		boxed = appendRows(boxed, cb)
	}
	want, wantErr := json.Marshal(boxed)
	var got []byte
	var err error
	for _, cb := range batches {
		if got, err = appendRowsJSON(got, cb); err != nil {
			break
		}
	}
	if wantErr != nil || err != nil {
		var ue *json.UnsupportedValueError
		if wantErr == nil || err == nil || !errors.As(err, &ue) || err.Error() != wantErr.Error() {
			t.Fatalf("lane encoder error %v, encoding/json's %v (rows %#v)", err, wantErr, boxed)
		}
		return
	}
	if len(got) == 0 {
		got = append(got, "null"...)
	} else {
		got = append(got, ']')
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("lane encoder wrote\n%s\nencoding/json writes\n%s\n(rows %#v)", got, want, boxed)
	}
}

// TestRowsJSONMatchesMarshal is the property test: 12 000 random batches,
// alone and in runs of up to four, encode to exactly encoding/json's bytes
// for appendRows' rows; a non-finite float gives Marshal's error.
func TestRowsJSONMatchesMarshal(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 4000; trial++ {
			batches := make([]*data.ColBatch, 1+rng.Intn(4))
			for i := range batches {
				batches[i] = randomJSONBatch(rng, trial%8 == 0)
			}
			checkRowsJSON(t, batches)
		}
	}
}

// TestRowsJSONEdgeValues runs every edge value, and every non-finite
// float, through both batch shapes on its own.
func TestRowsJSONEdgeValues(t *testing.T) {
	var vals []data.Value
	for _, f := range jsonFloats {
		vals = append(vals, data.Float(f))
	}
	for _, s := range jsonStrings {
		vals = append(vals, data.Str(s))
	}
	vals = append(vals, data.Int(math.MinInt64), data.Int(math.MaxInt64), data.Int(0), data.Null(),
		data.Float(math.Inf(1)), data.Float(math.Inf(-1)), data.Float(math.NaN()))
	for b := 0; b < 256; b++ {
		vals = append(vals, data.Str(string([]byte{byte(b)})))
	}
	for _, v := range vals {
		rows := []data.Tuple{{v, data.Int(1)}}
		var lanes, tuples data.ColBatch
		lanes.FromTuples(rows, 2)
		tuples.SetRows(rows, 2)
		checkRowsJSON(t, []*data.ColBatch{&lanes})
		checkRowsJSON(t, []*data.ColBatch{&tuples})
	}
}

// FuzzRowsJSON drives the property test's batch generator from the
// fuzzer's seed and plants the fuzzer's string, float and int in the
// batch.
func FuzzRowsJSON(f *testing.F) {
	f.Add(int64(1), "<a&b> ", 1e21, int64(math.MinInt64))
	f.Add(int64(2), "\xff\x00\"\\", 1e-7, int64(math.MaxInt64))
	f.Add(int64(3), "", math.Copysign(0, -1), int64(0))
	f.Fuzz(func(t *testing.T, seed int64, s string, x float64, n int64) {
		rng := rand.New(rand.NewSource(seed))
		rows := []data.Tuple{{data.Str(s), data.Float(x), data.Int(n)}}
		planted := &data.ColBatch{}
		if seed%2 == 0 {
			planted.SetRows(rows, 3)
		} else {
			planted.FromTuples(rows, 3)
		}
		checkRowsJSON(t, []*data.ColBatch{randomJSONBatch(rng, true), planted, randomJSONBatch(rng, false)})
	})
}

// TestRowsJSONMatchesRows runs whole queries through RowsJSON and through
// Rows: the bytes equal encoding/json's of Rows' result and the counts
// match — ints, floats and strings out of TPC-H, a filter's selection, an
// outer join's NULLs, an aggregation's lane windows, a sort's row-backed
// batches and a result with no rows.
func TestRowsJSONMatchesRows(t *testing.T) {
	e := New()
	e.MustLoadTPCH(TPCHConfig{SF: 0.002, Seed: 3, Tables: []string{"nation", "customer", "orders"}})
	for _, sql := range []string{
		"SELECT n.name, c.custkey, c.acctbal FROM nation n JOIN customer c ON n.nationkey = c.nationkey",
		"SELECT o.orderkey, o.totalprice, c.custkey, c.acctbal FROM orders o LEFT JOIN customer c ON o.orderkey = c.custkey",
		"SELECT n.name, COUNT(*), SUM(c.acctbal), AVG(c.acctbal) FROM nation n JOIN customer c ON n.nationkey = c.nationkey GROUP BY n.name",
		"SELECT o.orderkey, o.totalprice / 7 FROM orders o ORDER BY o.totalprice DESC LIMIT 9",
		"SELECT o.orderkey FROM orders o WHERE o.orderkey < 0",
	} {
		rows, err := e.MustQuery(sql).Rows()
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		want, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := e.MustQuery(sql).RowsJSON(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if n != int64(len(rows)) || !bytes.Equal(got, want) {
			t.Fatalf("%s: RowsJSON gave %d rows %.200s, Rows %d rows %.200s", sql, n, got, len(rows), want)
		}
	}
}

// TestRowsJSONNonFinite: a float overflow in the result ends RowsJSON
// with the error encoding/json's Marshal gives for Rows' result, and the
// query ends failed.
func TestRowsJSONNonFinite(t *testing.T) {
	e := bigJoinEngine(t)
	sql := "SELECT r.k * " + strings.Repeat("100000000000000000000.0 * ", 15) + "100000000000000000000.0 x FROM r WHERE r.k = 3"
	rows, err := e.MustQuery(sql).Rows()
	if err != nil || len(rows) == 0 {
		t.Fatalf("Rows = %d rows, %v", len(rows), err)
	}
	_, wantErr := json.Marshal(rows)
	q := e.MustQuery(sql)
	_, _, err = q.RowsJSON(context.Background())
	var ue *json.UnsupportedValueError
	if !errors.As(err, &ue) || wantErr == nil || err.Error() != wantErr.Error() {
		t.Fatalf("RowsJSON error %v, encoding/json's %v", err, wantErr)
	}
	if st := q.Report().State; st != "failed" {
		t.Errorf("terminal state = %q, want failed", st)
	}
}

// TestSubscribeSameUnderEveryDrive: Run, Rows and RowsJSON drive the plan
// the same way, so a subscriber taken before each sees the same interval
// snapshots. The data is small enough that every snapshot fits the
// subscription's buffer and none is dropped.
func TestSubscribeSameUnderEveryDrive(t *testing.T) {
	e := New()
	e.MustLoadTPCH(TPCHConfig{SF: 0.002, Seed: 1, Tables: []string{"orders", "lineitem"}})
	const sql = "SELECT o.orderkey, l.partkey FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey"
	drives := map[string]func(q *Query) error{
		"Run":      func(q *Query) error { _, err := q.Run(context.Background()); return err },
		"Rows":     func(q *Query) error { _, err := q.Rows(); return err },
		"RowsJSON": func(q *Query) error { _, _, err := q.RowsJSON(context.Background()); return err },
	}
	counts := map[string]int{}
	for name, drive := range drives {
		q := e.MustQuery(sql)
		sub := q.Subscribe()
		if err := drive(q); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var last Report
		for rep := range sub {
			counts[name]++
			last = rep
		}
		if last.State != "done" {
			t.Errorf("%s: last snapshot state %q, want done", name, last.State)
		}
	}
	if counts["Run"] < 3 || counts["Run"] >= subscribeBuffer {
		t.Fatalf("Run gave %d snapshots; the test needs 3 to %d", counts["Run"], subscribeBuffer-1)
	}
	if counts["Rows"] != counts["Run"] || counts["RowsJSON"] != counts["Run"] {
		t.Errorf("snapshots: %v, want the same count under every drive", counts)
	}
}

// openCounter counts the Open calls reaching the plan it wraps.
type openCounter struct {
	exec.Operator
	opens int
}

func (o *openCounter) Open() error {
	o.opens++
	return o.Operator.Open()
}

// TestCancelledBeforeOpen: under an already-cancelled context Run,
// RowsContext and RowsJSON return context.Canceled without opening the
// plan, and the query ends cancelled.
func TestCancelledBeforeOpen(t *testing.T) {
	drives := map[string]func(ctx context.Context, q *Query) error{
		"Run":         func(ctx context.Context, q *Query) error { _, err := q.Run(ctx); return err },
		"RowsContext": func(ctx context.Context, q *Query) error { _, err := q.RowsContext(ctx); return err },
		"RowsJSON":    func(ctx context.Context, q *Query) error { _, _, err := q.RowsJSON(ctx); return err },
	}
	e := bigJoinEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, drive := range drives {
		q := e.MustQuery("SELECT r.k FROM r JOIN s ON r.k = s.k")
		root := &openCounter{Operator: q.root}
		q.root = root
		if err := drive(ctx, q); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: want context.Canceled, got %v", name, err)
		}
		if root.opens != 0 {
			t.Errorf("%s: the plan was opened %d times under a cancelled context", name, root.opens)
		}
		if st := q.Report().State; st != "cancelled" {
			t.Errorf("%s: terminal state = %q, want cancelled", name, st)
		}
	}
}

// rowsJSONSink keeps the benchmarked encodings alive.
var rowsJSONSink []byte

// BenchmarkRowsJSON prices the HTTP result boundary for one result of
// 5 000 rows in 1 024-row lane batches: "lanes" writes the JSON text
// straight from the batches as RowsJSON does (its buffer sized by an exact
// estimate), "boxed" boxes the rows
// (appendRows) and encodes them with encoding/json, as POST /v1/query did
// before. Shapes: two int lanes (serve_mix's rows class, a GROUP BY key
// and its count) and a string lane with a float lane.
func BenchmarkRowsJSON(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	batches := func(row func(i int) data.Tuple) (out []*data.ColBatch) {
		const n = 5000
		for lo := 0; lo < n; lo += 1024 {
			var rows []data.Tuple
			for i := lo; i < min(lo+1024, n); i++ {
				rows = append(rows, row(i))
			}
			cb := &data.ColBatch{}
			cb.FromTuples(rows, len(rows[0]))
			out = append(out, cb)
		}
		return out
	}
	for _, shape := range []struct {
		name    string
		batches []*data.ColBatch
	}{
		{"ints", batches(func(i int) data.Tuple {
			return data.Tuple{data.Int(int64(i)), data.Int(1 + rng.Int63n(40))}
		})},
		{"string-float", batches(func(i int) data.Tuple {
			return data.Tuple{data.Str("Customer#" + strconv.Itoa(100000+i)), data.Float(math.Round(rng.Float64()*1e6) / 100)}
		})},
	} {
		b.Run(shape.name+"/lanes", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				var buf []byte
				var err error
				done := 0
				for _, cb := range shape.batches {
					buf = growRowsJSON(buf, done, cb.Live(), cb.Width(), 5000)
					if buf, err = appendRowsJSON(buf, cb); err != nil {
						b.Fatal(err)
					}
					done += cb.Live()
				}
				rowsJSONSink = append(buf, ']')
			}
		})
		b.Run(shape.name+"/boxed", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				var rows [][]any
				for _, cb := range shape.batches {
					rows = appendRows(rows, cb)
				}
				buf, err := json.Marshal(rows)
				if err != nil {
					b.Fatal(err)
				}
				rowsJSONSink = buf
			}
		})
	}
}

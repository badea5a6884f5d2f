package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"qpi/internal/data"
	"qpi/internal/expr"
	"qpi/internal/storage"
)

// Differential tests for the join operators themselves: every physical
// join and every execution mode (tuple, columnar, forced spill) must
// produce the same multiset as a naive reference join
// written from first principles. Unlike internal/difftest this layer has
// no plan generator and no estimators — it isolates operator semantics.

// keyVal maps the test key encoding to a join key value: key < 0 means
// NULL; str renders the key as a string (same equality classes, but the
// join is forced off the int-lane fast paths onto the generic scatter,
// fallback table and string-lane kernels).
func keyVal(k int64, str bool) data.Value {
	if k < 0 {
		return data.Null()
	}
	if str {
		return data.Str(fmt.Sprintf("key-%03d", k))
	}
	return data.Int(k)
}

// kvTable builds a two-column table (k, id): key < 0 means NULL key, and
// id is the row position so every row is distinguishable.
func kvTable(name string, keys []int64) *storage.Table {
	return kvTableKeyed(name, keys, false)
}

// kvTableKeyed is kvTable with a selectable key kind.
func kvTableKeyed(name string, keys []int64, str bool) *storage.Table {
	kind := data.KindInt
	if str {
		kind = data.KindString
	}
	s := data.NewSchema(
		data.Column{Table: name, Name: "k", Kind: kind},
		data.Column{Table: name, Name: "id", Kind: data.KindInt},
	)
	t := storage.NewTable(name, s)
	for i, k := range keys {
		t.MustAppend(data.Tuple{keyVal(k, str), data.Int(int64(i))})
	}
	return t
}

// refJoin is the naive reference: NULL keys never match; semi/anti emit
// the probe tuple alone (anti keeps NULL-key probe rows); probe-outer
// NULL-pads the build side; inner emits build ++ probe per match.
func refJoin(build, probe []int64, jt JoinType) []string {
	return refJoinKeyed(build, probe, jt, false)
}

// refJoinKeyed is refJoin with a selectable key kind. The int encoding
// is injective into the string rendering, so match structure is
// identical either way.
func refJoinKeyed(build, probe []int64, jt JoinType, str bool) []string {
	index := map[int64][]int{}
	for i, k := range build {
		if k >= 0 {
			index[k] = append(index[k], i)
		}
	}
	var out []string
	for pi, pk := range probe {
		var matches []int
		if pk >= 0 {
			matches = index[pk]
		}
		p := data.Tuple{keyVal(pk, str), data.Int(int64(pi))}
		switch jt {
		case SemiJoin:
			if len(matches) > 0 {
				out = append(out, p.String())
			}
		case AntiJoin:
			if len(matches) == 0 {
				out = append(out, p.String())
			}
		case ProbeOuterJoin:
			if len(matches) == 0 {
				row := append(data.Tuple{data.Null(), data.Null()}, p...)
				out = append(out, row.String())
				continue
			}
			fallthrough
		default:
			for _, bi := range matches {
				row := append(data.Tuple{keyVal(build[bi], str), data.Int(int64(bi))}, p...)
				out = append(out, row.String())
			}
		}
	}
	sort.Strings(out)
	return out
}

func sortedStrings(rows []data.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// drainMode runs an operator through one of the two pull contracts and
// returns its rows.
func drainMode(t *testing.T, op Operator, columnar bool) []data.Tuple {
	t.Helper()
	if err := op.Open(); err != nil {
		t.Fatalf("Open: %v", err)
	}
	var rows []data.Tuple
	var err error
	if columnar {
		rows, err = DrainCol(AsColOperator(op))
	} else {
		rows, err = Drain(op)
	}
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := op.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return rows
}

func equalMultisets(t *testing.T, label string, got []data.Tuple, want []string) {
	t.Helper()
	g := sortedStrings(got)
	if len(g) != len(want) {
		t.Fatalf("%s: %d rows, reference says %d", label, len(g), len(want))
	}
	for i := range g {
		if g[i] != want[i] {
			t.Fatalf("%s: multiset mismatch at sorted row %d: got %s want %s", label, i, g[i], want[i])
		}
	}
}

// randKeys draws n keys from [0, dom) with a NULL fraction; negative
// values encode NULL.
func randKeys(rng *rand.Rand, n, dom int, nullFrac float64) []int64 {
	out := make([]int64, n)
	for i := range out {
		if rng.Float64() < nullFrac {
			out[i] = -1
			continue
		}
		out[i] = int64(rng.Intn(dom))
	}
	return out
}

// checkHashJoinModes runs one (build, probe, type) input through tuple,
// forced-spill, columnar and columnar-spill execution and compares each
// against the reference.
func checkHashJoinModes(t *testing.T, build, probe []int64, jt JoinType) {
	t.Helper()
	checkHashJoinModesKeyed(t, build, probe, jt, false)
}

// checkHashJoinModesKeyed is checkHashJoinModes with a selectable key
// kind. String keys route the scatter, build table and probe off the
// int-lane fast paths; the build input is additionally run through a
// vectorized string filter (LIKE-prefix AND >= kernels, both
// tautologies over the key encoding) so the columnar modes exercise the
// sel-in/sel-out string kernels inline. The filter drops NULL build
// keys, which the join drops anyway for every type checked here.
func checkHashJoinModesKeyed(t *testing.T, build, probe []int64, jt JoinType, str bool) {
	t.Helper()
	want := refJoinKeyed(build, probe, jt, str)
	modes := []struct {
		name     string
		columnar bool
		budget   int64
	}{
		{name: "tuple"},
		{name: "spill", budget: 128},
		{name: "columnar", columnar: true},
		{name: "columnar-spill", columnar: true, budget: 128},
	}
	for _, m := range modes {
		var bsrc Operator = NewScan(kvTableKeyed("b", build, str), "")
		if str {
			like, err := expr.NewLike(expr.Col{Index: 0}, "key-%", false)
			if err != nil {
				t.Fatal(err)
			}
			bsrc = NewFilter(bsrc, expr.AndOf(
				like,
				expr.Compare(expr.GE, expr.Col{Index: 0}, expr.Lit(data.Str("key-"))),
			))
		}
		j := NewHashJoinMulti(
			bsrc,
			NewScan(kvTableKeyed("p", probe, str), ""),
			[]int{0}, []int{0}, jt,
		)
		if m.budget > 0 {
			j.SetMemoryBudget(m.budget)
		}
		j.SetColumnar(m.columnar)
		equalMultisets(t, jt.String()+"/"+m.name, drainMode(t, j, m.columnar), want)
		if m.budget > 0 && j.Stats().SpillFiles.Load() == 0 {
			t.Errorf("%s/%s: no spill files created", jt, m.name)
		}
	}
}

func TestHashJoinModesAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	types := []JoinType{InnerJoin, SemiJoin, AntiJoin, ProbeOuterJoin}
	for trial := 0; trial < 12; trial++ {
		build := randKeys(rng, 20+rng.Intn(60), 1+rng.Intn(12), 0.2)
		probe := randKeys(rng, 20+rng.Intn(60), 1+rng.Intn(12), 0.2)
		// Odd trials rerun the same key structure as strings, covering
		// the generic (non-int-lane) scatter and fallback build table.
		checkHashJoinModesKeyed(t, build, probe, types[trial%len(types)], trial%2 == 1)
	}
}

// FuzzJoinModes lets the fuzzer pick the key distributions; every input
// is checked across all four join types and every execution mode. Bit 0
// of flags switches the join keys to strings, driving the generic
// lane-native scatter, the fallback build table and the vectorized
// string-comparison kernels.
func FuzzJoinModes(f *testing.F) {
	f.Add(int64(1), 20, 30, 5, uint8(0), uint8(0))
	f.Add(int64(9), 50, 8, 2, uint8(1), uint8(0))
	f.Add(int64(3), 8, 80, 16, uint8(3), uint8(0))
	f.Add(int64(5), 25, 40, 6, uint8(0), uint8(1))
	f.Add(int64(13), 60, 12, 3, uint8(2), uint8(1))
	f.Add(int64(21), 10, 90, 20, uint8(3), uint8(1))
	// NULL probe keys under the probe-preserving types: the scatter's
	// keepNull route into partition 0, off the key lane and generically.
	f.Add(int64(33), 40, 120, 4, uint8(3), uint8(0))
	f.Add(int64(35), 40, 120, 4, uint8(2), uint8(0))
	f.Add(int64(39), 16, 120, 2, uint8(2), uint8(1))
	// String keys, inner: per-row key extraction feeding the chunked
	// probe partitions.
	f.Add(int64(41), 30, 120, 7, uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nb, np, dom int, jti, flags uint8) {
		if nb < 1 || nb > 120 || np < 1 || np > 120 || dom < 1 || dom > 64 {
			t.Skip("out of bounds")
		}
		rng := rand.New(rand.NewSource(seed))
		build := randKeys(rng, nb, dom, 0.15)
		probe := randKeys(rng, np, dom, 0.15)
		jt := []JoinType{InnerJoin, SemiJoin, AntiJoin, ProbeOuterJoin}[int(jti)%4]
		checkHashJoinModesKeyed(t, build, probe, jt, flags&1 == 1)
	})
}

// TestMergeJoinTupleBatchEquivalence: the sort-merge join must agree with
// the reference inner join and with itself whether pulled tuple-at-a-time
// or as column batches through the adapter.
func TestMergeJoinTupleBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		left := randKeys(rng, 15+rng.Intn(50), 1+rng.Intn(10), 0)
		right := randKeys(rng, 15+rng.Intn(50), 1+rng.Intn(10), 0)
		want := refJoin(left, right, InnerJoin)
		for _, columnar := range []bool{false, true} {
			mj, _, _ := NewSortMergeJoin(
				NewScan(kvTable("l", left), ""),
				NewScan(kvTable("r", right), ""),
				0, 0,
			)
			label := "merge/tuple"
			if columnar {
				label = "merge/columnar"
			}
			equalMultisets(t, label, drainMode(t, mj, columnar), want)
		}
	}
}

// TestNLJoinTupleBatchEquivalence: same for the indexed nested-loops
// join, including NULL keys on both sides (skipped by the index).
func TestNLJoinTupleBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 8; trial++ {
		outer := randKeys(rng, 15+rng.Intn(50), 1+rng.Intn(10), 0.2)
		inner := randKeys(rng, 15+rng.Intn(50), 1+rng.Intn(10), 0.2)
		want := refJoin(outer, inner, InnerJoin)
		for _, columnar := range []bool{false, true} {
			nl := NewIndexedNLJoin(
				NewScan(kvTable("o", outer), ""),
				NewScan(kvTable("i", inner), ""),
				0, 0,
			)
			label := "nl/tuple"
			if columnar {
				label = "nl/columnar"
			}
			equalMultisets(t, label, drainMode(t, nl, columnar), want)
		}
	}
}

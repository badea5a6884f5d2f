package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"qpi/internal/data"
	"qpi/internal/expr"
	"qpi/internal/storage"
)

// Differential tests for the join operators themselves: every physical
// join, in memory and forced to spill, must produce the same multiset as
// a naive reference join written from first principles — and the hash
// join the very order of the grace-order reference below. Unlike internal/difftest this layer
// has no plan generator and no estimators — it isolates operator
// semantics.

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

// graceProbeOrder lists the probe rows of pt in the order the join phase
// of a parts-way grace hash join on keys starts them: partition by
// partition (partitionOf of the key's hashValue), in arrival order within
// one. NULL-key rows are kept, in partition 0, only by the
// probe-preserving join types.
func graceProbeOrder(pt *storage.Table, keys []int, jt JoinType, parts int) []data.Tuple {
	byPart := make([][]data.Tuple, parts)
	for _, row := range pt.Rows() {
		p := 0
		if k := JoinKeyOf(row, keys); !k.IsNull() {
			p = partitionOf(hashValue(k), parts)
		} else if jt != ProbeOuterJoin && jt != AntiJoin {
			continue
		}
		byPart[p] = append(byPart[p], row)
	}
	var out []data.Tuple
	for _, rows := range byPart {
		out = append(out, rows...)
	}
	return out
}

// graceOrder is the ordered reference for a hash join of bt and pt on
// keys, written from the grace join's definition rather than its code:
// the probe rows in graceProbeOrder, each followed by its matches in
// build arrival order. Output rows are build ⧺ probe, the build side
// NULL-padded on an outer miss, and the probe row alone for semi and anti
// joins.
func graceOrder(bt, pt *storage.Table, keys []int, jt JoinType, parts int) []data.Tuple {
	index := map[data.Value][]data.Tuple{}
	for _, row := range bt.Rows() {
		if k := JoinKeyOf(row, keys); !k.IsNull() {
			index[k] = append(index[k], row)
		}
	}
	pad := make(data.Tuple, bt.Schema().Len())
	for i := range pad {
		pad[i] = data.Null()
	}
	var out []data.Tuple
	for _, p := range graceProbeOrder(pt, keys, jt, parts) {
		var matches []data.Tuple
		if k := JoinKeyOf(p, keys); !k.IsNull() {
			matches = index[k]
		}
		switch {
		case jt == SemiJoin || jt == AntiJoin:
			if (len(matches) > 0) == (jt == SemiJoin) {
				out = append(out, p)
			}
		case jt == ProbeOuterJoin && len(matches) == 0:
			out = append(out, append(slices.Clone(pad), p...))
		default:
			for _, b := range matches {
				out = append(out, append(slices.Clone(b), p...))
			}
		}
	}
	return out
}

// checkHashJoinModesKeyed runs one (build, probe, type) input in memory
// and forced to spill, and compares each result against refJoin's multiset and, in order, against the
// grace-order reference. String keys route the scatter, build table and
// probe off the int-lane fast paths; the build input is additionally run
// through a vectorized string filter (LIKE-prefix AND >= kernels, both
// tautologies over the key encoding) so the partition pass exercises the
// sel-in/sel-out string kernels inline. The filter drops NULL build keys,
// which the join drops anyway for every type checked here.
func checkHashJoinModesKeyed(t *testing.T, build, probe []int64, jt JoinType, str bool) {
	t.Helper()
	bt, pt := kvTableKeyed("b", build, str), kvTableKeyed("p", probe, str)
	want := refJoinKeyed(build, probe, jt, str)
	modes := []struct {
		name   string
		budget int64
	}{
		{name: "in-memory"},
		{name: "spill", budget: 128},
	}
	for _, m := range modes {
		var bsrc Operator = NewScan(bt, "")
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
		j := NewHashJoinMulti(bsrc, NewScan(pt, ""), []int{0}, []int{0}, jt)
		if m.budget > 0 {
			j.SetMemoryBudget(m.budget)
		}
		label := jt.String() + "/" + m.name
		got := collect(t, j)
		equalMultisets(t, label, got, want)
		requireSameRows(t, graceOrder(bt, pt, []int{0}, jt, j.parts), got, label)
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
// is checked, in order, against the grace-order reference in memory and
// forced to spill. Bit 0 of flags switches the join keys to strings,
// driving the generic lane-native scatter, the fallback build table and
// the vectorized string-comparison kernels.
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

// TestMergeJoinTupleBatchEquivalence: the sort-merge join — a row
// operator behind row-backed batches — must emit the reference inner join
// and count every row it emits. (The name is kept from when the join was
// also pulled tuple-at-a-time; the batch path is the only one left.)
func TestMergeJoinTupleBatchEquivalence(t *testing.T) {
	checkRowJoinAgainstReference(t, 11, 0, func(l, r Operator) Operator {
		mj, _, _ := NewSortMergeJoin(l, r, 0, 0)
		return mj
	})
}

// TestNLJoinTupleBatchEquivalence: same for the indexed nested-loops
// join, including NULL keys on both sides (skipped by the index).
func TestNLJoinTupleBatchEquivalence(t *testing.T) {
	checkRowJoinAgainstReference(t, 13, 0.2, func(l, r Operator) Operator {
		return NewIndexedNLJoin(l, r, 0, 0)
	})
}

// checkRowJoinAgainstReference runs 8 random trials of join over key
// tables drawn from seed (nullFrac of the keys NULL) against refJoin,
// and checks Emitted equals the rows delivered once the join is done.
func checkRowJoinAgainstReference(t *testing.T, seed int64, nullFrac float64, join func(l, r Operator) Operator) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 8; trial++ {
		left := randKeys(rng, 15+rng.Intn(50), 1+rng.Intn(10), nullFrac)
		right := randKeys(rng, 15+rng.Intn(50), 1+rng.Intn(10), nullFrac)
		j := join(NewScan(kvTable("l", left), ""), NewScan(kvTable("r", right), ""))
		rows := collect(t, j)
		equalMultisets(t, j.Name(), rows, refJoin(left, right, InnerJoin))
		if n := j.Stats().Emitted.Load(); n != int64(len(rows)) || !j.Stats().IsDone() {
			t.Errorf("%s: Emitted %d done=%v for %d rows", j.Name(), n, j.Stats().IsDone(), len(rows))
		}
	}
}

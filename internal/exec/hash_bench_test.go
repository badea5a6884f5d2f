package exec

import (
	"hash/maphash"
	"math"
	"math/rand"
	"testing"

	"qpi/internal/data"
	"qpi/internal/hashtab"
	"qpi/internal/storage"
)

// hashValueSerialized is the seed implementation of hashValue, kept here
// as the benchmark baseline: a fresh maphash.Hash per call, re-seeded,
// fed a kind-tagged byte serialization of the value. The replacement
// (maphash.Comparable) deletes the serialization and guarantees the
// partition hash agrees with the map-key equality the join tables use.
func hashValueSerialized(v data.Value) uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	switch v.Kind {
	case data.KindInt:
		var b [9]byte
		b[0] = 1
		for i := 0; i < 8; i++ {
			b[i+1] = byte(v.I >> (8 * i))
		}
		h.Write(b[:])
	case data.KindFloat:
		var b [9]byte
		b[0] = 2
		bits := math.Float64bits(v.F)
		for i := 0; i < 8; i++ {
			b[i+1] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	case data.KindString:
		h.WriteByte(3)
		h.WriteString(v.S)
	default:
		h.WriteByte(0)
	}
	return h.Sum64()
}

var benchKeys = func() []data.Value {
	out := make([]data.Value, 1024)
	for i := range out {
		switch i % 3 {
		case 0:
			out[i] = data.Int(int64(i * 7919))
		case 1:
			out[i] = data.Float(float64(i) * 0.37)
		default:
			out[i] = data.Str("customer-key-" + string(rune('a'+i%26)))
		}
	}
	return out
}()

var hashSink uint64

func BenchmarkHashValue(b *testing.B) {
	b.Run("serialized-old", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hashSink = hashValueSerialized(benchKeys[i%len(benchKeys)])
		}
	})
	b.Run("comparable-new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hashSink = hashValue(benchKeys[i%len(benchKeys)])
		}
	})
	// Integer keys: the struct hash they used to take against the mixer
	// they take now, boxed (hashValue) and straight off a lane (hashInt).
	b.Run("int-comparable-old", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hashSink = maphash.Comparable(hashSeed, data.Int(int64(i)))
		}
	})
	b.Run("int-value", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hashSink = hashValue(data.Int(int64(i)))
		}
	})
	b.Run("int-lane", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hashSink = hashInt(int64(i))
		}
	})
}

// TestColJoinTableBuild pins the build table's semantics: per-key
// row-index groups in input order, missing and NULL keys empty,
// non-integer keys on the fallback map, rebuilds forget the previous
// partition, and the homogeneous int lane takes the no-Value fast path
// with identical results.
func TestColJoinTableBuild(t *testing.T) {
	rows := []data.Tuple{
		{data.Int(1), data.Int(0)}, {data.Int(2), data.Int(1)}, {data.Int(1), data.Int(2)},
		{data.Str("x"), data.Int(3)}, {data.Null(), data.Int(4)}, {data.Int(1), data.Int(5)},
	}
	var cb data.ColBatch
	cb.FromTuples(rows, 2)
	var jt colJoinTable
	var scratch data.Tuple
	jt.build(&cb, []int{0}, &scratch)
	wantRows := func(label string, got []int32, want ...int32) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s = %v, want %v", label, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s = %v, want %v", label, got, want)
			}
		}
	}
	wantRows("lookupInt(1)", jt.lookupInt(1), 0, 2, 5)
	wantRows("lookupInt(2)", jt.lookupInt(2), 1)
	wantRows(`lookup("x")`, jt.lookup(data.Str("x")), 3)
	wantRows("lookupInt(99)", jt.lookupInt(99))
	wantRows("lookup(NULL)", jt.lookup(data.Null()))

	// Rebuild over a homogeneous int lane (fast path: no Value per row).
	intRows := []data.Tuple{
		{data.Int(7), data.Int(0)}, {data.Int(8), data.Int(1)}, {data.Int(7), data.Int(2)},
	}
	var icb data.ColBatch
	icb.FromTuples(intRows, 2)
	if v := icb.Col(0); !v.Homogeneous() || v.Kind != data.KindInt {
		t.Fatal("int key lane should be homogeneous")
	}
	jt.build(&icb, []int{0}, &scratch)
	wantRows("lookupInt(7)", jt.lookupInt(7), 0, 2)
	wantRows("lookupInt(8)", jt.lookupInt(8), 1)
	wantRows("stale lookupInt(1)", jt.lookupInt(1))
	wantRows(`stale lookup("x")`, jt.lookup(data.Str("x")))
}

// benchJoinTables builds the kvTable pair reused by the columnar join
// benchmark and the alloc bound below: skewed int keys, a few NULLs.
func benchJoinTables() (*storage.Table, *storage.Table) {
	rng := rand.New(rand.NewSource(99))
	build := randKeys(rng, 4096, 512, 0.05)
	probe := randKeys(rng, 8192, 512, 0.05)
	return kvTable("b", build), kvTable("p", probe)
}

func runColumnarJoinOf(bt, pt *storage.Table, jt JoinType) (int64, error) {
	return Run(NewHashJoinMulti(NewScan(bt, ""), NewScan(pt, ""), []int{0}, []int{0}, jt))
}

// runColumnarJoinRows drains the join through Next, a pair per call (the
// row path).
func runColumnarJoinRows(bt, pt *storage.Table) (int64, error) {
	return Run(NewHashJoinMulti(NewScan(bt, ""), NewScan(pt, ""), []int{0}, []int{0}, InnerJoin))
}

// BenchmarkColumnarJoin measures the lane-native columnar grace join
// end-to-end (partition scatter + build + probe + gather) with
// allocation reporting — the pooled partition buffers are what keeps
// allocs/op flat as row counts grow — and the time per probe row
// (ns/probe), on the probe shapes the join kernel treats differently.
// The directory kernel (sweepDirectory) runs:
//
//   - fk-clustered: a PK build side and a lineitem-like probe of one to
//     seven rows per key, in key order;
//   - fk-outer, fk-semi, fk-anti: fk-clustered's inputs under the other
//     three join types (every probe row hits, so fk-anti emits nothing).
//
// The general sweep (sweepRows) over the per-partition hash tables runs
// the builds that repeat keys or span too wide a range for the row
// directory:
//
//   - uniform: skewed random int keys, a few NULLs (dropped by the
//     scatter, so the probe lanes are NULL-free);
//   - sparse-pk: fk-clustered with every key times seven, so the key
//     span is about 7n (equal-key runs, one-row spans);
//   - overrun: a key whose span is three batches long (the resume cursor);
//   - semi, anti: the uniform inputs, one probe-only pair per hit or miss
//     (anti keeps the NULL keys, so its partition 0 lanes test the bitmap);
//   - rows: the uniform inner join drained through Next, one pair a call.
func BenchmarkColumnarJoin(b *testing.B) {
	bt, pt := benchJoinTables()
	var pk, fk, sparsePK, sparseFK, hot, few []int64
	for k := int64(0); k < 4096; k++ {
		pk = append(pk, k)
		sparsePK = append(sparsePK, 7*k)
		for r := k % 7; r >= 0; r-- {
			fk = append(fk, k)
			sparseFK = append(sparseFK, 7*k)
		}
	}
	for r := 0; r < 3*data.BatchSize(); r++ {
		hot = append(hot, 0)
	}
	for k := int64(0); k < 2048; k++ {
		few = append(few, k%64)
	}
	pkt, fkt := kvTable("b", pk), kvTable("p", fk)
	cases := []struct {
		name   string
		bt, pt *storage.Table
		jt     JoinType
	}{
		{"uniform", bt, pt, InnerJoin},
		{"fk-clustered", pkt, fkt, InnerJoin},
		{"fk-outer", pkt, fkt, ProbeOuterJoin},
		{"fk-semi", pkt, fkt, SemiJoin},
		{"fk-anti", pkt, fkt, AntiJoin},
		{"sparse-pk", kvTable("b", sparsePK), kvTable("p", sparseFK), InnerJoin},
		{"overrun", kvTable("b", hot), kvTable("p", few), InnerJoin},
		{"semi", bt, pt, SemiJoin},
		{"anti", bt, pt, AntiJoin},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := runColumnarJoinOf(c.bt, c.pt, c.jt); err != nil {
					b.Fatal(err)
				}
			}
			reportPerProbe(b, c.pt)
		})
	}
	b.Run("rows", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := runColumnarJoinRows(bt, pt); err != nil {
				b.Fatal(err)
			}
		}
		reportPerProbe(b, pt)
	})
}

// reportPerProbe reports a join benchmark's time per probe row read.
func reportPerProbe(b *testing.B, pt *storage.Table) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pt.NumRows()), "ns/probe")
}

// TestColumnarJoinAllocsPooled asserts the pooling contract of the
// lane-native partition path: once the ColBatch pool is warm, a full
// columnar join run allocates O(partitions + output batches), not
// O(rows). Without GetColBatch/PutColBatch on the scatter and gather
// buffers this blows past the bound by an order of magnitude.
func TestColumnarJoinAllocsPooled(t *testing.T) {
	bt, pt := benchJoinTables()
	// Warm the pools (and pin the expected cardinality).
	want, err := runColumnarJoinOf(bt, pt, InnerJoin)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(5, func() {
		n, err := runColumnarJoinOf(bt, pt, InnerJoin)
		if err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Fatalf("join returned %d rows, want %d", n, want)
		}
	})
	// The bench workload (135k scanned rows) holds at ~460 allocs/op;
	// this 12k-row shape sits far below that. The bound is loose enough
	// for allocator noise, tight enough that a per-row or per-partition
	// regression (≥ thousands of allocs) fails loudly.
	if avg > 800 {
		t.Errorf("columnar join allocations = %.0f per run, want ≤ 800 (pooling regression)", avg)
	}
}

// TestHashValueDistinguishesKinds guards the property both implementations
// share: values of different kinds (or different payloads) hash apart with
// overwhelming probability, and equal values hash equal — and the lane
// fast path agrees with the boxed one.
func TestHashValueDistinguishesKinds(t *testing.T) {
	vals := []data.Value{
		data.Null(), data.Int(0), data.Int(1), data.Float(0), data.Float(1),
		data.Str(""), data.Str("0"), data.Str("a"),
	}
	for i, a := range vals {
		for k, b := range vals {
			ha, hb := hashValue(a), hashValue(b)
			if i == k && ha != hb {
				t.Fatalf("hashValue(%v) not deterministic", a)
			}
			if i != k && ha == hb {
				t.Errorf("hashValue collision: %v vs %v", a, b)
			}
		}
	}
	for _, k := range []int64{0, 1, -1, 1 << 40, -1 << 63} {
		if hashValue(data.Int(k)) != hashInt(k) {
			t.Errorf("hashValue(Int(%d)) disagrees with hashInt", k)
		}
	}
	t.Run("partition-bits-independent-of-table-bits", testPartitionHashIndependentOfTableHash)
}

// testPartitionHashIndependentOfTableHash pins the requirement on the
// integer mixer: the partition id must not share bits with the slot index
// hashtab.I64Map derives from the same key, or the keys of one partition
// pile into 1/parts of that partition's join table and histogram. For
// sequential keys (surrogate join keys) and Zipf-drawn ones, every
// partition must be balanced, and its keys must spread over an I64Map
// with a mean probe run no worse than a same-sized set of keys picked
// without regard to partition.
func testPartitionHashIndependentOfTableHash(t *testing.T) {
	const parts, n = 16, 1 << 16
	sequential := make([]int64, n)
	for i := range sequential {
		sequential[i] = int64(i)
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(5)), 1.3, 1, 1<<30)
	seen := map[int64]bool{}
	var skewed []int64
	for len(skewed) < n {
		if k := int64(zipf.Uint64()); !seen[k] {
			seen[k] = true
			skewed = append(skewed, k)
		}
	}
	meanProbe := func(keys []int64) float64 {
		var m hashtab.I64Map[int32]
		for _, k := range keys {
			*m.Ref(k)++
		}
		return m.MeanProbe()
	}
	for name, keys := range map[string][]int64{"sequential": sequential, "zipf": skewed} {
		byPart := make([][]int64, parts)
		for _, k := range keys {
			p := partitionOf(hashInt(k), parts)
			byPart[p] = append(byPart[p], k)
		}
		for p, pk := range byPart {
			if len(pk) < n/parts*3/4 || len(pk) > n/parts*5/4 {
				t.Errorf("%s keys: partition %d holds %d of %d keys, want about %d", name, p, len(pk), n, n/parts)
			}
			// The yardstick: as many keys, taken at a fixed stride.
			var ref []int64
			for i := p; len(ref) < len(pk); i = (i + parts + 1) % len(keys) {
				ref = append(ref, keys[i])
			}
			if got, want := meanProbe(pk), meanProbe(ref); got > 1.25*want {
				t.Errorf("%s keys: partition %d probes %.2f slots per key in an I64Map, unpartitioned keys %.2f", name, p, got, want)
			}
		}
	}
}

// BenchmarkHashAggGroups times a COUNT(*) GROUP BY over 50 000 integer
// rows in 4 300 groups — the shape of the service benchmark's row-returning
// query — drained through NextColBatch.
func BenchmarkHashAggGroups(b *testing.B) {
	const rows, groups = 50000, 4300
	rng := rand.New(rand.NewSource(1))
	keys := make([]int64, rows)
	for i := range keys {
		keys[i] = int64(rng.Intn(groups))
	}
	tb := makeTable("t", keys)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Run(NewHashAgg(NewScan(tb, ""), []int{0}, []AggSpec{{Func: CountStar}})); err != nil {
			b.Fatal(err)
		}
	}
}

package exec

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"qpi/internal/data"
)

// residentBuild lays keys out as an unbudgeted join's build pass leaves
// them: one lane batch per non-empty partition, rows in arrival order,
// the row position as the second column. A NULL key joins the partition
// of the key before it (the scatter drops NULLs; this puts one in an int
// lane to test the gate). emptyBatch adds an empty batch to the first
// partition no key reaches.
func residentBuild(keys []data.Value, parts int, emptyBatch bool) []colPart {
	rows := make([][]data.Tuple, parts)
	p := 0
	for i, k := range keys {
		if !k.IsNull() {
			p = partitionOf(hashValue(k), parts)
		}
		rows[p] = append(rows[p], data.Tuple{k, data.Int(int64(i))})
	}
	out := make([]colPart, parts)
	for p, r := range rows {
		if len(r) == 0 {
			if emptyBatch {
				cb := data.GetColBatch()
				cb.BeginBuild(2)
				out[p], emptyBatch = colPart{cb}, false
			}
			continue
		}
		cb := data.GetColBatch()
		cb.FromTuples(r, 2)
		out[p] = colPart{cb}
	}
	return out
}

// intKeys returns keys as int Values.
func intKeys(keys ...int64) []data.Value {
	out := make([]data.Value, len(keys))
	for i, k := range keys {
		out[i] = data.Int(k)
	}
	return out
}

// keyRun returns n distinct keys drawn from [lo, lo+span) that include
// both ends, shuffled.
func keyRun(rng *rand.Rand, lo int64, n, span int) []int64 {
	keys := []int64{lo, lo + int64(span-1)}
	for _, d := range rng.Perm(span - 2)[:n-2] {
		keys = append(keys, lo+1+int64(d))
	}
	rng.Shuffle(len(keys), func(a, b int) { keys[a], keys[b] = keys[b], keys[a] })
	return keys
}

// TestKeyDirectoryMatchesHashTable builds the row directory and the
// per-partition hash tables over the same resident partitions and holds
// the directory to the tables: lookupInt must return the same rows for
// every key in [lo-2, hi+2] (wrapping at the ends of the int64 domain)
// and for random keys outside it. The cases walk the gate — a span of
// exactly n, the largest span within 5n/4 and the smallest past it, a
// repeated key found before (span < n) and during the fill, a NULL in
// the lane, one row, empty partitions — and the ends of the domain: keys
// at hashtab's math.MinInt64 sentinel and at math.MaxInt64 in one build
// must not wrap hi-lo into a small span that takes the directory.
func TestKeyDirectoryMatchesHashTable(t *testing.T) {
	const parts = 8
	rng := rand.New(rand.NewSource(5))
	repeatAfterGate := keyRun(rng, 100, 39, 41)
	repeatAfterGate = append(repeatAfterGate, repeatAfterGate[7])
	withNull := append(intKeys(keyRun(rng, 0, 30, 30)...), data.Null())
	cases := []struct {
		name    string
		keys    []data.Value
		wantDir bool
	}{
		{"span=n", intKeys(keyRun(rng, 100, 40, 40)...), true},
		{"span=5n/4", intKeys(keyRun(rng, -20, 40, 50)...), true},
		{"span=5n/4+1", intKeys(keyRun(rng, -20, 40, 51)...), false},
		{"n=41/span=51", intKeys(keyRun(rng, 7, 41, 51)...), true},
		{"n=41/span=52", intKeys(keyRun(rng, 7, 41, 52)...), false},
		{"repeat/span<n", intKeys(append(keyRun(rng, 100, 40, 40), 117)...), false},
		{"repeat/in-fill", intKeys(repeatAfterGate...), false},
		{"null-in-lane", withNull, false},
		{"one-row", intKeys(42), true},
		{"domain-ends", intKeys(math.MinInt64, math.MinInt64+1, 0, math.MaxInt64-1, math.MaxInt64), false},
		{"dense-at-min", intKeys(keyRun(rng, math.MinInt64, 12, 14)...), true},
		{"dense-at-max", intKeys(keyRun(rng, math.MaxInt64-13, 12, 14)...), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			build := residentBuild(c.keys, parts, true)
			defer func() {
				for _, part := range build {
					for _, cb := range part {
						data.PutColBatch(cb)
					}
				}
			}()
			if c.name == "null-in-lane" {
				last := c.keys[len(c.keys)-2]
				cb := build[partitionOf(hashValue(last), parts)][0]
				if kv := intKeyLane(cb, []int{0}); kv == nil || !kv.Nulls.Any() {
					t.Fatal("the NULL did not land in a homogeneous int lane")
				}
			}
			tables := make([]colJoinTable, parts)
			var scratch data.Tuple
			for p, part := range build {
				var cb *data.ColBatch
				if len(part) > 0 {
					cb = part[0]
				}
				tables[p].build(cb, []int{0}, &scratch)
			}
			var dir colJoinTable
			n, ok := dir.buildDirectory(build, []int{0})
			if ok != c.wantDir || (dir.rowOf != nil) != c.wantDir {
				t.Fatalf("directory taken = %v (rowOf set %v), want %v", ok, dir.rowOf != nil, c.wantDir)
			}
			if !ok {
				return
			}
			lo, hi := slices.MinFunc(c.keys, cmpInt).I, slices.MaxFunc(c.keys, cmpInt).I
			if span := uint64(hi) - uint64(lo) + 1; n != len(c.keys) || uint64(len(dir.rowOf)) != span {
				t.Fatalf("n = %d, span = %d; want %d, %d", n, len(dir.rowOf), len(c.keys), span)
			}
			check := func(k int64) {
				got := dir.lookupInt(k)
				want := tables[partitionOf(hashInt(k), parts)].lookupInt(k)
				if !slices.Equal(got, want) {
					t.Fatalf("lookupInt(%d) = %v, the hash table %v", k, got, want)
				}
			}
			for d := uint64(0); d < uint64(len(dir.rowOf))+4; d++ {
				check(int64(uint64(lo) - 2 + d)) // wraps at the domain's ends
			}
			for i := 0; i < 200; i++ {
				k := rng.Int63()
				if i%2 == 0 {
					k = -k
				}
				check(k)
			}
		})
	}
}

func cmpInt(a, b data.Value) int { return cmp.Compare(a.I, b.I) }

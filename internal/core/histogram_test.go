package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"qpi/internal/data"
)

// TestDenseHistogramMatchesHashed feeds one random stream to a histogram
// ranged with ReserveRange and to one sized with Reserve alone, and holds
// every read of the two equal: counts one key and a chunk at a time,
// Distinct, Total, the profile (tracked and rescanned) and the multiset
// Each yields. The stream mixes in-range keys with keys past either end
// (a stale catalog range), math.MinInt64 (the hash table's sentinel),
// NULL bitmaps, selection vectors, unit and weighted adds and string
// keys, and turns TrackProfile on midway. Each stream also runs without
// the out-of-range writes, which keeps CountInts on its clamped path while
// the reads still ask for keys past the range. Ranges cover both of
// ReserveRange's dense rules and one it leaves hashed.
func TestDenseHistogramMatchesHashed(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, tc := range []rangeCase{
		{"twice the hint", 500, 1, 1000, true},
		{"small domain", 10, -2000, 2000, true},
		{"negative keys", 300, -600, -1, true},
		{"sparse", 100, 0, 1 << 20, false},
	} {
		for _, stale := range []bool{true, false} {
			denseMatchesHashed(t, rng, tc, stale)
		}
	}
}

type rangeCase struct {
	name   string
	n      int
	lo, hi int64
	dense  bool
}

func denseMatchesHashed(t *testing.T, rng *rand.Rand, tc rangeCase, stale bool) {
	ranged, hashed := NewFreqHistogram(), NewFreqHistogram()
	ranged.ReserveRange(tc.n, tc.lo, tc.hi)
	hashed.Reserve(tc.n)
	if got := ranged.span != 0; got != tc.dense {
		t.Fatalf("%s: dense lane %v, want %v", tc.name, got, tc.dense)
	}
	span := tc.hi - tc.lo + 1
	if r, h := ranged.MemoryAllocated(), hashed.MemoryAllocated(); span <= 2*int64(tc.n) && r > h {
		t.Errorf("%s: the dense lane allocates %d B, the hash table it replaces %d B", tc.name, r, h)
	} else if r > max(h, (denseSmallKeys+1)*8) {
		t.Errorf("%s: the dense lane allocates %d B, above %d B", tc.name, r, max(h, (denseSmallKeys+1)*8))
	}
	readKey := func() int64 {
		switch rng.Intn(20) {
		case 0:
			return math.MinInt64
		case 1:
			return tc.hi + 1 + rng.Int63n(50)
		case 2:
			return tc.lo - 1 - rng.Int63n(50)
		default:
			return tc.lo + rng.Int63n(min(span, 3000))
		}
	}
	key := func() int64 {
		for {
			if k := readKey(); stale || tc.lo <= k && k <= tc.hi {
				return k
			}
		}
	}
	for step := 0; step < 400; step++ {
		if step == 200 {
			ranged.TrackProfile()
			hashed.TrackProfile()
		}
		switch rng.Intn(5) {
		case 0:
			v := data.Int(key())
			if rng.Intn(10) == 0 {
				v = data.Str([]string{"x", "y"}[rng.Intn(2)])
			} else if rng.Intn(10) == 0 {
				v = data.Null()
			}
			ranged.Add(v)
			hashed.Add(v)
		case 1:
			v, w := data.Int(key()), int64(1+rng.Intn(9))
			ranged.AddN(v, w)
			hashed.AddN(v, w)
		default:
			vals := make([]int64, 1+rng.Intn(100))
			for i := range vals {
				vals[i] = key()
			}
			var nulls data.Bitmap
			var sel []int32
			for i := range vals {
				if rng.Intn(8) == 0 {
					nulls.Set(i)
				}
				if rng.Intn(3) != 0 {
					sel = append(sel, int32(i))
				}
			}
			if rng.Intn(2) == 0 {
				sel = nil
			}
			ranged.ObserveColumn(vals, sel, nulls)
			hashed.ObserveColumn(vals, sel, nulls)
		}
		if step%50 == 49 {
			sameHistogram(t, tc.name, ranged, hashed, readKey)
		}
	}
}

// sameHistogram fails t unless a and b read the same on every read.
func sameHistogram(t *testing.T, name string, a, b *FreqHistogram, key func() int64) {
	t.Helper()
	keys := make([]int64, 64)
	for i := range keys {
		keys[i] = key()
	}
	ca, cb := make([]int64, len(keys)), make([]int64, len(keys))
	a.CountInts(keys, ca)
	b.CountInts(keys, cb)
	for i, k := range keys {
		if ca[i] != cb[i] || a.CountInt(k) != ca[i] || a.Count(data.Int(k)) != cb[i] {
			t.Fatalf("%s: key %d counts %d (CountInt %d) ranged, %d hashed", name, k, ca[i], a.CountInt(k), cb[i])
		}
	}
	for _, s := range []string{"x", "y"} {
		if a.Count(data.Str(s)) != b.Count(data.Str(s)) {
			t.Fatalf("%s: %q counts %d ranged, %d hashed", name, s, a.Count(data.Str(s)), b.Count(data.Str(s)))
		}
	}
	if a.Distinct() != b.Distinct() || a.Total() != b.Total() {
		t.Fatalf("%s: distinct %d total %d ranged, distinct %d total %d hashed",
			name, a.Distinct(), a.Total(), b.Distinct(), b.Total())
	}
	for _, p := range [][2]map[int64]int64{
		{a.FrequencyOfFrequencies(), b.FrequencyOfFrequencies()},
		{a.Profile(), b.Profile()},
		{a.Profile(), a.FrequencyOfFrequencies()},
	} {
		if len(p[0]) != len(p[1]) {
			t.Fatalf("%s: profiles %v and %v", name, p[0], p[1])
		}
		for j, n := range p[0] {
			if p[1][j] != n {
				t.Fatalf("%s: profiles %v and %v", name, p[0], p[1])
			}
		}
	}
	ea, eb := eachPairs(a), eachPairs(b)
	if len(ea) != len(eb) || int64(len(ea)) != a.Distinct() {
		t.Fatalf("%s: Each yields %d pairs ranged, %d hashed, %d distinct", name, len(ea), len(eb), a.Distinct())
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("%s: Each pair %d is %v ranged, %v hashed", name, i, ea[i], eb[i])
		}
	}
}

type valueCount struct {
	v data.Value
	n int64
}

// eachPairs returns what h.Each yields, sorted.
func eachPairs(h *FreqHistogram) []valueCount {
	var out []valueCount
	h.Each(func(v data.Value, n int64) bool {
		out = append(out, valueCount{v, n})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return data.Compare(out[i].v, out[j].v) < 0 })
	return out
}

// TestReserveRangeBounds: the dense rule's edges, and a range ReserveRange
// will not take.
func TestReserveRangeBounds(t *testing.T) {
	for _, tc := range []struct {
		n      int
		lo, hi int64
		dense  bool
	}{
		{100, 1, 200, true},
		{100, 1, 201, true}, // within the 4 096-key small domain
		{100, 1, denseSmallKeys, true},
		{100, 1, denseSmallKeys + 1, false},
		{3000, 0, 5999, true},
		{3000, 0, 6000, false},
		{10, 5, 4, false}, // empty
		{0, -1 << 53, 1 << 53, false},
	} {
		h := NewFreqHistogram()
		h.ReserveRange(tc.n, tc.lo, tc.hi)
		if got := h.span != 0; got != tc.dense {
			t.Errorf("ReserveRange(%d, %d, %d): dense %v, want %v", tc.n, tc.lo, tc.hi, got, tc.dense)
		}
		if tc.dense && int64(len(h.dense)) != tc.hi-tc.lo+2 {
			t.Errorf("ReserveRange(%d, %d, %d): %d slots, want the range and one pad", tc.n, tc.lo, tc.hi, len(h.dense))
		}
	}
}

// Package core implements the paper's online cardinality estimation
// framework ("once"): exact frequency histograms built during operator
// preprocessing phases, incrementally-updated join estimators with
// confidence intervals (§4.1), push-down estimation for pipelines of hash
// joins (Algorithm 1, §4.1.4), the dne and byte baseline estimators, and
// the glue that attaches all of them to an executor plan.
package core

import (
	"sort"

	"qpi/internal/data"
	"qpi/internal/hashtab"
)

// FreqHistogram is an exact value-frequency histogram: for every distinct
// value v it maintains N_v, the number of times v was observed (§4.1.1's
// N^R_i counts). It also supports weighted increments, which the derived
// histograms of Case 2 pipelines need (§4.1.4.2), and tracks the memory
// accounting reported in the paper's Table 2.
//
// Integer keys — the overwhelmingly common join-key type — take a fast
// path through an open-addressing hashtab.I64Map, keeping the per-tuple
// overhead of the estimation framework small (the paper's "lightweight"
// requirement); other kinds share a map keyed by data.Value. A key the
// catalog bounds to a dense range is counted in a flat lane instead
// (ReserveRange), and a lookup becomes a subtract and a load.
type FreqHistogram struct {
	ints  hashtab.I64Map[int64]
	other map[data.Value]int64
	total int64 // sum of all counts (weighted observations)

	// dense counts the integer keys in [lo, lo+span): dense[k−lo] is N_k,
	// and dense[span] is a trailing 0 that out-of-range reads clamp onto.
	// Keys outside the range go to ints as before, so a stale range costs
	// speed, never exactness. span 0 means no lane.
	dense []int64
	lo    int64
	span  uint64

	// prof, when enabled by TrackProfile, is the frequency-of-frequencies
	// profile f_j maintained incrementally on every update: a count
	// transition c → c+w costs two profile touches instead of a full
	// histogram scan per estimator refresh.
	prof map[int64]int64
}

// NewFreqHistogram creates an empty histogram.
func NewFreqHistogram() *FreqHistogram {
	return &FreqHistogram{}
}

// TrackProfile turns on incremental maintenance of the
// frequency-of-frequencies profile, back-filling from any counts already
// present. Profile then returns the live profile without rescanning the
// histogram — the refresh path of the push-down aggregation estimators,
// which would otherwise rebuild the profile on every publish boundary.
func (h *FreqHistogram) TrackProfile() *FreqHistogram {
	if h.prof == nil {
		h.prof = h.FrequencyOfFrequencies()
	}
	return h
}

// profShift moves one value's profile mass from count old to count new.
func (h *FreqHistogram) profShift(old, new int64) {
	if h.prof == nil {
		return
	}
	if old != 0 {
		if h.prof[old]--; h.prof[old] == 0 {
			delete(h.prof, old)
		}
	}
	if new != 0 {
		h.prof[new]++
	}
}

// Reserve sizes the integer table for n distinct values up front, so a
// build pass whose key count is known does not rehash its way there. It
// never shrinks the table; n <= 0 does nothing.
func (h *FreqHistogram) Reserve(n int) { h.ints.Reserve(n) }

// denseSmallKeys is the domain size up to which ReserveRange always takes
// the flat lane: 32 KB of counts, whatever the key count.
const denseSmallKeys = 4096

// ReserveRange is Reserve for n distinct integer keys that the catalog
// bounds to [lo, hi]. When the range is dense — hi−lo+1 ≤ 2n, or at most
// denseSmallKeys keys — the keys are counted in a flat lane indexed by
// k−lo, with no hashing, probing or growth. Under the 2n rule the lane
// takes at most 16 B per hinted key, against the hash table's ≥ 18.3 B at
// 7/8 load. Otherwise it reserves the
// hash table. The bounds must satisfy |lo|, |hi| ≤ 2^53, and it must be
// called before the first observation.
func (h *FreqHistogram) ReserveRange(n int, lo, hi int64) {
	if span := hi - lo + 1; hi >= lo && (span <= 2*int64(n) || span <= denseSmallKeys) {
		h.dense = make([]int64, span+1)
		h.lo, h.span = lo, uint64(span)
		return
	}
	h.Reserve(n)
}

// intRef returns the count cell of integer key k: its dense slot when k is
// in range, its hash table entry otherwise.
func (h *FreqHistogram) intRef(k int64) *int64 {
	if off := uint64(k - h.lo); off < h.span {
		return &h.dense[off]
	}
	return h.ints.Ref(k)
}

// Add counts one observation of v. NULLs are ignored (they never join or
// group with anything under our key semantics).
func (h *FreqHistogram) Add(v data.Value) {
	if v.Kind == data.KindInt {
		h.addInt(v.I)
		return
	}
	h.AddN(v, 1)
}

// addInt counts one observation of integer key k.
func (h *FreqHistogram) addInt(k int64) {
	p := h.intRef(k)
	*p++
	h.total++
	if h.prof != nil {
		h.profShift(*p-1, *p)
	}
}

// AddN counts w observations of v.
func (h *FreqHistogram) AddN(v data.Value, w int64) {
	if v.IsNull() || w == 0 {
		return
	}
	var old, new int64
	if v.Kind == data.KindInt {
		p := h.intRef(v.I)
		old = *p
		*p += w
		new = *p
	} else {
		if h.other == nil {
			h.other = make(map[data.Value]int64)
		}
		old = h.other[v]
		h.other[v] = old + w
		new = old + w
	}
	h.total += w
	h.profShift(old, new)
}

// ObserveColumn counts one observation of every live value in a flat
// int64 key column — the span-at-a-time form of Add used by the columnar
// partition passes. sel selects the live rows (nil = all n values) and
// nulls flags NULL rows, which are skipped exactly as Add skips NULL
// values; the resulting histogram state is identical to calling Add row
// by row over the same span.
func (h *FreqHistogram) ObserveColumn(vals []int64, sel []int32, nulls data.Bitmap) {
	if sel == nil {
		for i, k := range vals {
			if !nulls.Get(i) {
				h.addInt(k)
			}
		}
	} else {
		for _, i := range sel {
			if !nulls.Get(int(i)) {
				h.addInt(vals[i])
			}
		}
	}
}

// CountInt returns N_v for an integer key without boxing it in a Value —
// the probe-side span companion of ObserveColumn.
func (h *FreqHistogram) CountInt(v int64) int64 {
	if off := uint64(v - h.lo); off < h.span {
		return h.dense[off]
	}
	n, _ := h.ints.Get(v)
	return n
}

// CountInts writes N_k for every key of keys into out[:len(keys)] — the
// chunk form of CountInt the probe-side lane kernel gathers through. When
// every counted key is in the dense range, a lookup clamps k−lo onto the
// lane's trailing 0 and loads: no hash, no probe loop, no miss branch.
func (h *FreqHistogram) CountInts(keys, out []int64) {
	out = out[:len(keys)]
	if h.span != 0 && h.ints.Len() == 0 {
		dense, lo, span := h.dense[:h.span+1], h.lo, h.span
		for i, k := range keys {
			out[i] = dense[min(uint64(k-lo), span)]
		}
		return
	}
	for i, k := range keys {
		out[i] = h.CountInt(k)
	}
}

// Count returns N_v.
func (h *FreqHistogram) Count(v data.Value) int64 {
	if v.Kind == data.KindInt {
		return h.CountInt(v.I)
	}
	if h.other == nil {
		return 0
	}
	return h.other[v]
}

// Distinct returns the number of distinct values observed, scanning the
// dense lane if there is one. A dense key whose count a negative weight
// returned to 0 no longer counts, as it no longer shows in Each or the
// profile.
func (h *FreqHistogram) Distinct() int64 {
	n := int64(h.ints.Len() + len(h.other))
	for _, c := range h.dense {
		if c != 0 {
			n++
		}
	}
	return n
}

// Total returns the sum of all counts.
func (h *FreqHistogram) Total() int64 { return h.total }

// Each calls f for every (value, count) pair, in unspecified order. f
// returning false stops the iteration.
func (h *FreqHistogram) Each(f func(v data.Value, n int64) bool) {
	for off, n := range h.dense[:h.span] {
		if n != 0 && !f(data.Int(h.lo+int64(off)), n) {
			return
		}
	}
	stopped := false
	h.ints.Each(func(i int64, n int64) bool {
		if !f(data.Int(i), n) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	for v, n := range h.other {
		if !f(v, n) {
			return
		}
	}
}

// FrequencyOfFrequencies returns the f_j profile used by the distinct-value
// estimators: result[j] = number of values observed exactly j times. It
// always rescans; estimator refresh paths should use Profile instead.
func (h *FreqHistogram) FrequencyOfFrequencies() map[int64]int64 {
	f := make(map[int64]int64)
	for _, n := range h.dense {
		if n != 0 {
			f[n]++
		}
	}
	h.ints.Each(func(_ int64, n int64) bool {
		if n != 0 {
			f[n]++
		}
		return true
	})
	for _, n := range h.other {
		if n != 0 {
			f[n]++
		}
	}
	return f
}

// Profile returns the frequency-of-frequencies profile: the incrementally
// maintained one when TrackProfile is on (shared, read-only — O(1) per
// call), a fresh scan otherwise.
func (h *FreqHistogram) Profile() map[int64]int64 {
	if h.prof != nil {
		return h.prof
	}
	return h.FrequencyOfFrequencies()
}

// TopK returns the k most frequent values (ties broken by value order).
func (h *FreqHistogram) TopK(k int) []struct {
	Value data.Value
	Count int64
} {
	type vc struct {
		Value data.Value
		Count int64
	}
	all := make([]vc, 0, h.Distinct())
	h.Each(func(v data.Value, n int64) bool {
		all = append(all, vc{v, n})
		return true
	})
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return data.Compare(all[i].Value, all[j].Value) < 0
	})
	if len(all) > k {
		all = all[:k]
	}
	out := make([]struct {
		Value data.Value
		Count int64
	}, len(all))
	for i, e := range all {
		out[i] = struct {
			Value data.Value
			Count int64
		}{e.Value, e.Count}
	}
	return out
}

// Memory accounting (paper §5.2.1 / Table 2). The paper stores 8 bytes of
// payload per entry (4-byte value + 4-byte count) inside PostgreSQL's
// generic hash table, observing ~20 bytes of overhead per entry from the
// hash table's pointers. Our integer entries live in an open-addressing
// table of int64 key/count pairs.

// entryPayloadBytes is the payload the paper counts per entry: the value
// and its count.
const entryPayloadBytes = 8

// goMapEntryOverhead approximates the per-entry cost of a Go
// map[data.Value]int64 entry (the non-integer fallback): 40-byte key plus
// bucket headers, overflow pointers and spare bucket capacity.
const goMapEntryOverhead = 16 + 12

// MemoryUsed returns the bytes of live histogram payload, in the paper's
// accounting: 8 bytes per entry plus the bytes of any string keys.
func (h *FreqHistogram) MemoryUsed() int64 {
	used := h.Distinct() * entryPayloadBytes
	for v := range h.other {
		if v.Kind == data.KindString {
			used += int64(len(v.S))
		}
	}
	return used
}

// MemoryAllocated estimates the bytes actually allocated by the backing
// tables, the analogue of the paper's "Mem. Alloc." column: the
// open-addressing table allocates 16 bytes per slot (int64 key + int64
// count) at ≤ 7/8 load, the dense lane 8 bytes per key of its range.
func (h *FreqHistogram) MemoryAllocated() int64 {
	alloc := int64(h.ints.Slots())*16 + int64(len(h.dense))*8
	for v := range h.other {
		alloc += entryPayloadBytes + goMapEntryOverhead + 32 // data.Value key
		if v.Kind == data.KindString {
			alloc += int64(len(v.S))
		}
	}
	return alloc
}

// Package hashtab provides a cache-friendly open-addressing hash table
// keyed by int64, shared by the engine's hottest int-keyed paths: the
// grace hash join's per-partition build tables (exec.joinTable and
// exec.colJoinTable, except on a dense primary-key build, which the
// columnar join indexes with a flat row directory instead), the
// estimation framework's frequency histograms (core.FreqHistogram) and
// hash aggregation's group index (exec.HashAgg).
//
// Compared with a Go map[int64]V it removes per-operation interface
// hashing, bucket-chain pointer chasing and the ~28 B/entry bucket
// overhead: keys live in one flat power-of-two []int64 probed linearly,
// values in a parallel []V, so a lookup touches one or two cache lines.
// The table never shrinks and supports no deletion — exactly the
// lifecycle of a per-partition build table or a monotone histogram,
// which are built, read, and thrown away.
package hashtab

import "math/bits"

// emptyKey marks an unoccupied slot so the probe loop touches only the
// key array. The one real key colliding with the sentinel is carried
// out-of-band in I64Map.sentinelVal, keeping the full int64 domain valid.
const emptyKey int64 = -0x8000_0000_0000_0000

// I64Map is an int64-keyed open-addressing hash table with linear
// probing. The zero value is an empty map ready for use (first insert
// allocates). Not safe for concurrent mutation; concurrent reads of a
// frozen table are safe.
type I64Map[V any] struct {
	keys []int64
	vals []V
	mask uint64
	n    int // occupied slots, excluding the sentinel key

	hasSentinel bool
	sentinelVal V
}

// NewI64Map returns a map pre-sized for about hint entries.
func NewI64Map[V any](hint int) *I64Map[V] {
	m := &I64Map[V]{}
	m.Reserve(hint)
	return m
}

// Reserve grows the table to hold about n entries without rehashing
// again; it never shrinks it.
func (m *I64Map[V]) Reserve(n int) {
	if c := capFor(n); n > 0 && c > len(m.keys) {
		m.grow(c)
	}
}

// capFor returns the power-of-two slot count that holds n entries below
// the maximum load factor (7/8).
func capFor(n int) int {
	c := 8
	for c*7/8 < n {
		c <<= 1
	}
	return c
}

// hash is a strong 64-bit mixer (splitmix64 finalizer): sequential keys —
// the common case for surrogate join keys — spread over the whole table,
// so linear probe runs stay short.
func hash(k int64) uint64 {
	x := uint64(k)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Len returns the number of entries.
func (m *I64Map[V]) Len() int {
	if m.hasSentinel {
		return m.n + 1
	}
	return m.n
}

// Get returns the value stored under k, if any.
func (m *I64Map[V]) Get(k int64) (V, bool) {
	if k == emptyKey {
		return m.sentinelVal, m.hasSentinel
	}
	if len(m.keys) == 0 {
		var zero V
		return zero, false
	}
	i := hash(k) & m.mask
	for {
		switch m.keys[i] {
		case k:
			return m.vals[i], true
		case emptyKey:
			var zero V
			return zero, false
		}
		i = (i + 1) & m.mask
	}
}

// Ref returns a pointer to the value slot for k, inserting a zero value
// if the key is absent. The pointer is valid until the next insertion
// (which may grow the table); callers use it for in-place patterns like
// counters (*m.Ref(k)++) and slice appends. It is Slot's loop returning
// the value's address rather than At(Slot(k)): written as At(Slot(k)),
// BenchmarkI64MapVsGoMap/hashtab (4 096 Ref inserts and Gets) ran 24 %
// slower, 8 of 8 alternating 1 s samples on a 2-vCPU box, and Ref is the
// per-row insert of the histograms, HashAgg's int groups and the
// generic-key join build.
func (m *I64Map[V]) Ref(k int64) *V {
	if k == emptyKey {
		m.hasSentinel = true
		return &m.sentinelVal
	}
	if len(m.keys) == 0 {
		m.grow(8)
	}
	i := hash(k) & m.mask
	for {
		switch m.keys[i] {
		case k:
			return &m.vals[i]
		case emptyKey:
			if (m.n+1)*8 > len(m.keys)*7 {
				m.grow(len(m.keys) * 2)
				return m.Ref(k)
			}
			m.keys[i] = k
			m.n++
			return &m.vals[i]
		}
		i = (i + 1) & m.mask
	}
}

// sentinelSlot is the slot index Slot hands out for the sentinel key.
const sentinelSlot int32 = -1

// Slot returns the slot index holding k, inserting a zero value if the
// key is absent. The index is valid only while the table does not grow:
// a caller that records slots across insertions compares Slots() before
// and after, and slots its keys again if it changed.
func (m *I64Map[V]) Slot(k int64) int32 {
	if k == emptyKey {
		m.hasSentinel = true
		return sentinelSlot
	}
	if len(m.keys) == 0 {
		m.grow(8)
	}
	i := hash(k) & m.mask
	for {
		switch m.keys[i] {
		case k:
			return int32(i)
		case emptyKey:
			if (m.n+1)*8 > len(m.keys)*7 {
				m.grow(len(m.keys) * 2)
				return m.Slot(k)
			}
			m.keys[i] = k
			m.n++
			return int32(i)
		}
		i = (i + 1) & m.mask
	}
}

// At returns a pointer to the value in slot s, an index Slot returned
// since the table last grew.
func (m *I64Map[V]) At(s int32) *V {
	if s == sentinelSlot {
		return &m.sentinelVal
	}
	return &m.vals[s]
}

// Set stores v under k.
func (m *I64Map[V]) Set(k int64, v V) { *m.Ref(k) = v }

// Each calls f for every (key, value) pair in unspecified order; f
// returning false stops the iteration. The order is in fact slot order,
// so feeding it straight into Ref/Set of another, smaller I64Map (same
// hash) degenerates that map's linear probing — measured 3.4x on a
// 150 k-key histogram merge; size the destination for Len() keys first
// (NewI64Map's hint).
func (m *I64Map[V]) Each(f func(k int64, v V) bool) {
	if m.hasSentinel && !f(emptyKey, m.sentinelVal) {
		return
	}
	for i, k := range m.keys {
		if k != emptyKey && !f(k, m.vals[i]) {
			return
		}
	}
}

// EachRef is Each with a mutable value pointer, letting builders rewrite
// values in place (e.g. converting per-key counts to offsets) without a
// second lookup per key. The table must not be grown during iteration.
func (m *I64Map[V]) EachRef(f func(k int64, v *V) bool) {
	if m.hasSentinel && !f(emptyKey, &m.sentinelVal) {
		return
	}
	for i, k := range m.keys {
		if k != emptyKey && !f(k, &m.vals[i]) {
			return
		}
	}
}

// Reset empties the map, retaining the allocated capacity for reuse.
func (m *I64Map[V]) Reset() {
	var zero V
	for i := range m.keys {
		m.keys[i] = emptyKey
		m.vals[i] = zero
	}
	m.n = 0
	m.hasSentinel = false
	m.sentinelVal = zero
}

// Slots returns the allocated slot count (capacity), for memory
// accounting.
func (m *I64Map[V]) Slots() int { return len(m.keys) }

// MeanProbe returns the mean number of slots a lookup of a stored key
// inspects: 1 when every key sits in its home slot, large when keys pile
// up in one region of the table. Callers that pre-select keys by a hash
// of their own (a grace join's partitions) test with it that their bits
// are independent of the table's.
func (m *I64Map[V]) MeanProbe() float64 {
	if m.n == 0 {
		return 1
	}
	var total uint64
	for i, k := range m.keys {
		if k != emptyKey {
			total += (uint64(i)-hash(k))&m.mask + 1
		}
	}
	return float64(total) / float64(m.n)
}

// grow rehashes into a table of newCap slots (a power of two ≥ 8).
func (m *I64Map[V]) grow(newCap int) {
	if newCap < 8 {
		newCap = 8
	}
	if bits.OnesCount(uint(newCap)) != 1 {
		newCap = 1 << bits.Len(uint(newCap))
	}
	oldKeys, oldVals := m.keys, m.vals
	m.keys = make([]int64, newCap)
	for i := range m.keys {
		m.keys[i] = emptyKey
	}
	m.vals = make([]V, newCap)
	m.mask = uint64(newCap - 1)
	for i, k := range oldKeys {
		if k == emptyKey {
			continue
		}
		j := hash(k) & m.mask
		for m.keys[j] != emptyKey {
			j = (j + 1) & m.mask
		}
		m.keys[j] = k
		m.vals[j] = oldVals[i]
	}
}

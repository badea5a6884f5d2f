package hashtab

import (
	"math/rand"
	"testing"
)

// TestI64MapAgainstMapReference is the randomized property test: a long
// weighted stream of adds (counter semantics), lookups of present and
// missing keys, and growth through several rehashes must agree with a
// map[int64]int64 reference at every step boundary. Key distributions
// cover the sentinel key, dense sequential ranges (the surrogate-key
// case), sparse random keys, and negative keys.
func TestI64MapAgainstMapReference(t *testing.T) {
	keyGens := map[string]func(r *rand.Rand) int64{
		"dense":    func(r *rand.Rand) int64 { return int64(r.Intn(512)) },
		"sparse":   func(r *rand.Rand) int64 { return r.Int63() - r.Int63() },
		"sentinel": func(r *rand.Rand) int64 { return emptyKey + int64(r.Intn(8)) },
	}
	for name, gen := range keyGens {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(42))
			m := NewI64Map[int64](0)
			ref := map[int64]int64{}
			for step := 0; step < 20000; step++ {
				k := gen(r)
				switch r.Intn(4) {
				case 0, 1: // weighted add
					w := int64(1 + r.Intn(9))
					*m.Ref(k) += w
					ref[k] += w
				case 2: // set
					m.Set(k, int64(step))
					ref[k] = int64(step)
				default: // lookup (possibly missing)
					got, ok := m.Get(k)
					want, wok := ref[k]
					if ok != wok || got != want {
						t.Fatalf("step %d: Get(%d) = (%d,%v), want (%d,%v)", step, k, got, ok, want, wok)
					}
				}
				if m.Len() != len(ref) {
					t.Fatalf("step %d: Len = %d, want %d", step, m.Len(), len(ref))
				}
			}
			// Full-content check: iteration visits every key exactly once
			// with the right value, and totals agree.
			var sum, refSum int64
			seen := map[int64]bool{}
			m.Each(func(k int64, v int64) bool {
				if seen[k] {
					t.Fatalf("Each visited key %d twice", k)
				}
				seen[k] = true
				if want := ref[k]; v != want {
					t.Fatalf("Each(%d) = %d, want %d", k, v, want)
				}
				sum += v
				return true
			})
			for _, v := range ref {
				refSum += v
			}
			if len(seen) != len(ref) || sum != refSum {
				t.Fatalf("iteration saw %d keys (sum %d), want %d (sum %d)", len(seen), sum, len(ref), refSum)
			}
			// Missing keys after growth.
			for i := 0; i < 1000; i++ {
				k := r.Int63()
				if _, inRef := ref[k]; inRef {
					continue
				}
				if _, ok := m.Get(k); ok {
					t.Fatalf("Get(%d) found a key never inserted", k)
				}
			}
		})
	}
}

// TestI64MapEachRef verifies in-place rewriting through EachRef (the
// count→offset pass the join build table uses).
func TestI64MapEachRef(t *testing.T) {
	m := NewI64Map[int64](4)
	for k := int64(0); k < 100; k++ {
		m.Set(k, k)
	}
	m.Set(emptyKey, -7)
	m.EachRef(func(k int64, v *int64) bool {
		*v *= 2
		return true
	})
	for k := int64(0); k < 100; k++ {
		if v, _ := m.Get(k); v != 2*k {
			t.Fatalf("Get(%d) = %d after EachRef, want %d", k, v, 2*k)
		}
	}
	if v, ok := m.Get(emptyKey); !ok || v != -14 {
		t.Fatalf("sentinel after EachRef = (%d,%v), want (-14,true)", v, ok)
	}
}

// TestI64MapEarlyStop: both iterators honour a false return.
func TestI64MapEarlyStop(t *testing.T) {
	m := NewI64Map[int](0)
	for k := int64(0); k < 50; k++ {
		m.Set(k, 1)
	}
	var visits int
	m.Each(func(int64, int) bool { visits++; return visits < 10 })
	if visits != 10 {
		t.Fatalf("Each visited %d, want early stop at 10", visits)
	}
	visits = 0
	m.EachRef(func(int64, *int) bool { visits++; return false })
	if visits != 1 {
		t.Fatalf("EachRef visited %d, want 1", visits)
	}
}

// TestI64MapReset: capacity is retained, contents dropped.
func TestI64MapReset(t *testing.T) {
	m := NewI64Map[string](0)
	for k := int64(0); k < 300; k++ {
		m.Set(k, "x")
	}
	m.Set(emptyKey, "s")
	slots := m.Slots()
	m.Reset()
	if m.Len() != 0 {
		t.Fatalf("Len after Reset = %d", m.Len())
	}
	if m.Slots() != slots {
		t.Fatalf("Reset dropped capacity: %d -> %d", slots, m.Slots())
	}
	if _, ok := m.Get(1); ok {
		t.Fatal("Get found a key after Reset")
	}
	if _, ok := m.Get(emptyKey); ok {
		t.Fatal("sentinel survived Reset")
	}
	m.Set(7, "y")
	if v, ok := m.Get(7); !ok || v != "y" {
		t.Fatal("map unusable after Reset")
	}
}

// TestI64MapZeroValue: the zero value works without NewI64Map.
func TestI64MapZeroValue(t *testing.T) {
	var m I64Map[int]
	if _, ok := m.Get(3); ok {
		t.Fatal("zero map Get found a key")
	}
	*m.Ref(3)++
	if v, _ := m.Get(3); v != 1 {
		t.Fatalf("zero map Ref: got %d", v)
	}
}

// TestI64MapConcurrentReads: a frozen table may be read from many
// goroutines (a monitor goroutine may inspect a finished build histogram
// while the executor goroutine probes it); run under -race.
func TestI64MapConcurrentReads(t *testing.T) {
	m := NewI64Map[int64](0)
	for k := int64(0); k < 4096; k++ {
		m.Set(k, k*3)
	}
	done := make(chan bool)
	for g := 0; g < 4; g++ {
		go func(seed int64) {
			r := rand.New(rand.NewSource(seed))
			ok := true
			for i := 0; i < 10000; i++ {
				k := int64(r.Intn(8192))
				v, found := m.Get(k)
				if k < 4096 {
					ok = ok && found && v == k*3
				} else {
					ok = ok && !found
				}
			}
			done <- ok
		}(int64(g))
	}
	for g := 0; g < 4; g++ {
		if !<-done {
			t.Fatal("concurrent read mismatch")
		}
	}
}

// TestMeanProbe: an empty map and a map whose keys all sit in their home
// slots report 1; sequential keys at the table's usual load stay close to
// it; keys forced into one run report the run.
func TestMeanProbe(t *testing.T) {
	var m I64Map[int]
	if got := m.MeanProbe(); got != 1 {
		t.Fatalf("empty map: MeanProbe = %v, want 1", got)
	}
	m.Set(7, 1)
	if got := m.MeanProbe(); got != 1 {
		t.Fatalf("one key: MeanProbe = %v, want 1", got)
	}
	for k := int64(0); k < 10000; k++ {
		m.Set(k, 1)
	}
	if got := m.MeanProbe(); got < 1 || got > 3 {
		t.Errorf("sequential keys: MeanProbe = %v, want a short run", got)
	}
	// Keys sharing a home slot of a 64-slot table: the k-th one inserted
	// sits k slots on, so a lookup inspects (1+...+n)/n slots on average.
	var c I64Map[int]
	c.grow(64)
	home := hash(0) & c.mask
	n := 0
	for k := int64(0); n < 8; k++ {
		if hash(k)&c.mask == home {
			c.Set(k, 1)
			n++
		}
	}
	if got, want := c.MeanProbe(), 4.5; got != want {
		t.Errorf("8 keys in one run: MeanProbe = %v, want %v", got, want)
	}
}

func BenchmarkI64MapVsGoMap(b *testing.B) {
	const n = 4096
	keys := make([]int64, n)
	r := rand.New(rand.NewSource(1))
	for i := range keys {
		keys[i] = int64(r.Intn(1024))
	}
	b.Run("gomap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := make(map[int64]int64, n)
			for _, k := range keys {
				m[k]++
			}
			var s int64
			for _, k := range keys {
				s += m[k]
			}
			sink = s
		}
	})
	b.Run("hashtab", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := NewI64Map[int64](n)
			for _, k := range keys {
				*m.Ref(k)++
			}
			var s int64
			for _, k := range keys {
				v, _ := m.Get(k)
				s += v
			}
			sink = s
		}
	})
}

var sink int64

// TestI64MapReserve: a reserved table takes n keys without growing, and
// Reserve never shrinks one.
func TestI64MapReserve(t *testing.T) {
	var m I64Map[int64]
	m.Reserve(0)
	if m.Slots() != 0 {
		t.Fatalf("Reserve(0) allocated %d slots", m.Slots())
	}
	m.Reserve(1000)
	slots := m.Slots()
	if slots != capFor(1000) {
		t.Fatalf("Reserve(1000) gave %d slots, want %d", slots, capFor(1000))
	}
	for k := int64(0); k < 1000; k++ {
		*m.Ref(k * 7919) += k
	}
	if m.Slots() != slots || m.Len() != 1000 {
		t.Fatalf("%d keys in %d slots after reserving %d", m.Len(), m.Slots(), slots)
	}
	m.Reserve(10)
	if m.Slots() != slots {
		t.Fatalf("Reserve(10) shrank the table to %d slots", m.Slots())
	}
	for k := int64(0); k < 1000; k++ {
		if v, ok := m.Get(k * 7919); !ok || v != k {
			t.Fatalf("key %d: %d, %v", k*7919, v, ok)
		}
	}
}

// TestI64MapSlotAt: Slot inserts like Ref and returns the same slot for
// the same key while the table does not grow, At addresses that slot's
// value (the sentinel key included), and the slots stay valid through
// insertions that do not grow the table.
func TestI64MapSlotAt(t *testing.T) {
	var m I64Map[int64]
	m.Reserve(64)
	slots := m.Slots()
	keys := []int64{emptyKey, 0, 1, -1, 42, 1 << 40, emptyKey + 1}
	got := make([]int32, len(keys))
	for i, k := range keys {
		got[i] = m.Slot(k)
		*m.At(got[i]) += int64(i + 1)
	}
	if m.Slots() != slots {
		t.Fatalf("table grew from %d to %d slots", slots, m.Slots())
	}
	if m.Len() != len(keys) {
		t.Fatalf("Len = %d after %d distinct Slot calls", m.Len(), len(keys))
	}
	for i, k := range keys {
		if s := m.Slot(k); s != got[i] {
			t.Fatalf("Slot(%d) = %d, then %d", k, got[i], s)
		}
		*m.At(got[i]) *= 10
		if v, ok := m.Get(k); !ok || v != int64(10*(i+1)) {
			t.Fatalf("Get(%d) = (%d,%v) through slot %d, want %d", k, v, ok, got[i], 10*(i+1))
		}
		if m.Ref(k) != m.At(got[i]) {
			t.Fatalf("Ref(%d) and At(Slot) address different values", k)
		}
	}
	if m.Len() != len(keys) {
		t.Fatalf("Len = %d after re-slotting present keys", m.Len())
	}
	// Growth moves keys: a slot index from before it is void, a fresh
	// Slot still finds the value.
	for k := int64(100); m.Slots() == slots; k++ {
		m.Slot(k)
	}
	for i, k := range keys {
		if v := *m.At(m.Slot(k)); v != int64(10*(i+1)) {
			t.Fatalf("after growth At(Slot(%d)) = %d, want %d", k, v, 10*(i+1))
		}
	}
}

// Package sketch implements the two frequency sketches the mid-query
// re-optimizer builds during grace-join partition passes: Fast-AGMS
// (Cormode & Garofalakis) for join-size estimation and count-min
// (Cormode & Muthukrishnan) for overestimate-only point frequencies.
// Both are linear sketches over uint64 items: every update is an integer
// addition, so the order in which a pass delivers a column's items can
// never change an estimate — which is what lets the tuple and columnar
// passes build bit-identical sketches.
//
// Items are pre-hashed uint64s. ValueItem maps engine values onto items
// with kind-tagged hashing that mirrors the executor's join-key
// equality (Int(2) and Float(2.0) are different join keys, so they are
// different items; NULLs never join, so callers skip them).
package sketch

import (
	"fmt"
	"math"
	"sort"

	"qpi/internal/data"
)

// Config fixes a sketch family: two sketches interoperate
// (JoinSizeEstimate) only when their Config is identical, because the
// hash functions are derived from it.
type Config struct {
	// Rows is the number of independent hash rows (the median width d).
	Rows int
	// Buckets is the number of counters per row (the accuracy width w).
	Buckets int
	// Seed derives every row's bucket and sign hash functions.
	Seed uint64
}

// DefaultSeed is the process-wide default hash seed. Every sketch the
// engine builds uses it, so sketches of different columns and tables are
// always dot-able with each other.
const DefaultSeed uint64 = 0x9e3779b97f4a7c15

// DefaultConfig sizes the sketches for the engine's scout passes: 5
// rows x 512 buckets (20 KiB of int64 counters) keeps the standard
// Fast-AGMS error bound sqrt(F2(R)·F2(S)/w) far below the join sizes
// the qgen property suite measures against.
func DefaultConfig() Config { return Config{Rows: 5, Buckets: 512, Seed: DefaultSeed} }

func (c Config) validate() error {
	if c.Rows < 1 || c.Buckets < 1 {
		return fmt.Errorf("sketch: invalid config %+v", c)
	}
	return nil
}

// mix is the splitmix64 finalizer keyed by seed: the per-row hash
// functions are mix with distinct derived seeds.
func mix(x, seed uint64) uint64 {
	x += seed + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rowSeeds derives one (bucket, sign) seed pair per row.
func rowSeeds(cfg Config) []uint64 {
	seeds := make([]uint64, 2*cfg.Rows)
	s := cfg.Seed
	for i := range seeds {
		s = mix(s, uint64(i)*0x100000001b3)
		seeds[i] = s
	}
	return seeds
}

// fnv1a hashes a string (string join keys) onto an item.
func fnv1a(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// Kind tags keep ValueItem aligned with the executor's join equality:
// the hash join keys integers through a dedicated int64 map and
// everything else through Value-struct equality, so values of
// different kinds never match even when numerically equal.
const (
	tagInt    uint64 = 0x496e7431
	tagFloat  uint64 = 0x466c7431
	tagString uint64 = 0x53747231
	tagNull   uint64 = 0x4e756c31
)

// ValueItem maps an engine value onto a sketch item with kind-tagged
// hashing matching join-key equality. NULL gets a stable item of its
// own, but NULL join keys never match, so sketch builders skip NULLs
// and account for them separately (ColumnSketch.Nulls).
func ValueItem(v data.Value) uint64 {
	switch v.Kind {
	case data.KindInt:
		return mix(uint64(v.I), tagInt)
	case data.KindFloat:
		return mix(math.Float64bits(v.F), tagFloat)
	case data.KindString:
		return mix(fnv1a(v.S), tagString)
	default:
		return mix(0, tagNull)
	}
}

// IntItem is ValueItem for a non-NULL integer key, usable straight off
// a flat int64 column lane.
func IntItem(i int64) uint64 { return mix(uint64(i), tagInt) }

// FastAGMS is a Fast-AGMS (a.k.a. AGMS with hashing / count sketch)
// linear sketch: Rows independent rows of Buckets signed counters. An
// item lands in one bucket per row with a ±1 sign; the dot product of
// two rows is an unbiased estimate of the join size Σ_v f_R(v)·f_S(v),
// and the median over rows controls the failure probability.
type FastAGMS struct {
	cfg   Config
	seeds []uint64
	cells []int64 // Rows × Buckets, row-major
	n     int64   // items added (weighted)
}

// NewFastAGMS creates an empty sketch. Panics on an invalid config
// (construction sites are plan-time code).
func NewFastAGMS(cfg Config) *FastAGMS {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return &FastAGMS{
		cfg:   cfg,
		seeds: rowSeeds(cfg),
		cells: make([]int64, cfg.Rows*cfg.Buckets),
	}
}

// Config returns the sketch's family config.
func (s *FastAGMS) Config() Config { return s.cfg }

// Count returns the total (weighted) item count added so far.
func (s *FastAGMS) Count() int64 { return s.n }

// Add records one occurrence of item.
func (s *FastAGMS) Add(item uint64) { s.AddN(item, 1) }

// AddN records n occurrences of item.
func (s *FastAGMS) AddN(item uint64, n int64) {
	w := uint64(s.cfg.Buckets)
	for r := 0; r < s.cfg.Rows; r++ {
		b := mix(item, s.seeds[2*r]) % w
		if mix(item, s.seeds[2*r+1])&1 == 0 {
			s.cells[r*s.cfg.Buckets+int(b)] += n
		} else {
			s.cells[r*s.cfg.Buckets+int(b)] -= n
		}
	}
	s.n += n
}

// Clone returns a deep copy.
func (s *FastAGMS) Clone() *FastAGMS {
	out := NewFastAGMS(s.cfg)
	copy(out.cells, s.cells)
	out.n = s.n
	return out
}

// Cells exposes the raw counters (tests assert the execution mode cannot
// change them). The returned slice is live; do not mutate.
func (s *FastAGMS) Cells() []int64 { return s.cells }

// SelfJoinSize estimates F2 = Σ_v f(v)², the self-join size.
func (s *FastAGMS) SelfJoinSize() float64 {
	est, _ := JoinSizeEstimate(s, s)
	return est
}

// JoinSizeEstimate estimates the size of the natural join of the
// relations the sketches summarize: for each row, the sum over buckets
// of the product of the sketches' counters, medianed across rows and
// clamped at 0 (the raw estimator can go negative on tiny inputs).
// Two sketches give the classic unbiased Fast-AGMS pairwise estimate
// with standard error sqrt(F2(R)·F2(S)/Buckets); three or more apply
// the same product form as a multi-way heuristic; because the sign
// hashes are shared across sketches of one family, an odd-arity dot
// carries an odd sign power on its diagonal and is biased toward zero
// — callers wanting multi-join sizes compose pairwise estimates
// instead (core.SketchSet.JoinSizeEstimate, the re-optimizer's cost
// cascade). All sketches must share a Config.
func JoinSizeEstimate(sketches ...*FastAGMS) (float64, error) {
	if len(sketches) < 2 {
		return 0, fmt.Errorf("sketch: JoinSizeEstimate needs >= 2 sketches, got %d", len(sketches))
	}
	cfg := sketches[0].cfg
	for _, s := range sketches[1:] {
		if s.cfg != cfg {
			return 0, fmt.Errorf("sketch: JoinSizeEstimate over mismatched configs %+v vs %+v", cfg, s.cfg)
		}
	}
	rows := make([]float64, cfg.Rows)
	for r := 0; r < cfg.Rows; r++ {
		var sum float64
		for b := 0; b < cfg.Buckets; b++ {
			prod := 1.0
			for _, s := range sketches {
				prod *= float64(s.cells[r*cfg.Buckets+b])
			}
			sum += prod
		}
		rows[r] = sum
	}
	est := median(rows)
	if est < 0 {
		est = 0
	}
	return est, nil
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// CountMin is a count-min sketch: Rows rows of Buckets non-negative
// counters; an item increments one counter per row, and its estimate
// is the minimum across rows — always >= the true count (the
// overestimate-only bound the property tests assert), within
// 2·N/Buckets of it with probability 1-2^-Rows.
type CountMin struct {
	cfg   Config
	seeds []uint64
	cells []int64 // Rows × Buckets, row-major
	n     int64
	// maxEst tracks the largest post-insert Estimate seen, a cheap
	// upper-ish bound on the hottest item's frequency. The re-optimizer
	// only uses it as a skew hint, never for correctness.
	maxEst int64
}

// NewCountMin creates an empty sketch. Panics on an invalid config.
func NewCountMin(cfg Config) *CountMin {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return &CountMin{
		cfg:   cfg,
		seeds: rowSeeds(cfg),
		cells: make([]int64, cfg.Rows*cfg.Buckets),
	}
}

// Config returns the sketch's family config.
func (c *CountMin) Config() Config { return c.cfg }

// Count returns the total (weighted) item count added so far.
func (c *CountMin) Count() int64 { return c.n }

// Add records one occurrence of item.
func (c *CountMin) Add(item uint64) { c.AddN(item, 1) }

// AddN records n occurrences of item.
func (c *CountMin) AddN(item uint64, n int64) {
	w := uint64(c.cfg.Buckets)
	est := int64(math.MaxInt64)
	for r := 0; r < c.cfg.Rows; r++ {
		b := mix(item, c.seeds[2*r]) % w
		cell := &c.cells[r*c.cfg.Buckets+int(b)]
		*cell += n
		if *cell < est {
			est = *cell
		}
	}
	c.n += n
	if est > c.maxEst {
		c.maxEst = est
	}
}

// Estimate returns the item's frequency estimate: the minimum counter
// across rows, always >= the true count.
func (c *CountMin) Estimate(item uint64) int64 {
	w := uint64(c.cfg.Buckets)
	est := int64(math.MaxInt64)
	for r := 0; r < c.cfg.Rows; r++ {
		b := mix(item, c.seeds[2*r]) % w
		if v := c.cells[r*c.cfg.Buckets+int(b)]; v < est {
			est = v
		}
	}
	return est
}

// MaxEst returns the largest post-insert point estimate observed — a
// skew hint.
func (c *CountMin) MaxEst() int64 { return c.maxEst }

// Clone returns a deep copy.
func (c *CountMin) Clone() *CountMin {
	out := NewCountMin(c.cfg)
	copy(out.cells, c.cells)
	out.n = c.n
	out.maxEst = c.maxEst
	return out
}

// Cells exposes the raw counters (tests assert the execution mode cannot
// change them). The returned slice is live; do not mutate.
func (c *CountMin) Cells() []int64 { return c.cells }

// ColumnSketch summarizes one column of one relation: a Fast-AGMS
// sketch for join sizes, a count-min sketch for point frequencies, and
// exact row/NULL tallies. NULL keys are counted but never added to the
// sketches (NULLs never join).
type ColumnSketch struct {
	AGMS  *FastAGMS
	CM    *CountMin
	Rows  int64 // rows observed, including NULL keys
	Nulls int64 // rows with a NULL key
}

// NewColumnSketch creates an empty column sketch of the given family.
func NewColumnSketch(cfg Config) *ColumnSketch {
	return &ColumnSketch{AGMS: NewFastAGMS(cfg), CM: NewCountMin(cfg)}
}

// Observe records one key value.
func (cs *ColumnSketch) Observe(v data.Value) {
	cs.Rows++
	if v.IsNull() {
		cs.Nulls++
		return
	}
	item := ValueItem(v)
	cs.AGMS.Add(item)
	cs.CM.Add(item)
}

// ObserveInt records one non-NULL integer key straight off a flat lane.
func (cs *ColumnSketch) ObserveInt(i int64) {
	cs.Rows++
	item := IntItem(i)
	cs.AGMS.Add(item)
	cs.CM.Add(item)
}

// ObserveItem records one non-NULL, pre-hashed key item (composite
// join keys fold their per-column items before sketching).
func (cs *ColumnSketch) ObserveItem(item uint64) {
	cs.Rows++
	cs.AGMS.Add(item)
	cs.CM.Add(item)
}

// ObserveNull records one NULL key.
func (cs *ColumnSketch) ObserveNull() {
	cs.Rows++
	cs.Nulls++
}

// NonNull returns the number of non-NULL keys observed.
func (cs *ColumnSketch) NonNull() int64 { return cs.Rows - cs.Nulls }

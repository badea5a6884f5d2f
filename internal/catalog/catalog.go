// Package catalog maintains the registered tables and the base-table
// statistics the naive optimizer uses for its initial cardinality
// estimates (paper §3: "Our framework does not require, but can make use
// of base table statistics ... We also assume knowledge of the size of
// base tables, which is usually available in the system catalogs").
package catalog

import (
	"fmt"
	"sort"
	"sync/atomic"

	"qpi/internal/data"
	"qpi/internal/hashtab"
	"qpi/internal/storage"
)

// ColumnStats summarizes one column for optimizer estimation.
type ColumnStats struct {
	Distinct int64      // number of distinct non-null values
	Min, Max data.Value // value range (meaningful for int/float columns)
	NullFrac float64    // fraction of NULLs
	// MCVs are the most common values with their frequencies (fraction of
	// rows), like PostgreSQL's pg_stats, truncated to a small budget.
	MCVs []MCV
}

// MCV is one most-common-value entry.
type MCV struct {
	Value data.Value
	Frac  float64
}

// TableStats summarizes one table.
type TableStats struct {
	Rows    int64
	Columns map[string]*ColumnStats // keyed by column name
}

// Entry is one catalog entry: the stored table plus its statistics.
type Entry struct {
	Table *storage.Table
	Stats *TableStats
}

// Catalog maps table names to entries. A monotonically increasing
// version number changes on every mutation (table registration, row
// insertion, re-ANALYZE); plan caches key on it to detect stale
// prepared statements.
type Catalog struct {
	entries map[string]*Entry
	version atomic.Int64
}

// New creates an empty catalog.
func New() *Catalog { return &Catalog{entries: map[string]*Entry{}} }

// Version returns the catalog's current mutation version. It increases
// on Register/RegisterWithoutStats and every explicit Bump (callers bump
// on row insertion and re-ANALYZE); a plan compiled at version v is
// stale whenever Version() != v. Safe for concurrent readers.
func (c *Catalog) Version() int64 { return c.version.Load() }

// Bump advances the catalog version, marking every previously prepared
// plan stale.
func (c *Catalog) Bump() { c.version.Add(1) }

// Register adds a table and computes its statistics (a full ANALYZE; data
// generation is the only writer so statistics never go stale).
func (c *Catalog) Register(t *storage.Table) *Entry {
	e := &Entry{Table: t, Stats: Analyze(t)}
	c.entries[t.Name()] = e
	c.Bump()
	return e
}

// RegisterWithoutStats adds a table with row count only (distinct counts
// unknown), modelling a table that was never ANALYZEd.
func (c *Catalog) RegisterWithoutStats(t *storage.Table) *Entry {
	e := &Entry{Table: t, Stats: &TableStats{
		Rows:    int64(t.NumRows()),
		Columns: map[string]*ColumnStats{},
	}}
	c.entries[t.Name()] = e
	c.Bump()
	return e
}

// Lookup returns the entry for name.
func (c *Catalog) Lookup(name string) (*Entry, error) {
	e, ok := c.entries[name]
	if !ok {
		return nil, fmt.Errorf("catalog: table %q not found", name)
	}
	return e, nil
}

// MustLookup is Lookup, panicking when the table is missing.
func (c *Catalog) MustLookup(name string) *Entry {
	e, err := c.Lookup(name)
	if err != nil {
		panic(err)
	}
	return e
}

// Names returns the registered table names, sorted.
func (c *Catalog) Names() []string {
	names := make([]string, 0, len(c.entries))
	for n := range c.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// mcvBudget bounds the most-common-value list per column.
const mcvBudget = 16

// Analyze computes per-column statistics from the table's column lanes.
// A NULL-free integer column — keys, dates, quantities: most of what the
// optimizer asks about — is counted off its flat lane in an int64-keyed
// table; any other column is counted value by value.
func Analyze(t *storage.Table) *TableStats {
	st := &TableStats{
		Rows:    int64(t.NumRows()),
		Columns: map[string]*ColumnStats{},
	}
	for i, col := range t.Schema().Cols {
		lane := t.Lane(i)
		if lane.Homogeneous() && lane.Kind == data.KindInt && !lane.Nulls.Any() {
			st.Columns[col.Name] = analyzeInts(lane.Ints[:st.Rows])
		} else {
			st.Columns[col.Name] = analyzeValues(lane, st.Rows)
		}
	}
	return st
}

// analyzeInts is analyzeValues for a NULL-free integer lane.
func analyzeInts(lane []int64) *ColumnStats {
	if len(lane) == 0 {
		return &ColumnStats{}
	}
	counts := hashtab.NewI64Map[int64](0)
	lo, hi := lane[0], lane[0]
	for _, k := range lane {
		*counts.Ref(k)++
		lo, hi = min(lo, k), max(hi, k)
	}
	cs := &ColumnStats{Distinct: int64(counts.Len()), Min: data.Int(lo), Max: data.Int(hi)}
	counts.Each(func(k, c int64) bool {
		cs.MCVs = offerMCV(cs.MCVs, MCV{Value: data.Int(k), Frac: float64(c) / float64(len(lane))})
		return true
	})
	return cs
}

// analyzeValues summarizes the first rows values of one column lane.
func analyzeValues(lane *data.ColVec, rows int64) *ColumnStats {
	counts := map[data.Value]int64{}
	var nulls int64
	cs := &ColumnStats{}
	for i := 0; i < int(rows); i++ {
		v := lane.ValueAt(i)
		if v.IsNull() {
			nulls++
			continue
		}
		counts[v]++
		if cs.Min.IsNull() || data.Compare(v, cs.Min) < 0 {
			cs.Min = v
		}
		if cs.Max.IsNull() || data.Compare(v, cs.Max) > 0 {
			cs.Max = v
		}
	}
	cs.Distinct = int64(len(counts))
	if rows > 0 {
		cs.NullFrac = float64(nulls) / float64(rows)
	}
	for v, c := range counts {
		cs.MCVs = offerMCV(cs.MCVs, MCV{Value: v, Frac: float64(c) / float64(rows)})
	}
	return cs
}

// offerMCV keeps top the mcvBudget most common values offered so far,
// ordered by descending frequency, then ascending value: what sorting
// every distinct value and truncating gives, at one comparison for a
// value that does not make the list.
func offerMCV(top []MCV, m MCV) []MCV {
	before := func(a, b MCV) bool {
		if a.Frac != b.Frac {
			return a.Frac > b.Frac
		}
		return data.Compare(a.Value, b.Value) < 0
	}
	if len(top) == mcvBudget {
		if !before(m, top[mcvBudget-1]) {
			return top
		}
		top = top[:mcvBudget-1]
	}
	i := len(top)
	for top = append(top, m); i > 0 && before(m, top[i-1]); i-- {
		top[i] = top[i-1]
	}
	top[i] = m
	return top
}

// DistinctOrDefault returns the distinct count for a column, or def when
// statistics are missing.
func (s *TableStats) DistinctOrDefault(col string, def int64) int64 {
	if cs, ok := s.Columns[col]; ok && cs.Distinct > 0 {
		return cs.Distinct
	}
	return def
}

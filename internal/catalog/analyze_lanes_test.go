package catalog_test

import (
	"reflect"
	"sort"
	"testing"

	"qpi/internal/catalog"
	"qpi/internal/data"
	"qpi/internal/storage"
	"qpi/internal/tpch"
)

// analyzeRows is ANALYZE as it was before the tables held lanes: one pass
// over the rows (as Table.Rows builds them), every column counted in a map
// keyed by data.Value. It is the reference TestAnalyzeLanesMatchesRows
// holds the lane reader to.
func analyzeRows(t *storage.Table) *catalog.TableStats {
	st := &catalog.TableStats{Rows: int64(t.NumRows()), Columns: map[string]*catalog.ColumnStats{}}
	n := t.Schema().Len()
	counts := make([]map[data.Value]int64, n)
	nulls := make([]int64, n)
	mins := make([]data.Value, n)
	maxs := make([]data.Value, n)
	for i := range counts {
		counts[i] = map[data.Value]int64{}
	}
	for _, tu := range t.Rows() {
		for i, v := range tu {
			if v.IsNull() {
				nulls[i]++
				continue
			}
			counts[i][v]++
			if mins[i].IsNull() || data.Compare(v, mins[i]) < 0 {
				mins[i] = v
			}
			if maxs[i].IsNull() || data.Compare(v, maxs[i]) > 0 {
				maxs[i] = v
			}
		}
	}
	for i, col := range t.Schema().Cols {
		cs := &catalog.ColumnStats{Distinct: int64(len(counts[i])), Min: mins[i], Max: maxs[i]}
		if st.Rows > 0 {
			cs.NullFrac = float64(nulls[i]) / float64(st.Rows)
			for v, c := range counts[i] {
				cs.MCVs = append(cs.MCVs, catalog.MCV{Value: v, Frac: float64(c) / float64(st.Rows)})
			}
			sort.Slice(cs.MCVs, func(a, b int) bool {
				if cs.MCVs[a].Frac != cs.MCVs[b].Frac {
					return cs.MCVs[a].Frac > cs.MCVs[b].Frac
				}
				return data.Compare(cs.MCVs[a].Value, cs.MCVs[b].Value) < 0
			})
			if len(cs.MCVs) > 16 {
				cs.MCVs = cs.MCVs[:16]
			}
		}
		st.Columns[col.Name] = cs
	}
	return st
}

// oddTable has every column shape the lanes distinguish: a plain integer
// key, integers with NULLs, a column whose kinds are mixed, one that is
// NULL throughout, strings, and floats that start after a NULL run.
func oddTable() *storage.Table {
	cols := []string{"k", "knull", "mixed", "allnull", "s", "f"}
	var sc []data.Column
	for _, c := range cols {
		sc = append(sc, data.Column{Table: "odd", Name: c, Kind: data.KindInt})
	}
	tb := storage.NewTable("odd", data.NewSchema(sc...))
	for i := 0; i < 3*storage.BlockSize+5; i++ {
		row := data.Tuple{
			data.Int(int64(i % 37)),
			data.Int(int64(i % 11)),
			data.Int(int64(i % 5)),
			data.Null(),
			data.Str(string(rune('a' + i%7))),
			data.Float(float64(i%13) / 2),
		}
		if i%4 == 0 {
			row[1] = data.Null()
		}
		if i%3 == 1 {
			// Values no integer of the column compares equal to, so the
			// reference's map order cannot show in the MCV order.
			row[2] = data.Str(string(rune('p' + i%2)))
		}
		if i < 9 {
			row[5] = data.Null()
		}
		tb.MustAppend(row)
	}
	return tb
}

func TestAnalyzeLanesMatchesRows(t *testing.T) {
	tables := []*storage.Table{oddTable(), storage.NewTable("empty", oddTable().Schema())}
	for _, skew := range []float64{0, 2} {
		cat, err := tpch.Generate(tpch.Config{SF: 0.01, Skew: skew, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range cat.Names() {
			tables = append(tables, cat.MustLookup(name).Table)
		}
	}
	for _, tb := range tables {
		got, want := catalog.Analyze(tb), analyzeRows(tb)
		if got.Rows != want.Rows || len(got.Columns) != len(want.Columns) {
			t.Fatalf("%s: %d rows / %d columns, want %d / %d", tb.Name(), got.Rows, len(got.Columns), want.Rows, len(want.Columns))
		}
		for name, w := range want.Columns {
			if g := got.Columns[name]; !reflect.DeepEqual(g, w) {
				t.Errorf("%s.%s: lanes give %+v, rows give %+v", tb.Name(), name, g, w)
			}
		}
	}
}

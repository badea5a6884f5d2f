package exec

import (
	"testing"

	"qpi/internal/data"
	"qpi/internal/storage"
)

func typedJoin(t *testing.T, build, probe []int64, jt JoinType) []data.Tuple {
	t.Helper()
	j := NewHashJoinTyped(
		NewScan(makeTable("b", build), ""),
		NewScan(makeTable("p", probe), ""),
		0, 0, jt)
	return collect(t, j)
}

func TestSemiJoin(t *testing.T) {
	rows := typedJoin(t, []int64{1, 1, 3}, []int64{1, 2, 3, 3, 9}, SemiJoin)
	// probe tuples with a match: 1, 3, 3 → 3 rows, each probe-only arity 1.
	if len(rows) != 3 {
		t.Fatalf("semi join rows = %d, want 3", len(rows))
	}
	for _, r := range rows {
		if len(r) != 1 {
			t.Fatalf("semi join output arity %d, want 1 (probe only)", len(r))
		}
		if r[0].I != 1 && r[0].I != 3 {
			t.Fatalf("unexpected row %v", r)
		}
	}
}

func TestAntiJoin(t *testing.T) {
	rows := typedJoin(t, []int64{1, 3}, []int64{1, 2, 3, 9, 9}, AntiJoin)
	// probe tuples without a match: 2, 9, 9.
	if len(rows) != 3 {
		t.Fatalf("anti join rows = %d, want 3", len(rows))
	}
	for _, r := range rows {
		if r[0].I != 2 && r[0].I != 9 {
			t.Fatalf("unexpected row %v", r)
		}
	}
}

func TestProbeOuterJoin(t *testing.T) {
	rows := typedJoin(t, []int64{1, 1}, []int64{1, 2}, ProbeOuterJoin)
	// probe tuple 1 matches twice; probe tuple 2 is preserved with NULL
	// build columns. Total 3 rows.
	if len(rows) != 3 {
		t.Fatalf("outer join rows = %d, want 3", len(rows))
	}
	var preserved int
	for _, r := range rows {
		if len(r) != 2 {
			t.Fatalf("outer join arity %d, want 2", len(r))
		}
		if r[0].IsNull() {
			preserved++
			if r[1].I != 2 {
				t.Fatalf("preserved row %v should carry probe key 2", r)
			}
		}
	}
	if preserved != 1 {
		t.Errorf("preserved rows = %d, want 1", preserved)
	}
}

func TestOuterAndAntiPreserveNullProbeKeys(t *testing.T) {
	s := data.NewSchema(data.Column{Table: "p", Name: "k", Kind: data.KindInt})
	tp := storage.NewTable("p", s)
	tp.MustAppend(data.Tuple{data.Null()})
	tp.MustAppend(data.Tuple{data.Int(1)})
	build := NewScan(makeTable("b", []int64{1}), "")

	outer := NewHashJoinTyped(build, NewScan(tp, ""), 0, 0, ProbeOuterJoin)
	rows := collect(t, outer)
	if len(rows) != 2 {
		t.Errorf("outer join rows = %d, want 2 (NULL probe preserved)", len(rows))
	}

	anti := NewHashJoinTyped(
		NewScan(makeTable("b", []int64{1}), ""),
		NewScan(cloneNullTable(), ""), 0, 0, AntiJoin)
	rows = collect(t, anti)
	if len(rows) != 1 || !rows[0][0].IsNull() {
		t.Errorf("anti join rows = %v, want just the NULL row", rows)
	}

	semi := NewHashJoinTyped(
		NewScan(makeTable("b", []int64{1}), ""),
		NewScan(cloneNullTable(), ""), 0, 0, SemiJoin)
	rows = collect(t, semi)
	if len(rows) != 1 || rows[0][0].I != 1 {
		t.Errorf("semi join rows = %v, want just key 1", rows)
	}
}

func cloneNullTable() *storage.Table {
	s := data.NewSchema(data.Column{Table: "p", Name: "k", Kind: data.KindInt})
	tp := storage.NewTable("p", s)
	tp.MustAppend(data.Tuple{data.Null()})
	tp.MustAppend(data.Tuple{data.Int(1)})
	return tp
}

func TestJoinTypeNames(t *testing.T) {
	j := NewHashJoinTyped(
		NewScan(makeTable("b", nil), ""),
		NewScan(makeTable("p", nil), ""), 0, 0, SemiJoin)
	if j.Name() != "HashJoin(semi b.k = p.k)" {
		t.Errorf("Name = %q", j.Name())
	}
	if j.Type() != SemiJoin {
		t.Error("Type wrong")
	}
	for _, c := range []struct {
		t    JoinType
		want string
	}{{InnerJoin, "inner"}, {ProbeOuterJoin, "outer"}, {SemiJoin, "semi"}, {AntiJoin, "anti"}} {
		if c.t.String() != c.want {
			t.Errorf("%d.String() = %q", c.t, c.t.String())
		}
	}
}

func TestSemiJoinSchemaIsProbeOnly(t *testing.T) {
	j := NewHashJoinTyped(
		NewScan(makeTable("b", nil), ""),
		NewScan(makeTable2("p", nil), ""), 0, 0, SemiJoin)
	if j.Schema().Len() != 2 || j.Schema().Resolve("p", "x") != 0 {
		t.Errorf("schema = %v", j.Schema())
	}
}

// TestJoinedProbeFractionEndsAtOne: a finished join has consumed all of
// its probe input, whatever its join type and however many NULL probe
// keys its scatter dropped (inner and semi joins drop them; outer and
// anti joins keep them). ProbeRows still counts every probe row read.
func TestJoinedProbeFractionEndsAtOne(t *testing.T) {
	probe := []int64{1, -1, 2, -1, 3, 9}
	for _, jt := range []JoinType{InnerJoin, ProbeOuterJoin, SemiJoin, AntiJoin} {
		j := NewHashJoinMulti(
			NewScan(kvTable("b", []int64{1, 2, 3}), ""),
			NewScan(kvTable("p", probe), ""),
			[]int{0}, []int{0}, jt)
		if _, err := Run(j); err != nil {
			t.Fatal(err)
		}
		if f := j.JoinedProbeFraction(); f != 1 {
			t.Errorf("%s: finished join's JoinedProbeFraction = %v, want 1", jt, f)
		}
		if n := j.ProbeRows(); n != int64(len(probe)) {
			t.Errorf("%s: ProbeRows = %d, want %d", jt, n, len(probe))
		}
	}
}

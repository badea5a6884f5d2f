package exec

import (
	"fmt"
	"reflect"
	"testing"

	"qpi/internal/data"
	"qpi/internal/expr"
	"qpi/internal/storage"
)

// prunePlans are the operator shapes the pruning pass rebinds, over the
// six-column lane tables (every lane shape: NULLs, mixed kinds, an
// all-NULL column), each reading few enough columns that some scan
// narrows.
func prunePlans() map[string]func() Operator {
	a, b := laneTable("a", 2*data.BatchSize()+300), laneTable("b", 150)
	c, d := laneTable("c", 70), laneTable("d", 90)
	col := func(op Operator, table, name string) expr.Expr { return expr.Column(op.Schema(), table, name) }
	idx := func(op Operator, table, name string) int { return op.Schema().MustResolve(table, name) }
	project := func(op Operator, cols ...[2]string) Operator { return ProjectColumns(op, cols...) }
	joined := func(jt JoinType) func() Operator {
		return func() Operator {
			bs, as := NewScan(b, ""), NewScan(a, "")
			j := NewHashJoinMulti(bs, as, []int{idx(bs, "b", "knull")}, []int{idx(as, "a", "knull")}, jt)
			if jt == SemiJoin || jt == AntiJoin {
				return project(j, [2]string{"a", "s"}, [2]string{"a", "f"})
			}
			return project(j, [2]string{"b", "s"}, [2]string{"a", "f"}, [2]string{"b", "allnull"})
		}
	}
	return map[string]func() Operator{
		"filter/project/limit": func() Operator {
			sc := NewScan(a, "")
			f := NewFilter(sc, expr.Compare(expr.LT, col(sc, "a", "knull"), expr.IntLit(9)))
			p := NewProject(f, []expr.Expr{
				col(f, "a", "s"),
				expr.Arith{Op: expr.Add, L: col(f, "a", "k"), R: col(f, "a", "knull")},
			}, []string{"s", "kk"})
			return NewLimit(p, 1500)
		},
		"sort on an unselected column": func() Operator {
			sc := NewScan(a, "")
			s := NewSortDirs(sc, []int{idx(sc, "a", "f"), idx(sc, "a", "s")}, []bool{true, false})
			return project(s, [2]string{"a", "mixed"})
		},
		"group by": func() Operator {
			sc := NewScan(a, "")
			f := NewFilter(sc, expr.Compare(expr.LT, col(sc, "a", "k"), expr.IntLit(2000)))
			return NewHashAgg(f, []int{idx(f, "a", "s")}, []AggSpec{
				{Func: CountStar, Name: "c"},
				{Func: Sum, Col: idx(f, "a", "knull"), Name: "sum"},
				{Func: Min, Col: idx(f, "a", "f"), Name: "lo"},
				{Func: Count, Col: idx(f, "a", "mixed"), Name: "n"},
			})
		},
		"multi-column group": func() Operator {
			sc := NewScan(a, "")
			return NewHashAgg(sc, []int{idx(sc, "a", "knull"), idx(sc, "a", "mixed")}, []AggSpec{
				{Func: Avg, Col: idx(sc, "a", "f"), Name: "avg"},
			})
		},
		"scalar aggregate": func() Operator {
			sc := NewScan(a, "")
			return NewHashAgg(sc, nil, []AggSpec{
				{Func: CountStar, Name: "c"},
				{Func: Sum, Col: idx(sc, "a", "knull"), Name: "sum"},
				{Func: Max, Col: idx(sc, "a", "s"), Name: "hi"},
				{Func: Count, Col: idx(sc, "a", "allnull"), Name: "n"},
			})
		},
		"count(*), a scan nothing reads": func() Operator {
			return NewHashAgg(NewScan(a, ""), nil, []AggSpec{{Func: CountStar, Name: "c"}})
		},
		"sort aggregate": func() Operator {
			sc := NewScan(b, "")
			return NewSortAgg(sc, []int{idx(sc, "b", "mixed")}, []AggSpec{
				{Func: CountStar, Name: "c"},
				{Func: Sum, Col: idx(sc, "b", "k"), Name: "sum"},
			})
		},
		"inner join": func() Operator {
			sc := NewScan(a, "")
			f := NewFilter(sc, expr.Compare(expr.LT, col(sc, "a", "k"), expr.IntLit(400)))
			return project(NewHashJoinOn(NewScan(b, ""), f, "b", "mixed", "a", "mixed"),
				[2]string{"a", "s"}, [2]string{"b", "f"})
		},
		"outer join": joined(ProbeOuterJoin),
		"semi join":  joined(SemiJoin),
		"anti join":  joined(AntiJoin),
		"outer join reading no build column": func() Operator {
			bs, as := NewScan(b, ""), NewScan(a, "")
			j := NewHashJoinMulti(bs, as, []int{idx(bs, "b", "mixed")}, []int{idx(as, "a", "mixed")}, ProbeOuterJoin)
			return project(j, [2]string{"a", "s"})
		},
		"count(*) over a join": func() Operator {
			return NewHashAgg(NewHashJoinOn(NewScan(c, ""), NewScan(a, ""), "c", "knull", "a", "knull"),
				nil, []AggSpec{{Func: CountStar, Name: "c"}})
		},
		"case 2 chain, upper key dropped above": func() Operator {
			lower := NewHashJoinOn(NewScan(c, ""), NewScan(a, ""), "c", "k", "a", "knull")
			upper := NewHashJoinOn(NewScan(d, ""), lower, "d", "knull", "c", "mixed")
			return project(upper, [2]string{"a", "s"}, [2]string{"d", "f"})
		},
		"spilling join": func() Operator {
			j := NewHashJoinMulti(NewScan(b, ""), NewScan(a, ""), []int{0}, []int{0}, ProbeOuterJoin).
				SetMemoryBudget(16 << 10)
			return project(j, [2]string{"a", "s"}, [2]string{"b", "knull"})
		},
		"self join": func() Operator {
			j := NewHashJoinOn(NewScan(b, "b1"), NewScan(b, "b2"), "b1", "knull", "b2", "mixed")
			return project(j, [2]string{"b2", "s"}, [2]string{"b1", "f"})
		},
		"merge join": func() Operator {
			bs, as := NewScan(b, ""), NewScan(a, "")
			mj, _, _ := NewSortMergeJoin(bs, as, idx(bs, "b", "knull"), idx(as, "a", "knull"))
			return project(mj, [2]string{"a", "s"}, [2]string{"b", "k"})
		},
		"theta join": func() Operator {
			cs, ds := NewScan(c, ""), NewScan(d, "")
			j := NewNestedLoopsJoin(cs, ds, expr.Compare(expr.LT,
				expr.Col{Index: idx(cs, "c", "k"), Name: "c.k"},
				expr.Col{Index: cs.Schema().Len() + idx(ds, "d", "knull"), Name: "d.knull"}))
			return project(j, [2]string{"d", "s"})
		},
		"indexed nested loops": func() Operator {
			cs, ds := NewScan(c, ""), NewScan(d, "")
			j := NewIndexedNLJoin(cs, ds, idx(cs, "c", "mixed"), idx(ds, "d", "knull"))
			return project(j, [2]string{"c", "f"}, [2]string{"d", "s"})
		},
	}
}

// scanWidth totals the widths of a plan's scans.
func scanWidth(root Operator) int {
	n := 0
	Walk(root, func(op Operator) {
		if sc, ok := op.(*Scan); ok {
			n += sc.Schema().Len()
		}
	})
	return n
}

// labels lists every operator's label in pre-order.
func labels(root Operator) []string {
	var out []string
	Walk(root, func(op Operator) { out = append(out, op.Name()) })
	return out
}

// joinWidths lists every hash join's output width in pre-order.
func joinWidths(root Operator) []int {
	var out []int
	Walk(root, func(op Operator) {
		if j, ok := op.(*HashJoin); ok {
			out = append(out, j.Schema().Len())
		}
	})
	return out
}

// TestPrunedPlansMatch holds every operator shape the pass rebinds to the
// plan as built: pruned, through Next on row-major joins and through Next
// and NextColBatch on columnar ones, it returns the unpruned reference's
// rows in the same order with the same counters on every operator, under
// the same labels and root schema, reading fewer scan columns and with no
// join wider than built.
func TestPrunedPlansMatch(t *testing.T) {
	for label, mk := range prunePlans() {
		ref := mk()
		want := drainMode(t, ref, false)
		if len(want) == 0 {
			t.Fatalf("%s: empty reference result", label)
		}
		for _, route := range []struct{ columnar, batches bool }{{false, false}, {true, false}, {true, true}} {
			name := fmt.Sprintf("%s (columnar %v, batches %v)", label, route.columnar, route.batches)
			op := mk()
			width, schema, names, joins := scanWidth(op), op.Schema().String(), labels(op), joinWidths(op)
			Prune(op)
			if got := scanWidth(op); got >= width {
				t.Errorf("%s: scans emit %d columns pruned, %d as built", name, got, width)
			}
			for i, w := range joinWidths(op) {
				if w > joins[i] {
					t.Errorf("%s: join %d emits %d columns pruned, %d as built", name, i, w, joins[i])
				}
			}
			if op.Schema().String() != schema || !reflect.DeepEqual(labels(op), names) {
				t.Errorf("%s: pruning moved the root schema or a label", name)
			}
			if route.columnar {
				markColumnar(op)
			}
			requireSameRows(t, want, drainMode(t, op, route.batches), name)
			requireSameStats(t, ref, op, name)
			if j, ok := op.Children()[0].(*HashJoin); ok && label == "spilling join" && j.Spilled() == 0 {
				t.Errorf("%s did not spill", name)
			}
		}
	}
	if out := data.ColBatchesOut(); out != 0 {
		t.Errorf("%d pooled batches still out", out)
	}
}

// bindings renders what the pass rewrites — scan columns, schemas, keys,
// groups, aggregate columns, predicates and expressions — for every
// operator in pre-order.
func bindings(root Operator) string {
	s := ""
	Walk(root, func(op Operator) {
		s += op.Schema().String()
		switch o := op.(type) {
		case *Scan:
			s += fmt.Sprint(o.cols)
		case *Filter:
			s += fmt.Sprintf("%#v", o.pred)
		case *Project:
			s += fmt.Sprintf("%#v", o.exprs)
		case *Sort:
			s += fmt.Sprint(o.keys)
		case *HashAgg:
			s += fmt.Sprint(o.groupBy, o.aggs)
		case *SortAgg:
			s += fmt.Sprint(o.groupBy, o.aggs)
		case *HashJoin:
			s += fmt.Sprint(o.buildKeys, o.probeKeys, o.out)
		case *MergeJoin:
			s += fmt.Sprint(o.leftKey, o.rightKey)
		case *NestedLoopsJoin:
			s += fmt.Sprintf("%d %d %#v", o.outerKey, o.innerKey, o.Pred)
		}
		s += "\n"
	})
	return s
}

// TestPruneIsIdempotent: pruning an already pruned plan changes nothing,
// narrowed joins included: a second pass maps its need through their
// output maps.
func TestPruneIsIdempotent(t *testing.T) {
	narrowed := 0
	for label, mk := range prunePlans() {
		op := mk()
		joins := joinWidths(op)
		Prune(op)
		for i, w := range joinWidths(op) {
			if w < joins[i] {
				narrowed++
			}
		}
		once := bindings(op)
		Prune(op)
		if twice := bindings(op); twice != once {
			t.Errorf("%s: a second pass rebound the plan:\n%s\nvs\n%s", label, once, twice)
		}
	}
	if narrowed == 0 {
		t.Error("no plan narrowed a join")
	}
}

// TestPrunedScanCarriesNoRows is the row-cache trap. cb.Value and
// MaterializeRows prefer a batch's row cache, so a narrowed batch that
// carried full-width rows would hand its consumers the wrong columns. The
// read columns here are not the table's first, so a GROUP BY (which reads
// its aggregate column through cb.Value) and a scalar aggregate with a
// per-row input hook (which materializes rows) would both fold another
// column than the one they name. No scan batch carries rows at all,
// full-width or narrowed, sequential or sampled, and Next returns the
// table's rows, cut to the scan's columns, in the batches' order.
func TestPrunedScanCarriesNoRows(t *testing.T) {
	const n = 3000
	sch := data.NewSchema(
		data.Column{Table: "t", Name: "x", Kind: data.KindInt},
		data.Column{Table: "t", Name: "g", Kind: data.KindInt},
		data.Column{Table: "t", Name: "v", Kind: data.KindInt},
	)
	tb := storage.NewTable("t", sch)
	sums, counts := map[int64]int64{}, map[int64]int64{}
	var total, nonNull int64
	var table []data.Tuple
	for i := 0; i < n; i++ {
		g := int64(i % 7)
		v := data.Int(int64(i*i%1000 + 5000))
		if i%11 == 0 {
			v = data.Null()
		} else {
			sums[g] += v.I
			counts[g]++
			total += v.I
			nonNull++
		}
		table = append(table, data.Tuple{data.Int(int64(i)), data.Int(g), v})
		tb.MustAppend(table[i])
	}

	sc := NewScan(tb, "")
	agg := NewHashAgg(sc, []int{1}, []AggSpec{{Func: Sum, Col: 2}, {Func: Count, Col: 2}})
	Prune(agg)
	markColumnar(agg)
	for _, row := range drainMode(t, agg, true) {
		g := row[0].I
		if row[1].F != float64(sums[g]) || row[2].I != counts[g] {
			t.Errorf("group %d: SUM(v) %v COUNT(v) %v, want %d and %d", g, row[1], row[2], sums[g], counts[g])
		}
	}

	for _, hooked := range []bool{false, true} {
		sc := NewScan(tb, "")
		agg := NewHashAgg(sc, nil, []AggSpec{{Func: Sum, Col: 2}, {Func: Count, Col: 2}, {Func: CountStar}})
		Prune(agg)
		if hooked {
			agg.OnInput = func(data.Tuple) {}
		}
		rows := drainMode(t, agg, true)
		if len(rows) != 1 || rows[0][0].F != float64(total) || rows[0][1].I != nonNull || rows[0][2].I != n {
			t.Errorf("scalar aggregate (input hook %v): %v, want [%d %d %d]", hooked, rows, total, nonNull, n)
		}
	}

	// And the scan itself: no batch carries rows, and batches and Next
	// hold the same rows, the table's in the walk's order.
	for _, cols := range [][]int{{0, 1, 2}, {1, 2}} {
		for _, frac := range []float64{0, 0.1, 0.5, 1} {
			label := fmt.Sprintf("columns %v, sample %g", cols, frac)
			var want []data.Tuple
			ref := tb.SampleOrder(frac, 5)
			for tu := ref.Next(); tu != nil; tu = ref.Next() {
				var cut data.Tuple
				for _, c := range cols {
					cut = append(cut, table[tu[0].I][c])
				}
				want = append(want, cut)
			}
			mk := func() *Scan {
				sc := NewScan(tb, "")
				if len(cols) < 3 {
					sc.narrow([]bool{false, true, true})
				}
				sc.SampleFraction, sc.Seed = frac, 5
				return sc
			}
			requireSameRows(t, want, drainMode(t, mk(), false), label+", Next")
			sc := mk()
			if err := sc.Open(); err != nil {
				t.Fatal(err)
			}
			var got []data.Tuple
			for {
				cb, err := sc.NextColBatch()
				if err != nil {
					t.Fatal(err)
				}
				if cb == nil {
					break
				}
				if cb.Rows != nil || cb.Width() != len(cols) {
					t.Fatalf("%s: batch of width %d carries %d rows", label, cb.Width(), len(cb.Rows))
				}
				for i := 0; i < cb.NRows; i++ {
					var row data.Tuple
					for c := range cols {
						row = append(row, cb.Col(c).ValueAt(i))
					}
					got = append(got, row)
				}
			}
			sc.Close()
			requireSameRows(t, want, got, label+", batches")
		}
	}
}

// TestPruneKeepsTableOrder: a narrowed scan emits its columns in table
// order whatever order its consumers name them in, and keeps one column
// when nothing above reads any.
func TestPruneKeepsTableOrder(t *testing.T) {
	tb := laneTable("t", 10)
	sc := NewScan(tb, "u")
	p := ProjectColumns(sc, [2]string{"u", "mixed"}, [2]string{"u", "f"})
	Prune(p)
	if got := sc.TableColumns(); !reflect.DeepEqual(got, []int{1, 4}) {
		t.Errorf("scan emits table columns %v, want [1 4]", got)
	}
	if got := sc.Schema().String(); got != "(u.f BIGINT, u.mixed BIGINT)" {
		t.Errorf("narrowed schema %s", got)
	}
	idle := NewScan(tb, "")
	Prune(NewHashAgg(idle, nil, []AggSpec{{Func: CountStar}}))
	if got := idle.TableColumns(); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("a scan nothing reads emits %v, want [0]", got)
	}
	got := drainMode(t, p, false)
	for i, r := range tb.Rows() {
		if want := (data.Tuple{r[4], r[1]}).String(); got[i].String() != want {
			t.Fatalf("row %d: %s, want %s", i, got[i], want)
		}
	}
}

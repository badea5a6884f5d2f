package expr

import (
	"math/rand"
	"testing"

	"qpi/internal/data"
)

// BenchmarkEvalSel times EvalSel over one batch per selection shape and
// reports ns/row (rows in, whatever passes). Column 0 is an int lane
// (NULL-free), 1 a float lane, 2 a string lane, 3 an int lane with
// about one NULL in ten, 4 a second int lane; the constants select
// about half the rows.
func BenchmarkEvalSel(b *testing.B) {
	n := data.BatchSize()
	rng := rand.New(rand.NewSource(1))
	rows := make([]data.Tuple, n)
	words := []string{"a", "b", "c", "d"}
	for i := range rows {
		k := rng.Int63n(100)
		nk := data.Int(k)
		if rng.Intn(10) == 0 {
			nk = data.Null()
		}
		rows[i] = data.Tuple{data.Int(k), data.Float(float64(k) / 2), data.Str(words[k%4]), nk, data.Int(rng.Int63n(100))}
	}
	var cb data.ColBatch
	cb.FromTuples(rows, 5)
	half := make([]int32, 0, n)
	for i := 0; i < n; i += 2 {
		half = append(half, int32(i))
	}
	c := func(i int) Col { return Col{Index: i} }
	cases := []struct {
		name string
		e    Expr
		sel  []int32
	}{
		{"int<const", Compare(LT, c(0), IntLit(50)), nil},
		{"int<const/sel", Compare(LT, c(0), IntLit(50)), half},
		{"int<const/nulls", Compare(LT, c(3), IntLit(50)), nil},
		{"const>int", Compare(GT, IntLit(50), c(0)), nil},
		{"int=const", Compare(EQ, c(0), IntLit(50)), nil},
		{"float<const", Compare(LT, c(1), Lit(data.Float(25))), nil},
		{"int<float", Compare(LT, c(0), Lit(data.Float(49.5))), nil},
		{"str=const", Compare(EQ, c(2), Lit(data.Str("b"))), nil},
		{"int<int", Compare(LT, c(0), c(4)), nil},
		{"between", AndOf(Compare(GE, c(0), IntLit(25)), Compare(LE, c(0), IntLit(74))), nil},
		{"and2", AndOf(Compare(LT, c(0), IntLit(50)), Compare(GT, c(4), IntLit(50))), nil},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			out := make([]int32, 0, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = EvalSel(tc.e, &cb, tc.sel, out[:0])
			}
			live := n
			if tc.sel != nil {
				live = len(tc.sel)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(live), "ns/row")
		})
	}
}

package expr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qpi/internal/data"
)

// Lane values for the numeric kernel tests: a small domain so that
// comparisons hit, the int64 extremes (a fused range's arithmetic wraps
// there), and the float specials the NaN rule is about. 1<<53 + 1 is the
// first int64 that float64 cannot hold, so int-vs-float comparisons round
// there.
var (
	selInts = []int64{-3, -2, -1, 0, 1, 2, 3, math.MinInt64, math.MinInt64 + 1,
		math.MaxInt64, math.MaxInt64 - 1, 1 << 53, 1<<53 + 1}
	selFloats = []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		-1.5, 0.5, 1, 2, 2.5, 1 << 53, 9.223372036854776e18}
	selOps = []CmpOp{EQ, NE, LT, LE, GT, GE}
)

// numBatch draws n rows of four columns — int lanes 0 and 1, float lanes
// 2 and 3 — each row NULL with probability nullRate, and returns them
// as tuples and as a column batch.
func numBatch(rng *rand.Rand, n int, nullRate float64) ([]data.Tuple, *data.ColBatch) {
	rows := make([]data.Tuple, n)
	for i := range rows {
		tu := make(data.Tuple, 4)
		for c := range tu {
			switch {
			case rng.Float64() < nullRate:
				tu[c] = data.Null()
			case c < 2 && rng.Intn(4) == 0:
				tu[c] = data.Int(selInts[rng.Intn(len(selInts))])
			case c < 2:
				tu[c] = data.Int(rng.Int63n(7) - 3)
			default:
				tu[c] = data.Float(selFloats[rng.Intn(len(selFloats))])
			}
		}
		rows[i] = tu
	}
	cb := &data.ColBatch{}
	cb.FromTuples(rows, 4)
	return rows, cb
}

// randSel returns, by mode, nil (every row), an empty selection or a
// random ascending two thirds of n rows.
func randSel(rng *rand.Rand, n int, mode int) []int32 {
	switch mode % 3 {
	case 0:
		return nil
	case 1:
		return []int32{}
	}
	sel := []int32{}
	for i := 0; i < n; i++ {
		if rng.Intn(3) > 0 {
			sel = append(sel, int32(i))
		}
	}
	return sel
}

// checkEvalSel holds EvalSel over cb to per-row Eval over rows, twice:
// into a fresh buffer, and narrowing a copy of sel in place.
func checkEvalSel(t *testing.T, p Expr, rows []data.Tuple, cb *data.ColBatch, sel []int32) {
	t.Helper()
	var want []int32
	live := sel
	if live == nil {
		for i := range rows {
			live = append(live, int32(i))
		}
	}
	for _, i := range live {
		if p.Eval(rows[i]).IsTrue() {
			want = append(want, i)
		}
	}
	got := EvalSel(p, cb, sel, nil)
	if got == nil || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s over %d rows (sel %v): EvalSel=%v scalar=%v", p, len(rows), sel != nil, got, want)
	}
	if sel != nil {
		buf := append(make([]int32, 0, len(sel)), sel...)
		if got := EvalSel(p, cb, buf, buf[:0]); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s narrowed in place: EvalSel=%v scalar=%v", p, got, want)
		}
	}
}

// numPreds lists the comparison shapes of the numeric kernels, every
// operator each: int and float lanes against int and float constants on
// either side, and col-vs-col over two lanes of one kind.
func numPreds() []Expr {
	var ps []Expr
	var consts []Const
	for _, v := range selInts {
		consts = append(consts, IntLit(v))
	}
	for _, f := range selFloats {
		consts = append(consts, Lit(data.Float(f)))
	}
	for _, op := range selOps {
		for _, col := range []Col{{Index: 0}, {Index: 2}} {
			for _, k := range consts {
				ps = append(ps, Compare(op, col, k), Compare(op, k, col))
			}
		}
		ps = append(ps,
			Compare(op, Col{Index: 0}, Col{Index: 1}),
			Compare(op, Col{Index: 2}, Col{Index: 3}),
			Compare(op, Col{Index: 0}, Col{Index: 2}), // mixed kinds: evalValue
			Compare(op, Col{Index: 0}, Lit(data.Null())))
	}
	return ps
}

// andPreds lists conjunctions of one to three terms, among them the
// same-column int ranges the fused pass takes: strict and inclusive
// bounds, constants on either side, lo > hi, and bounds at the int64
// extremes.
func andPreds(rng *rand.Rand, base []Expr) []Expr {
	c0, c1 := Col{Index: 0}, Col{Index: 1}
	ps := []Expr{
		AndOf(),
		AndOf(Compare(GE, c0, IntLit(-1)), Compare(LE, c0, IntLit(2))),
		AndOf(Compare(GT, c0, IntLit(-1)), Compare(LT, c0, IntLit(2))),
		AndOf(Compare(LT, c0, IntLit(2)), Compare(GT, c0, IntLit(-2))),
		AndOf(Compare(LE, IntLit(-1), c0), Compare(GT, IntLit(3), c0)),
		AndOf(Compare(GE, c0, IntLit(2)), Compare(LE, c0, IntLit(-2))), // lo > hi
		AndOf(Compare(GE, c0, IntLit(1)), Compare(LE, c0, IntLit(1))),
		AndOf(Compare(GE, c0, IntLit(math.MinInt64)), Compare(LE, c0, IntLit(math.MaxInt64))),
		AndOf(Compare(GT, c0, IntLit(math.MinInt64)), Compare(LT, c0, IntLit(math.MaxInt64))),
		AndOf(Compare(GT, c0, IntLit(math.MaxInt64)), Compare(LE, c0, IntLit(3))),
		AndOf(Compare(GE, c0, IntLit(-3)), Compare(LT, c0, IntLit(math.MinInt64))),
		AndOf(Compare(GE, c0, IntLit(math.MaxInt64-1)), Compare(LE, c0, IntLit(math.MaxInt64))),
		AndOf(Compare(GE, c0, IntLit(math.MinInt64)), Compare(LE, c0, IntLit(math.MinInt64+1))),
		AndOf(Compare(GE, c0, IntLit(-1)), Compare(GE, c1, IntLit(0)), Compare(LE, c0, IntLit(1))),
		AndOf(Compare(GE, c0, IntLit(-1)), Compare(LE, c1, IntLit(0)), Compare(LE, c0, IntLit(1))),
		AndOf(Compare(GE, c0, Lit(data.Float(-1.5))), Compare(LE, c0, IntLit(1))), // float bound: not fused
		AndOf(Compare(GE, c0, IntLit(-2)), Compare(LE, c0, IntLit(2)), Compare(GT, c0, IntLit(-1)), Compare(LT, c0, IntLit(2))),
	}
	for i := 0; i < 40; i++ {
		terms := make([]Expr, 1+rng.Intn(3))
		for j := range terms {
			terms[j] = base[rng.Intn(len(base))]
		}
		ps = append(ps, AndOf(terms...))
	}
	return ps
}

// TestEvalSelNumericKernelsMatchScalar: EvalSel's numeric selection
// kernels must select exactly the rows the scalar Eval selects, for
// every operator over int lanes, float lanes with NaN, ±0 and ±Inf, and
// int lanes against float constants; column against constant on either
// side and column against column; no, some and only NULLs; all rows, a
// narrowed selection and an empty batch; and conjunctions of one to
// three terms, same-column int ranges (fused into one pass) among them.
func TestEvalSelNumericKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	preds := numPreds()
	preds = append(preds, andPreds(rng, preds)...)
	for trial := 0; trial < 36; trial++ {
		n := rng.Intn(3 * 64)
		switch trial % 12 {
		case 0:
			n = 0
		case 1:
			n = data.BatchSize() + rng.Intn(64)
		}
		nullRate := []float64{0, 0.2, 1}[trial%3]
		rows, cb := numBatch(rng, n, nullRate)
		sel := randSel(rng, n, trial/3)
		for _, p := range preds {
			checkEvalSel(t, p, rows, cb, sel)
		}
	}
}

// FuzzEvalSel holds EvalSel to per-row Eval over random lanes, NULLs,
// selections and predicates: one comparison of any operator and shape
// from numPreds, or a conjunction of two or three of them, or a range on
// lane 0 between two drawn bounds.
func FuzzEvalSel(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(0), uint8(0), uint16(5))
	f.Add(int64(2), uint16(700), uint8(40), uint8(1), uint16(77))
	f.Add(int64(3), uint16(64), uint8(255), uint8(2), uint16(300))
	f.Add(int64(4), uint16(1100), uint8(20), uint8(3), uint16(1000))
	preds := numPreds()
	f.Fuzz(func(t *testing.T, seed int64, n uint16, nulls, selMode uint8, pick uint16) {
		if n > 2*uint16(data.BatchSize()) {
			t.Skip("batch too large")
		}
		rng := rand.New(rand.NewSource(seed))
		rows, cb := numBatch(rng, int(n), float64(nulls)/255)
		sel := randSel(rng, int(n), int(selMode))
		var p Expr
		switch i := int(pick); {
		case i < len(preds):
			p = preds[i]
		case i%3 == 0:
			lo, hi := selInts[rng.Intn(len(selInts))], selInts[rng.Intn(len(selInts))]
			p = AndOf(Compare(selOps[2+rng.Intn(4)], Col{Index: 0}, IntLit(lo)),
				Compare(selOps[2+rng.Intn(4)], IntLit(hi), Col{Index: 0}))
		default:
			terms := make([]Expr, 2+i%2)
			for j := range terms {
				terms[j] = preds[rng.Intn(len(preds))]
			}
			p = AndOf(terms...)
		}
		checkEvalSel(t, p, rows, cb, sel)
	})
}

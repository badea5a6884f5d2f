package expr

import (
	"fmt"
	"math/rand"
	"testing"

	"qpi/internal/data"
)

// Differential test of the vectorized string kernels: EvalSel over a
// column batch must select exactly the rows the scalar Eval selects,
// for every pattern class (exact, prefix, generic regexp), every
// comparison operator, NOT LIKE, NULL-bearing lanes, mixed-kind
// columns (fallback path) and pre-narrowed selection vectors.
func TestEvalSelStringKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	words := []string{"", "a", "ab", "abc", "abd", "b", "ba", "cust-001", "cust-002", "dog"}
	mkLike := func(pat string, neg bool) Like {
		l, err := NewLike(Col{Index: 0}, pat, neg)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	preds := []Expr{
		Compare(EQ, Col{Index: 0}, Lit(data.Str("abc"))),
		Compare(LT, Col{Index: 0}, Lit(data.Str("b"))),
		Compare(LE, Col{Index: 0}, Lit(data.Str("ab"))),
		Compare(GE, Col{Index: 0}, Lit(data.Str("cust-001"))),
		Compare(EQ, Col{Index: 0}, Col{Index: 1}),
		Compare(LE, Col{Index: 0}, Col{Index: 1}),
		mkLike("abc", false), // exact
		mkLike("ab%", false), // prefix
		mkLike("ab%", true),  // NOT LIKE prefix
		mkLike("%b%", false), // generic regexp
		mkLike("a_c", false), // generic regexp (underscore)
		mkLike("", false),    // exact empty
		AndOf(mkLike("c%", false), Compare(LE, Col{Index: 0}, Lit(data.Str("cust-001")))),
	}
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(2*data.BatchSize())
		mixed := trial%5 == 4 // every fifth trial forces the fallback path
		rows := make([]data.Tuple, n)
		for i := range rows {
			tu := make(data.Tuple, 2)
			for c := 0; c < 2; c++ {
				switch {
				case rng.Intn(5) == 0:
					tu[c] = data.Null()
				case mixed && rng.Intn(4) == 0:
					tu[c] = data.Int(rng.Int63n(10))
				default:
					tu[c] = data.Str(words[rng.Intn(len(words))])
				}
			}
			rows[i] = tu
		}
		var cb data.ColBatch
		cb.FromTuples(rows, 2)
		var sel []int32
		if trial%2 == 1 {
			for i := 0; i < n; i++ {
				if rng.Intn(3) > 0 {
					sel = append(sel, int32(i))
				}
			}
		}
		inSel := func(i int) bool {
			if sel == nil {
				return true
			}
			for _, s := range sel {
				if int(s) == i {
					return true
				}
			}
			return false
		}
		for pi, p := range preds {
			got := EvalSel(p, &cb, sel, nil)
			var want []int32
			for i := 0; i < n; i++ {
				if inSel(i) && p.Eval(rows[i]).IsTrue() {
					want = append(want, int32(i))
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d pred %d (%s): EvalSel=%v scalar=%v (mixed=%v, sel=%v)",
					trial, pi, p, got, want, mixed, sel != nil)
			}
		}
	}
}

// TestClassifyLike pins the pattern classification driving the
// non-regexp LIKE kernels.
func TestClassifyLike(t *testing.T) {
	cases := []struct {
		pat  string
		mode byte
		lit  string
	}{
		{"abc", likeExact, "abc"},
		{"", likeExact, ""},
		{"abc%", likePrefix, "abc"},
		{"%", likePrefix, ""},
		{"a%c", likeRegexp, ""},
		{"%abc", likeRegexp, ""},
		{"a_c", likeRegexp, ""},
		{"abc%%", likeRegexp, ""},
		{"_", likeRegexp, ""},
	}
	for _, c := range cases {
		mode, lit := classifyLike(c.pat)
		if mode != c.mode || lit != c.lit {
			t.Errorf("classifyLike(%q) = (%d, %q), want (%d, %q)", c.pat, mode, lit, c.mode, c.lit)
		}
	}
}

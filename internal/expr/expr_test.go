package expr

import (
	"testing"
	"testing/quick"

	"qpi/internal/data"
)

var schema = data.NewSchema(
	data.Column{Table: "t", Name: "a", Kind: data.KindInt},
	data.Column{Table: "t", Name: "b", Kind: data.KindInt},
	data.Column{Table: "t", Name: "s", Kind: data.KindString},
)

func row(a, b int64, s string) data.Tuple {
	return data.Tuple{data.Int(a), data.Int(b), data.Str(s)}
}

func TestColumnResolutionAndEval(t *testing.T) {
	c := Column(schema, "t", "b")
	if got := c.Eval(row(1, 2, "x")); got.I != 2 {
		t.Errorf("Eval = %v", got)
	}
	if c.String() != "t.b" {
		t.Errorf("String = %q", c.String())
	}
	if (Col{Index: 3}).String() != "$3" {
		t.Error("unnamed Col String")
	}
}

func TestConst(t *testing.T) {
	if got := IntLit(5).Eval(nil); got.I != 5 {
		t.Errorf("IntLit = %v", got)
	}
	if got := Lit(data.Str("q")).Eval(nil); got.S != "q" {
		t.Errorf("Lit = %v", got)
	}
}

func TestCompareOps(t *testing.T) {
	a := Column(schema, "t", "a")
	five := IntLit(5)
	cases := []struct {
		op   CmpOp
		av   int64
		want bool
	}{
		{EQ, 5, true}, {EQ, 4, false},
		{NE, 4, true}, {NE, 5, false},
		{LT, 4, true}, {LT, 5, false},
		{LE, 5, true}, {LE, 6, false},
		{GT, 6, true}, {GT, 5, false},
		{GE, 5, true}, {GE, 4, false},
	}
	for _, c := range cases {
		got := Compare(c.op, a, five).Eval(row(c.av, 0, "")).IsTrue()
		if got != c.want {
			t.Errorf("%d %s 5 = %v, want %v", c.av, c.op, got, c.want)
		}
	}
}

func TestCompareWithNullIsFalse(t *testing.T) {
	nullRow := data.Tuple{data.Null(), data.Int(1), data.Str("")}
	a := Column(schema, "t", "a")
	for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE} {
		if Compare(op, a, IntLit(0)).Eval(nullRow).IsTrue() {
			t.Errorf("NULL %s 0 should be false", op)
		}
	}
}

func TestBooleanConnectives(t *testing.T) {
	tr, fa := Lit(data.Bool(true)), Lit(data.Bool(false))
	if !AndOf(tr, tr).Eval(nil).IsTrue() || AndOf(tr, fa).Eval(nil).IsTrue() {
		t.Error("AND wrong")
	}
	if !AndOf().Eval(nil).IsTrue() {
		t.Error("empty AND should be true")
	}
	if !OrOf(fa, tr).Eval(nil).IsTrue() || OrOf(fa, fa).Eval(nil).IsTrue() {
		t.Error("OR wrong")
	}
	if OrOf().Eval(nil).IsTrue() {
		t.Error("empty OR should be false")
	}
	if (Not{tr}).Eval(nil).IsTrue() || !(Not{fa}).Eval(nil).IsTrue() {
		t.Error("NOT wrong")
	}
}

func TestArithmeticInt(t *testing.T) {
	cases := []struct {
		op   ArithOp
		want int64
	}{
		{Add, 13}, {Sub, 7}, {Mul, 30}, {Div, 3}, {Mod, 1},
	}
	for _, c := range cases {
		got := Arith{c.op, IntLit(10), IntLit(3)}.Eval(nil)
		if got.Kind != data.KindInt || got.I != c.want {
			t.Errorf("10 %s 3 = %v, want %d", c.op, got, c.want)
		}
	}
}

func TestArithmeticFloatAndNulls(t *testing.T) {
	got := Arith{Div, Lit(data.Float(1)), IntLit(2)}.Eval(nil)
	if got.Kind != data.KindFloat || got.F != 0.5 {
		t.Errorf("1.0/2 = %v", got)
	}
	if !(Arith{Div, IntLit(1), IntLit(0)}).Eval(nil).IsNull() {
		t.Error("1/0 should be NULL")
	}
	if !(Arith{Mod, IntLit(1), IntLit(0)}).Eval(nil).IsNull() {
		t.Error("1%0 should be NULL")
	}
	if !(Arith{Div, Lit(data.Float(1)), Lit(data.Float(0))}).Eval(nil).IsNull() {
		t.Error("1.0/0.0 should be NULL")
	}
	if !(Arith{Mod, Lit(data.Float(1)), Lit(data.Float(2))}).Eval(nil).IsNull() {
		t.Error("float mod should be NULL")
	}
	if !(Arith{Add, Lit(data.Null()), IntLit(1)}).Eval(nil).IsNull() {
		t.Error("NULL+1 should be NULL")
	}
}

func TestStringsRender(t *testing.T) {
	a := Column(schema, "t", "a")
	e := AndOf(Compare(LT, a, IntLit(5)), OrOf(Compare(EQ, a, IntLit(1))))
	want := "(t.a < 5) AND ((t.a = 1))"
	if got := e.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	ar := Arith{Mul, a, IntLit(2)}
	if ar.String() != "(t.a * 2)" {
		t.Errorf("Arith String = %q", ar.String())
	}
	n := Not{a}
	if n.String() != "NOT (t.a)" {
		t.Errorf("Not String = %q", n.String())
	}
}

func TestComparisonMatchesGoSemantics(t *testing.T) {
	f := func(a, b int64) bool {
		r := row(a, b, "")
		ca, cb := Column(schema, "t", "a"), Column(schema, "t", "b")
		return Compare(LT, ca, cb).Eval(r).IsTrue() == (a < b) &&
			Compare(EQ, ca, cb).Eval(r).IsTrue() == (a == b) &&
			Compare(GE, ca, cb).Eval(r).IsTrue() == (a >= b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntArithmeticMatchesGo(t *testing.T) {
	f := func(a, b int32) bool {
		l, r := IntLit(int64(a)), IntLit(int64(b))
		add := Arith{Add, l, r}.Eval(nil).I == int64(a)+int64(b)
		sub := Arith{Sub, l, r}.Eval(nil).I == int64(a)-int64(b)
		mul := Arith{Mul, l, r}.Eval(nil).I == int64(a)*int64(b)
		div := true
		if b != 0 {
			div = Arith{Div, l, r}.Eval(nil).I == int64(a)/int64(b)
		}
		return add && sub && mul && div
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLike(t *testing.T) {
	col := Column(schema, "t", "s")
	mk := func(pat string, neg bool) Like {
		l, err := NewLike(col, pat, neg)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	cases := []struct {
		pat  string
		val  string
		want bool
	}{
		{"abc", "abc", true},
		{"abc", "abcd", false},
		{"a%", "axyz", true},
		{"%z", "axyz", true},
		{"a_c", "abc", true},
		{"a_c", "ac", false},
		{"%b%", "abc", true},
		{"", "", true},
		{"%", "anything", true},
		{"a.c", "abc", false}, // regexp metachars are literal
		{"a.c", "a.c", true},
	}
	for _, c := range cases {
		got := mk(c.pat, false).Eval(row(0, 0, c.val)).IsTrue()
		if got != c.want {
			t.Errorf("%q LIKE %q = %v, want %v", c.val, c.pat, got, c.want)
		}
		if neg := mk(c.pat, true).Eval(row(0, 0, c.val)).IsTrue(); neg == got {
			t.Errorf("NOT LIKE should negate for %q/%q", c.val, c.pat)
		}
	}
	// NULL and non-string operands are false either way.
	nullRow := data.Tuple{data.Int(1), data.Int(2), data.Null()}
	if mk("x", false).Eval(nullRow).IsTrue() {
		t.Error("NULL LIKE should be false")
	}
	l := mk("a%", false)
	if l.String() != "t.s LIKE 'a%'" {
		t.Errorf("String = %q", l.String())
	}
	ln := mk("a%", true)
	if ln.String() != "t.s NOT LIKE 'a%'" {
		t.Errorf("String = %q", ln.String())
	}
}

// TestRemapRebindsEveryColumn: an expression rebound onto a narrowed
// input reads the same values from the narrowed row, marks the same
// columns, and renders as before — an unnamed column included.
func TestRemapRebindsEveryColumn(t *testing.T) {
	like, err := NewLike(Column(schema, "t", "s"), "x%", false)
	if err != nil {
		t.Fatal(err)
	}
	e := AndOf(
		OrOf(Compare(GT, Col{Index: 1}, IntLit(2)), Not{E: IsNull{E: Column(schema, "t", "b")}}),
		like,
		Compare(LT, Arith{Op: Add, L: Column(schema, "t", "b"), R: IntLit(1)}, IntLit(100)),
	)
	full := row(7, 5, "xy")
	narrowed := data.Tuple{full[1], full[2]} // b, s
	m := []int{-1, 0, 1}
	got := Remap(e, m)
	if got.String() != e.String() {
		t.Errorf("rebinding changed the rendering: %s vs %s", got, e)
	}
	if got.Eval(narrowed) != e.Eval(full) || !got.Eval(narrowed).IsTrue() {
		t.Errorf("rebound %v over the narrowed row, %v over the full one", got.Eval(narrowed), e.Eval(full))
	}
	refs := make([]bool, 2)
	ColRefs(got, refs)
	if !refs[0] || !refs[1] {
		t.Errorf("rebound expression marks %v", refs)
	}
}

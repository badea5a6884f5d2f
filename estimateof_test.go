package qpi

import (
	"slices"
	"testing"
)

// estimateOfEngine builds a two-join plan whose labels exercise every
// EstimateOf resolution path: "Scan(r)" appears once, "Scan(s AS u)" and
// "Scan(s AS v)" give distinct labels over the same table, and
// "HashJoin" is a substring of two join labels.
func estimateOfEngine(t *testing.T) *Query {
	t.Helper()
	e := New()
	e.MustCreateSkewedTable("r", 300, 1,
		SkewedColumn{Name: "k", Domain: 40, Zipf: 0, PermSeed: 1})
	e.MustCreateSkewedTable("s", 200, 2,
		SkewedColumn{Name: "k", Domain: 40, Zipf: 0, PermSeed: 2})
	return e.MustQuery(
		"SELECT r.k FROM r JOIN s AS u ON r.k = u.k JOIN s AS v ON r.k = v.k")
}

func TestEstimateOfExactMatch(t *testing.T) {
	q := estimateOfEngine(t)
	for _, label := range []string{"Scan(r)", "Scan(s AS u)", "Scan(s AS v)"} {
		est, ok := q.EstimateOf(label)
		if !ok {
			t.Fatalf("EstimateOf(%q) not found", label)
		}
		if est.Operator != label {
			t.Fatalf("EstimateOf(%q) resolved to %q", label, est.Operator)
		}
	}
}

func TestEstimateOfExactMatchBeatsSubstring(t *testing.T) {
	// "Scan(s AS u)" is an exact label AND a substring of itself only,
	// but "Scan" alone is a substring of three operators: the exact
	// label must resolve while the bare substring must not.
	q := estimateOfEngine(t)
	if _, ok := q.EstimateOf("Scan"); ok {
		t.Fatal(`EstimateOf("Scan") resolved despite three scan operators`)
	}
	est, ok := q.EstimateOf("Scan(s AS u)")
	if !ok || est.Operator != "Scan(s AS u)" {
		t.Fatalf(`EstimateOf("Scan(s AS u)") = %+v, %v`, est, ok)
	}
}

func TestEstimateOfDuplicateExactLabelsAmbiguous(t *testing.T) {
	// Two scans of r without aliases produce two operators with the
	// byte-identical label "Scan(r)": resolving it must fail rather than
	// silently return whichever came first.
	e := New()
	e.MustCreateSkewedTable("r", 100, 1,
		SkewedColumn{Name: "k", Domain: 10, Zipf: 0, PermSeed: 1})
	// The SQL front end enforces unique aliases, so assemble the
	// ambiguous plan through the builder: two unaliased scans of r.
	left, err := e.Scan("r", "")
	if err != nil {
		t.Fatal(err)
	}
	right, err := e.Scan("r", "")
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Compile(HashJoin(left, right, Col("r", "k"), Col("r", "k")))
	if err != nil {
		t.Fatal(err)
	}
	ests := q.Estimates()
	dup := 0
	for _, est := range ests {
		if est.Operator == "Scan(r)" {
			dup++
		}
	}
	if dup != 2 {
		t.Skipf("plan labels changed (%d copies of Scan(r)); update this test", dup)
	}
	if est, ok := q.EstimateOf("Scan(r)"); ok {
		t.Fatalf("EstimateOf of a duplicated label resolved to %+v", est)
	}
}

func TestEstimateOfUniqueSubstring(t *testing.T) {
	q := estimateOfEngine(t)
	est, ok := q.EstimateOf("AS v")
	if !ok || est.Operator != "Scan(s AS v)" {
		t.Fatalf(`EstimateOf("AS v") = %+v, %v, want Scan(s AS v)`, est, ok)
	}
}

func TestEstimateOfAmbiguousSubstring(t *testing.T) {
	q := estimateOfEngine(t)
	if est, ok := q.EstimateOf("HashJoin"); ok {
		t.Fatalf(`EstimateOf("HashJoin") resolved to %+v despite two joins`, est)
	}
}

func TestEstimateOfRootAndMisses(t *testing.T) {
	q := estimateOfEngine(t)
	est, ok := q.EstimateOf("")
	if !ok {
		t.Fatal(`EstimateOf("") did not resolve`)
	}
	if root := q.Estimates()[0]; est.Operator != root.Operator {
		t.Fatalf(`EstimateOf("") = %q, want root %q`, est.Operator, root.Operator)
	}
	if _, ok := q.EstimateOf("SortAgg"); ok {
		t.Fatal("EstimateOf of an absent operator resolved")
	}
}

// TestEstimateOfStableAcrossRun: a join's label is rendered when it is
// linked and Prune keeps its columns, so every label Estimates reports
// before the run resolves to itself through EstimateOf, and the run
// changes none of them.
func TestEstimateOfStableAcrossRun(t *testing.T) {
	q := estimateOfEngine(t)
	labels := func() []string {
		var out []string
		for _, est := range q.Estimates() {
			out = append(out, est.Operator)
		}
		return out
	}
	before := labels()
	if _, err := q.Run(nil); err != nil {
		t.Fatal(err)
	}
	if after := labels(); !slices.Equal(after, before) {
		t.Fatalf("labels after the run %v, want %v", after, before)
	}
	for _, l := range before {
		if est, ok := q.EstimateOf(l); !ok || est.Operator != l || !est.Done {
			t.Errorf("EstimateOf(%q) after the run = %+v, %v", l, est, ok)
		}
	}
}

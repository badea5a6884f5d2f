package difftest

import (
	"testing"

	"qpi/internal/qgen"
)

// FuzzDifferential lets the fuzzer explore the (seed, Options) space
// directly. Each input is one generated case checked against the oracle
// in tuple and columnar mode — columnar sends every grace join through
// the vectorized partition passes and column-lane output gather (the full
// mode sweep, including spills and cancellation, runs in
// TestDifferentialSuite). Minimized suite failures land in
// testdata/fuzz/FuzzDifferential as permanent regressions.
func FuzzDifferential(f *testing.F) {
	f.Add(int64(1), 32, 2, true, true, true)
	f.Add(int64(7), 64, 3, false, true, false)
	f.Add(int64(42), 8, 1, true, false, true)
	f.Fuzz(func(t *testing.T, seed int64, maxRows, maxJoins int, groupBy, altJoins, nonInner bool) {
		if maxRows < 8 || maxRows > 200 || maxJoins < 1 || maxJoins > 4 {
			t.Skip("out of bounds")
		}
		opts := qgen.Options{
			MaxRows:  maxRows,
			MaxJoins: maxJoins,
			GroupBy:  groupBy,
			AltJoins: altJoins,
			NonInner: nonInner,
		}
		if err := CheckCase(seed, opts, nil, ModeColumnar); err != nil {
			t.Fatalf("%v\nreplay: %s", err, ReplayCommand(seed, opts))
		}
	})
}

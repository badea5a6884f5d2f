package difftest

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"qpi/internal/qgen"
)

// Replay flags: reproduce one failing case printed by a suite failure, e.g.
//
//	go test ./internal/difftest -run TestReplaySeed -qgen.seed=1042 ...
var (
	replaySeed  = flag.Int64("qgen.seed", 0, "replay a single generated case with this seed")
	replayRows  = flag.Int("qgen.maxrows", 120, "MaxRows for -qgen.seed replay")
	replayJoins = flag.Int("qgen.maxjoins", 3, "MaxJoins for -qgen.seed replay")
	replayGroup = flag.Bool("qgen.groupby", true, "GroupBy for -qgen.seed replay")
	replayAlt   = flag.Bool("qgen.altjoins", true, "AltJoins for -qgen.seed replay")
	replayNonIn = flag.Bool("qgen.noninner", true, "NonInner for -qgen.seed replay")
)

// suiteCases is the number of generated plans per `go test` invocation.
const suiteCases = 200

const suiteBaseSeed = 1000

// TestDifferentialSuite runs every generated plan through all execution
// modes against the exact oracle. It is fully deterministic: a failure
// prints the replay command, and the driver shrinks the options space and
// emits a fuzz corpus seed for the minimized reproduction.
func TestDifferentialSuite(t *testing.T) {
	opts := qgen.DefaultOptions()
	st := &SuiteStats{}
	for i := 0; i < suiteCases; i++ {
		seed := int64(suiteBaseSeed + i)
		if err := CheckCase(seed, opts, st); err != nil {
			min := qgen.Shrink(opts, func(o qgen.Options) bool {
				return CheckCase(seed, o, nil) != nil
			})
			emitCorpusSeed(t, seed, min)
			t.Fatalf("differential failure (seed %d):\n%v\nminimized opts: %+v\nreplay: %s",
				seed, err, min, ReplayCommand(seed, min))
		}
	}
	t.Logf("stats: %+v", *st)

	// Aggregate floors: the harness must actually have exercised what it
	// claims to check. These are deliberately loose lower bounds.
	if st.Runs < suiteCases*len(AllModes) {
		t.Errorf("ran %d mode-runs, want >= %d", st.Runs, suiteCases*len(AllModes))
	}
	if st.ChainsChecked < suiteCases {
		t.Errorf("verified %d chain estimators, want >= %d", st.ChainsChecked, suiteCases)
	}
	if st.AggsChecked < suiteCases/10 {
		t.Errorf("verified %d aggregations, want >= %d", st.AggsChecked, suiteCases/10)
	}
	if st.Cancelled < suiteCases/10 {
		t.Errorf("observed %d real cancellations, want >= %d", st.Cancelled, suiteCases/10)
	}
	if st.SpillFiles == 0 {
		t.Error("forced-spill mode never created a spill file")
	}
	// Non-vacuousness of the re-opt modes: the forced re-optimizer must
	// have actually restructured plans, not skipped every segment. Many
	// generated cases legitimately decline (single-join chains, merge/NL
	// or semi/anti segments, push-down chains, already-optimal orders),
	// so the floor is over the suite, not per case.
	if st.PlanChanges < suiteCases/20 {
		t.Errorf("re-opt modes applied %d plan changes, want >= %d — the harness is checking nothing",
			st.PlanChanges, suiteCases/20)
	}
	if st.ColumnarPlanChanges == 0 {
		t.Error("no plan compiled columnar was ever restructured")
	}
	if st.ReoptRuns < suiteCases/20 {
		t.Errorf("only %d re-opt runs changed their executed plan, want >= %d",
			st.ReoptRuns, suiteCases/20)
	}
	if st.CISamples >= 50 {
		// Nominal coverage is 95%, but these are CLT intervals sampled
		// only 8 tuples into the probe over heavily skewed keys; the
		// empirically measured rate is ~0.70, so floor well below it.
		cov := float64(st.CICovered) / float64(st.CISamples)
		if cov < 0.55 {
			t.Errorf("mid-probe CI coverage %.2f (%d/%d) below floor 0.55",
				cov, st.CICovered, st.CISamples)
		}
	} else {
		t.Errorf("only %d mid-probe CI samples, want >= 50", st.CISamples)
	}
}

// emitCorpusSeed writes the minimized failing case into the Go fuzz
// corpus so FuzzDifferential permanently regresses it.
func emitCorpusSeed(t *testing.T, seed int64, o qgen.Options) {
	t.Helper()
	body := fmt.Sprintf("go test fuzz v1\nint64(%d)\nint(%d)\nint(%d)\nbool(%v)\nbool(%v)\nbool(%v)\n",
		seed, o.MaxRows, o.MaxJoins, o.GroupBy, o.AltJoins, o.NonInner)
	dir := filepath.Join("testdata", "fuzz", "FuzzDifferential")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("could not create corpus dir: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("shrunk-seed-%d", seed))
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Logf("could not write corpus seed: %v", err)
		return
	}
	t.Logf("wrote minimized fuzz corpus seed %s", path)
}

// TestReplaySeed re-runs a single case by seed; it is a no-op unless
// -qgen.seed is given. Use the flags printed in a suite failure.
func TestReplaySeed(t *testing.T) {
	if *replaySeed == 0 {
		t.Skip("no -qgen.seed given")
	}
	opts := qgen.Options{
		MaxRows:  *replayRows,
		MaxJoins: *replayJoins,
		GroupBy:  *replayGroup,
		AltJoins: *replayAlt,
		NonInner: *replayNonIn,
	}
	c := qgen.Generate(*replaySeed, opts)
	t.Logf("replaying case:\n%s", c.Describe())
	if err := CheckCase(*replaySeed, opts, nil); err != nil {
		t.Fatalf("replay failed: %v", err)
	}
}

// TestShrinkMinimizes checks the shrinker against a synthetic predicate:
// a failure that only needs one join and small tables must minimize to
// the floor options.
func TestShrinkMinimizes(t *testing.T) {
	fails := func(o qgen.Options) bool { return o.MaxRows >= 8 } // always fails
	min := qgen.Shrink(qgen.DefaultOptions(), fails)
	want := qgen.Options{MaxRows: 8, MaxJoins: 1}
	if min != want {
		t.Fatalf("Shrink = %+v, want %+v", min, want)
	}

	// A predicate that needs GroupBy must keep it and drop the rest.
	needsGroup := func(o qgen.Options) bool { return o.GroupBy }
	min = qgen.Shrink(qgen.DefaultOptions(), needsGroup)
	want = qgen.Options{MaxRows: 8, MaxJoins: 1, GroupBy: true}
	if min != want {
		t.Fatalf("Shrink = %+v, want %+v", min, want)
	}

	// A passing case shrinks to itself.
	passing := qgen.DefaultOptions()
	if got := qgen.Shrink(passing, func(qgen.Options) bool { return false }); got != passing {
		t.Fatalf("Shrink of passing case = %+v, want unchanged", got)
	}
}

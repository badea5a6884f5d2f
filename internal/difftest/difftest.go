// Package difftest is the randomized differential-testing harness: it
// runs every qgen-generated plan through all execution modes of the real
// engine (tuple-at-a-time, forced-spill, columnar, columnar-spill and
// mid-query cancel/re-run) and checks each run against the exact oracle
// and the paper's estimator invariants:
//
//   - result-set equivalence: the run's output multiset equals the
//     oracle's, and every join emits exactly its true cardinality;
//   - once-exactness: every chain estimator freezes at the end of its
//     first probe pass with estimates exactly equal to the true join
//     cardinalities (source "once-exact");
//   - confidence intervals are well-formed mid-probe and their empirical
//     coverage of the truth is tracked suite-wide;
//   - gnm progress: C(Q) is monotone, progress stays in [0,1], and plans
//     that drain every operator finish at exactly 1;
//   - the GEE/MLE chooser sits on the right side of γ² vs τ and returns
//     the exact group count once its input is exhausted.
//
// Every failure message embeds the replay seed and options; the test
// driver shrinks failures and re-emits them as Go fuzz corpus entries.
package difftest

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"qpi/internal/core"
	"qpi/internal/data"
	"qpi/internal/distinct"
	"qpi/internal/exec"
	"qpi/internal/oracle"
	"qpi/internal/progress"
	"qpi/internal/qgen"
)

// Mode is one execution configuration of the engine under test.
type Mode int

// Execution modes.
const (
	// ModeTuple is the tuple-at-a-time reference executor.
	ModeTuple Mode = iota
	// ModeSpill forces grace-join and sort spills with a tiny budget.
	ModeSpill
	// ModeCancelRerun cancels the context after the first bottom-stream
	// tuple, verifies the terminal state, then re-runs a fresh build to
	// completion with full checks.
	ModeCancelRerun
	// ModeColumnar drives the plan column-at-a-time: hash joins run the
	// columnar partition passes with span-at-a-time estimator observation
	// and gather output straight into column lanes.
	ModeColumnar
	// ModeColumnarSpill combines the columnar passes with a tiny budget,
	// forcing partitions through the columnar spill frame codec.
	ModeColumnarSpill
)

// AllModes is every execution mode, in suite order.
var AllModes = []Mode{ModeTuple, ModeSpill, ModeColumnar, ModeColumnarSpill, ModeCancelRerun}

// columnar reports whether the mode compiles the plan columnar and
// drains it through NextColBatch.
func (m Mode) columnar() bool {
	switch m {
	case ModeColumnar, ModeColumnarSpill:
		return true
	}
	return false
}

func (m Mode) String() string {
	switch m {
	case ModeSpill:
		return "spill"
	case ModeCancelRerun:
		return "cancel-rerun"
	case ModeColumnar:
		return "columnar"
	case ModeColumnarSpill:
		return "columnar-spill"
	default:
		return "tuple"
	}
}

// spillBudget is the per-operator memory budget (bytes) of ModeSpill —
// small enough that even 8-row partitions overflow.
const spillBudget = 128

// ciSampleAt is the probe-tuple count at which ModeTuple snapshots each
// chain's confidence intervals for the suite-wide coverage statistic.
const ciSampleAt = 8

// SuiteStats aggregates cross-case statistics; the suite test asserts
// floors on them so the harness cannot silently degrade into checking
// nothing.
type SuiteStats struct {
	Cases         int
	Runs          int
	ChainsChecked int // joins verified against the once-exact invariant
	AggsChecked   int // aggregations verified against the chooser invariants
	CISamples     int
	CICovered     int
	Cancelled     int   // runs that observed a real mid-query cancellation
	SpillFiles    int64 // spilled runs across ModeSpill runs
}

// CheckCase generates the case for (seed, opts), evaluates the oracle and
// runs every requested mode (all of them by default), returning the first
// violation. st may be nil.
func CheckCase(seed int64, opts qgen.Options, st *SuiteStats, modes ...Mode) error {
	if st == nil {
		st = &SuiteStats{}
	}
	if len(modes) == 0 {
		modes = AllModes
	}
	c := qgen.Generate(seed, opts)
	want := oracle.Eval(c)
	st.Cases++
	for _, m := range modes {
		if err := runMode(c, want, m, st); err != nil {
			return fmt.Errorf("mode %s: %w\ncase:\n%s", m, err, c.Describe())
		}
	}
	return nil
}

type ciSnapshot struct {
	lo, hi float64
	taken  bool
}

// runMode builds a fresh executor tree, runs it in the given mode and
// checks every invariant.
func runMode(c *qgen.Case, want *oracle.Result, m Mode, st *SuiteStats) error {
	b, err := c.Build()
	if err != nil {
		return err
	}
	if m == ModeSpill || m == ModeColumnarSpill {
		setBudget(b.Root, spillBudget)
	}
	if m.columnar() {
		setColumnar(b.Root)
	}
	att := core.Attach(b.Root)
	mon := progress.NewMonitorWith(b.Root, progress.ModeOnce, att)
	st.Runs++

	// gnm invariants, sampled at work-based ticks on the execution path
	// (span-granular where the mode drains columnar, so those modes run
	// the lane-native output paths a per-tuple hook would switch off).
	var lastC float64
	var progErr error
	progress.NewTicker(5, func() {
		if progErr != nil {
			return
		}
		rep := mon.Report()
		if rep.C+1e-9 < lastC {
			progErr = fmt.Errorf("gnm C regressed: %g -> %g", lastC, rep.C)
		}
		lastC = rep.C
		if rep.Progress < -1e-9 || rep.Progress > 1+1e-6 {
			progErr = fmt.Errorf("gnm progress %g outside [0,1]", rep.Progress)
		}
	}).Install(b.Root, m.columnar())

	// Mid-probe CI snapshots.
	cis := map[*core.PipelineEstimator][]ciSnapshot{}
	if m == ModeTuple {
		for _, pe := range att.Chains {
			pe := pe
			snaps := make([]ciSnapshot, pe.Levels())
			cis[pe] = snaps
			prev := pe.OnProbeObserved
			pe.OnProbeObserved = func(t int64) {
				if prev != nil {
					prev(t)
				}
				if t == ciSampleAt && !pe.Converged() {
					for k := range snaps {
						lo, hi := pe.ConfidenceInterval(k, 0.95)
						snaps[k] = ciSnapshot{lo: lo, hi: hi, taken: true}
					}
				}
			}
		}
	}

	ctx := context.Background()
	if m == ModeCancelRerun {
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		ctx = cctx
		prev := b.Bottom.OnTuple
		fired := false
		b.Bottom.OnTuple = func(t data.Tuple) {
			if prev != nil {
				prev(t)
			}
			if !fired {
				fired = true
				cancel()
			}
		}
	}
	exec.Bind(b.Root, ctx)
	rows, runErr := drain(b.Root, m)
	mon.Finish(runErr)

	if progErr != nil {
		return progErr
	}
	if m == ModeCancelRerun && runErr != nil {
		// The amortized context poll tripped mid-query: verify the
		// terminal state, then re-run a fresh build to completion.
		if !errors.Is(runErr, context.Canceled) {
			return fmt.Errorf("cancelled run returned %v, want context.Canceled", runErr)
		}
		rep := mon.Report()
		if rep.State != progress.StateCancelled {
			return fmt.Errorf("cancelled run state = %v, want cancelled", rep.State)
		}
		if rep.Progress < -1e-9 || rep.Progress > 1+1e-6 {
			return fmt.Errorf("cancelled run progress %g outside [0,1]", rep.Progress)
		}
		st.Cancelled++
		return runMode(c, want, ModeTuple, st)
	}
	if runErr != nil {
		return fmt.Errorf("run failed: %w", runErr)
	}

	// (a) Result-set equivalence against the oracle.
	if err := compareRows(rows, want.Rows); err != nil {
		return err
	}
	// Exact per-join cardinalities.
	for i, j := range b.Joins {
		if got := j.Stats().Emitted.Load(); got != want.JoinCards[i] {
			return fmt.Errorf("join %d (%s) emitted %d, oracle says %d", i, j.Name(), got, want.JoinCards[i])
		}
		if m == ModeSpill || m == ModeColumnarSpill {
			st.SpillFiles += j.Stats().SpillFiles.Load()
		}
	}
	// (b) Paper invariants.
	if err := checkOnceExact(b, att, want, cis, st); err != nil {
		return err
	}
	if err := checkAgg(b, att, want, st); err != nil {
		return err
	}
	// Terminal gnm state. Merge joins may exhaust one side early and
	// leave the other sort partially undrained, so exact termination at 1
	// is only guaranteed for fully draining plans.
	rep := mon.Report()
	if rep.State != progress.StateDone {
		return fmt.Errorf("terminal state = %v, want done", rep.State)
	}
	if rep.Progress > 1+1e-6 {
		return fmt.Errorf("terminal progress %g > 1", rep.Progress)
	}
	if !hasMergeJoin(c) && rep.Progress < 1-1e-6 {
		return fmt.Errorf("terminal progress %g, want 1 for a fully draining plan", rep.Progress)
	}
	return nil
}

// checkOnceExact verifies the central once-estimator claim: every chain
// estimator froze at the end of its first probe pass with estimates
// exactly equal to the true join cardinalities.
func checkOnceExact(b *qgen.Built, att *core.Attachment, want *oracle.Result,
	cis map[*core.PipelineEstimator][]ciSnapshot, st *SuiteStats) error {
	for i, j := range b.Joins {
		pe := att.ChainOf[j]
		if pe == nil {
			continue // dne fallback (e.g. non-sorted NL joins): no claim
		}
		truth := float64(want.JoinCards[i])
		lvl := att.LevelOf[j]
		if !pe.Converged() {
			return fmt.Errorf("join %d (%s): chain estimator never converged", i, j.Name())
		}
		if est := pe.Estimate(lvl); !approxEq(est, truth) {
			return fmt.Errorf("join %d (%s): converged estimate %g != exact %g", i, j.Name(), est, truth)
		}
		// The frozen estimate must collapse the CI to the exact point.
		if lo, hi := pe.ConfidenceInterval(lvl, 0.95); !approxEq(lo, truth) || !approxEq(hi, truth) {
			return fmt.Errorf("join %d (%s): frozen CI [%g,%g] not collapsed on %g", i, j.Name(), lo, hi, truth)
		}
		if src := j.Stats().Source(); src != "once-exact" {
			return fmt.Errorf("join %d (%s): source %q, want once-exact", i, j.Name(), src)
		}
		if est := j.Stats().Estimate(); !approxEq(est, truth) {
			return fmt.Errorf("join %d (%s): published estimate %g != exact %g", i, j.Name(), est, truth)
		}
		st.ChainsChecked++
		if snaps := cis[pe]; snaps != nil && snaps[lvl].taken {
			s := snaps[lvl]
			if s.lo > s.hi+1e-9 {
				return fmt.Errorf("join %d (%s): malformed mid-probe CI [%g,%g]", i, j.Name(), s.lo, s.hi)
			}
			st.CISamples++
			if s.lo-1e-9 <= truth && truth <= s.hi+1e-9 {
				st.CICovered++
			}
		}
	}
	return nil
}

// checkAgg verifies the grouping estimator: exact group counts, chooser
// flips consistent with γ² against τ, and exactness once the input pass
// is exhausted (push-down estimates ride the join's output distribution
// and are checked loosely).
func checkAgg(b *qgen.Built, att *core.Attachment, want *oracle.Result, st *SuiteStats) error {
	if b.Agg == nil {
		return nil
	}
	if got := b.Agg.Stats().Emitted.Load(); got != want.GroupCount {
		return fmt.Errorf("agg emitted %d groups, oracle says %d", got, want.GroupCount)
	}
	ae := att.Aggs[b.Agg]
	if ae == nil {
		return nil
	}
	truth := float64(want.GroupCount)
	switch {
	case ae.Chooser() != nil, ae.Tracker() != nil:
		if mle := ae.Source() == "mle"; mle != (ae.Gamma2() < distinct.DefaultTau) {
			return fmt.Errorf("chooser flip inconsistent: source=%s γ²=%g τ=%g",
				ae.Source(), ae.Gamma2(), distinct.DefaultTau)
		}
		if est := ae.Estimate(); !approxEq(est, truth) {
			return fmt.Errorf("exhausted chooser estimate %g != exact groups %g", est, truth)
		}
	default:
		// Push-down over the join output distribution: the histograms it
		// rides skip NULL keys, so compare against the non-NULL group
		// count, loosely (it is the one estimator the paper does not
		// claim exactness for) with absolute slack for tiny counts.
		if tr := float64(want.GroupNonNull); tr > 0 {
			est := ae.Estimate()
			if est < 0.5*tr-3 || est > 2*tr+3 {
				return fmt.Errorf("push-down estimate %g vs exact non-NULL groups %g (outside 2x)", est, tr)
			}
		}
	}
	st.AggsChecked++
	return nil
}

func drain(root exec.Operator, m Mode) ([]data.Tuple, error) {
	if err := root.Open(); err != nil {
		return nil, err
	}
	var rows []data.Tuple
	var err error
	if m.columnar() {
		rows, err = exec.DrainCol(exec.AsColOperator(root))
	} else {
		rows, err = exec.Drain(root)
	}
	if cerr := root.Close(); err == nil {
		err = cerr
	}
	return rows, err
}

func setColumnar(root exec.Operator) {
	exec.Walk(root, func(op exec.Operator) {
		switch o := op.(type) {
		case *exec.HashJoin:
			o.SetColumnar(true)
		case *exec.Sort:
			o.SetColumnar(true)
		}
	})
}

func setBudget(root exec.Operator, bytes int64) {
	exec.Walk(root, func(op exec.Operator) {
		switch o := op.(type) {
		case *exec.HashJoin:
			o.SetMemoryBudget(bytes)
		case *exec.Sort:
			o.SetMemoryBudget(bytes)
		}
	})
}

func hasMergeJoin(c *qgen.Case) bool {
	for _, js := range c.Spec.Joins {
		if js.Kind == qgen.KindMerge {
			return true
		}
	}
	return false
}

// compareRows compares result multisets via canonical string renderings.
func compareRows(got, want []data.Tuple) error {
	g := canon(got)
	w := canon(want)
	if len(g) != len(w) {
		return fmt.Errorf("result has %d rows, oracle says %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("result multiset mismatch at sorted row %d:\n  engine: %s\n  oracle: %s", i, g[i], w[i])
		}
	}
	return nil
}

func canon(rows []data.Tuple) []string {
	out := make([]string, len(rows))
	for i, t := range rows {
		out[i] = t.String()
	}
	sort.Strings(out)
	return out
}

func approxEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if b > 1 {
		scale = b
	}
	return d <= 1e-6*scale
}

// ReplayCommand renders the command line that reproduces a failing case.
func ReplayCommand(seed int64, o qgen.Options) string {
	var b strings.Builder
	fmt.Fprintf(&b, "go test ./internal/difftest -run TestReplaySeed -qgen.seed=%d -qgen.maxrows=%d -qgen.maxjoins=%d",
		seed, o.MaxRows, o.MaxJoins)
	fmt.Fprintf(&b, " -qgen.groupby=%v -qgen.altjoins=%v -qgen.noninner=%v", o.GroupBy, o.AltJoins, o.NonInner)
	return b.String()
}

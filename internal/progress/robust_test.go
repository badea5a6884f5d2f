package progress

import (
	"math"
	"testing"

	"qpi/internal/core"
)

// Tests for the robust blended estimator mode.

func TestRobustModeLifecycle(t *testing.T) {
	j, _ := buildJoinQuery(t, 7, ModeDNE) // helper only attaches for ModeOnce
	core.Attach(j)
	m := NewMonitor(j, ModeRobust)
	if m.Mode() != ModeRobust || ModeRobust.String() != "robust" {
		t.Fatalf("mode = %v (%q)", m.Mode(), m.Mode())
	}
	if got := m.Progress(); got != 0 {
		t.Errorf("initial progress = %g", got)
	}
	var samples []float64
	if _, err := runTicked(j, 100, func() { samples = append(samples, m.Progress()) }); err != nil {
		t.Fatal(err)
	}
	if got := m.Progress(); math.Abs(got-1) > 1e-9 {
		t.Errorf("final progress = %g, want 1", got)
	}
	for i, s := range samples {
		if s < 0 || s > 1 {
			t.Fatalf("sample %d out of range: %g", i, s)
		}
	}
}

// TestRobustBlendTracksOnce checks the blend actually mixes: mid-run,
// with a live once estimate on the join, the robust total must sit
// between the smallest and largest per-operator component estimates —
// witnessed here by comparing against pure once/dne/byte monitors over
// the same plan, which can only disagree with robust if the blend is a
// true convex combination per operator.
func TestRobustBlendTracksOnce(t *testing.T) {
	j, _ := buildJoinQuery(t, 8, ModeDNE)
	att := core.Attach(j)
	once := NewMonitorWith(j, ModeOnce, att)
	dne := NewMonitor(j, ModeDNE)
	byt := NewMonitor(j, ModeByte)
	robust := NewMonitor(j, ModeRobust)

	checked := 0
	if _, err := runTicked(j, 500, func() {
		_, tOnce := once.Totals()
		_, tDNE := dne.Totals()
		_, tByte := byt.Totals()
		_, tRobust := robust.Totals()
		lo := math.Min(tOnce, math.Min(tDNE, tByte))
		hi := math.Max(tOnce, math.Max(tDNE, tByte))
		// Per-operator convexity gives Σ-level bounds only up to the
		// spread between per-op minima and per-mode sums; allow slack.
		if tRobust < lo*0.99 || tRobust > hi*1.01 {
			t.Errorf("robust total %g outside component envelope [%g, %g]", tRobust, lo, hi)
		}
		checked++
	}); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("ticker never fired; no blend samples checked")
	}
}

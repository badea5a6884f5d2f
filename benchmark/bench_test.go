package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"qpi"
)

// spec mirrors the parts of BENCHMARK.json the smoke test checks.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []specMetric            `json:"end_to_end"`
	PerLayer  []specMetric            `json:"per_layer"`
}

type specMetric struct{ Name, Unit string }

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func testConfig(t *testing.T, workload string, trace bool) config {
	window := time.Second
	if testing.Short() {
		window = 500 * time.Millisecond
	}
	return config{workload: workload, seed: 1, window: window, trace: trace, scale: 0.5, outDir: t.TempDir()}
}

// TestSmoke runs every workload in both modes with short windows on
// half-size data and checks that the metrics printed are exactly the
// ones BENCHMARK.json declares, once each, with the declared units.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads declared, want 2 to 8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics declared, want 1 to 16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics declared, want 1 to 128", n)
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			declared := s.EndToEnd
			if trace {
				declared = s.PerLayer
			}
			var out bytes.Buffer
			cfg := testConfig(t, w.name, trace)
			res, err := runOne(cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", w.name, trace, len(res.Metrics), len(declared))
			}
			for _, d := range declared {
				if !nameRE.MatchString(d.Name) {
					t.Errorf("metric name %q is malformed", d.Name)
				}
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: declared metric %s not reported", w.name, trace, d.Name)
					continue
				}
				if m.Unit != d.Unit || m.Unit == "" {
					t.Errorf("%s: unit %q reported, %q declared", d.Name, m.Unit, d.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s trace=%v: end-to-end metric %s is %v, want above 0", w.name, trace, d.Name, m.Value)
				}
				if n := strings.Count(out.String(), "\n  "+d.Name+" "); n != 1 {
					t.Errorf("%s trace=%v: metric %s printed %d times, want once", w.name, trace, d.Name, n)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: traced run left no trace file: %v", w.name, err)
				}
			}
		}
	}
}

// TestRoutesAgree is the drift check between the two assembly routes:
// the hand-wired route the traced run times layer by layer must return
// the same rows and end on bit-identical estimates as the public-API
// route users run, or its layer times describe some other query.
func TestRoutesAgree(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(config) (*tupleWorkload, error)
	}{
		{"pkfk_join", setupPKFKJoin},
		{"skew_pipeline", setupSkewPipeline},
	} {
		w, err := tc.setup(testConfig(t, tc.name, true))
		if err != nil {
			t.Fatal(err)
		}
		var buf []snap
		pub := w.runPublic(true, false, nil, &buf)
		hand := w.runHand(nil, nil)
		for _, p := range append(pub.problems, hand.problems...) {
			t.Errorf("%s: %s", tc.name, p)
		}
		if pub.rows != hand.rows || pub.rows != w.wantRows {
			t.Errorf("%s: public route %d rows, hand-wired %d, want %d", tc.name, pub.rows, hand.rows, w.wantRows)
		}
		if len(pub.ests) != len(hand.ests) {
			t.Fatalf("%s: %d operators on the public route, %d hand-wired", tc.name, len(pub.ests), len(hand.ests))
		}
		for i := range pub.ests {
			if pub.ests[i] != hand.ests[i] {
				t.Errorf("%s: operator %d ends at %+v on the public route, %+v hand-wired", tc.name, i, pub.ests[i], hand.ests[i])
			}
		}
	}
}

// TestSelfTime checks the span arithmetic: a span's self time is its
// duration minus what its direct children cover, overlaps counted once.
func TestSelfTime(t *testing.T) {
	tl := newTraceLog()
	at := func(ms int) time.Time { return tl.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tl.add(0, "bench", "root", at(0), at(100))
	a := tl.add(root, "exec", "a", at(10), at(40))
	tl.add(root, "exec", "b", at(30), at(60)) // overlaps a by 10 ms
	tl.add(a, "core", "c", at(15), at(25))
	tl.finish()
	want := map[string]float64{"root": 50e3, "a": 20e3, "b": 30e3, "c": 10e3}
	for _, s := range tl.spans {
		if s.Self != want[s.Name] {
			t.Errorf("span %s: self %v µs, want %v", s.Name, s.Self, want[s.Name])
		}
		if s.Root != root {
			t.Errorf("span %s: root %d, want %d", s.Name, s.Root, root)
		}
	}
	if got := tl.selfByRoot("root", "exec", "a"); len(got) != 1 || got[0] != 20e3 {
		t.Errorf("selfByRoot = %v, want [20000]", got)
	}
}

// TestFoldEvents checks that engine phase spans nest under the span open
// when they begin, and that scan spans are left out.
func TestFoldEvents(t *testing.T) {
	tl := newTraceLog()
	run := tl.add(0, "qpi", "run", tl.t0, tl.t0.Add(10*time.Millisecond))
	ev := func(kind qpi.TraceEventKind, op, phase string, ms int) qpi.TraceEvent {
		return qpi.TraceEvent{Kind: kind, Op: op, Phase: phase, Elapsed: time.Duration(ms) * time.Millisecond}
	}
	tl.foldEvents(run, tl.t0, []qpi.TraceEvent{
		ev(qpi.TraceSpanBegin, "HashJoin(a)", "probe", 1),
		ev(qpi.TraceSpanBegin, "Scan(t)", "scan", 1),
		ev(qpi.TraceSpanBegin, "HashJoin(b)", "build", 2),
		ev(qpi.TraceSpanEnd, "HashJoin(b)", "build", 3),
		ev(qpi.TraceSpanEnd, "Scan(t)", "scan", 4),
		ev(qpi.TraceSpanEnd, "HashJoin(a)", "probe", 5),
		ev(qpi.TraceSpanBegin, "HashJoin(a)", "join[0]", 5),
		ev(qpi.TraceSpanEnd, "HashJoin(a)", "join[0]", 9),
	})
	tl.finish()
	if len(tl.spans) != 4 {
		t.Fatalf("%d spans, want 4 (run, probe, build, join)", len(tl.spans))
	}
	probe, build, join := tl.spans[1], tl.spans[2], tl.spans[3]
	if probe.Name != "partition_probe" || probe.Parent != run || probe.Self != 3e3 {
		t.Errorf("probe span %+v", probe)
	}
	if build.Name != "partition_build" || build.Parent != probe.ID || build.Self != 1e3 {
		t.Errorf("build span %+v", build)
	}
	if join.Name != "join" || join.Parent != run || join.Self != 4e3 {
		t.Errorf("join span %+v", join)
	}
}

// TestSequence checks that the request order holds the mix exactly in
// every block of ten and repeats for a seed.
func TestSequence(t *testing.T) {
	a, b := newSequence(7), newSequence(7)
	other := newSequence(8)
	differs := false
	for block := 0; block < 50; block++ {
		var counts [numClasses]int
		for i := 0; i < 10; i++ {
			seqA, classA := a.take()
			_, classB := b.take()
			_, classO := other.take()
			if seqA != int64(block*10+i) || classA != classB {
				t.Fatalf("request %d: sequence does not repeat for a seed", seqA)
			}
			differs = differs || classA != classO
			counts[classA]++
		}
		if counts != [numClasses]int{6, 1, 2, 1} {
			t.Fatalf("block %d holds %v, want 6 cheap, 1 miss, 2 rows, 1 join", block, counts)
		}
	}
	if !differs {
		t.Error("two seeds gave the same request order")
	}
}

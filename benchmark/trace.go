package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"qpi"
)

// span is one timed interval of the benchmark's own trace: a root span
// per query or request, child spans around each call into a layer, and
// the engine's WithTrace phase spans folded in under the run span.
// Spans of one query share Root. Times are microseconds since the trace
// began.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Root   int     `json:"root"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Self   float64 `json:"self_us"` // filled by finish
	Tuples int64   `json:"tuples,omitempty"`
}

// traceLog keeps the spans in memory until the run ends. A nil
// *traceLog records nothing, so the untraced run pays one branch.
type traceLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTraceLog() *traceLog { return &traceLog{t0: time.Now()} }

// add records a span and returns its id (0 on a nil log). parent is 0
// for a root span.
func (t *traceLog) add(parent int, layer, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	root := id
	if parent != 0 {
		root = t.spans[parent-1].Root
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Root: root, Layer: layer, Name: name,
		Start: us(start.Sub(t.t0)), End: us(end.Sub(t.t0)),
	})
	return id
}

// lap records a child span from start until now and returns now, so
// consecutive calls into layers can be timed back to back.
func (t *traceLog) lap(parent int, layer, name string, start time.Time) time.Time {
	now := time.Now()
	t.add(parent, layer, name, start, now)
	return now
}

// end closes a span that was added before its end was known.
func (t *traceLog) end(id int, at time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = us(at.Sub(t.t0))
	t.mu.Unlock()
}

// phaseOfEvent names the exec span an engine trace event belongs to.
// Scan spans are left out: in a pull-based plan a scan's span covers the
// whole pass of the operator that drains it, so it cannot be a child
// whose time is subtracted (storage.scan_rows_per_s measures scans on
// their own).
func phaseOfEvent(e qpi.TraceEvent) (name string, ok bool) {
	switch {
	case strings.HasPrefix(e.Op, "Scan"):
		return "", false
	case e.Phase == "build" || e.Phase == "probe":
		return "partition_" + e.Phase, true
	case strings.HasPrefix(e.Phase, "join["):
		return "join", true
	case e.Phase == "input" || e.Phase == "emit" || e.Phase == "aggregate":
		return "aggregate", true
	}
	return e.Phase, true
}

// foldEvents turns a tracer's begin/end events into child spans of the
// run span. tracerStart is when the tracer was created (event times are
// relative to it). A span's parent is the innermost span still open
// when it begins, which is how phases nest in a pull-based plan.
func (t *traceLog) foldEvents(run int, tracerStart time.Time, events []qpi.TraceEvent) {
	if t == nil {
		return
	}
	type open struct {
		id        int
		op, phase string
	}
	var stack []open
	for _, e := range events {
		if e.Kind != qpi.TraceSpanBegin && e.Kind != qpi.TraceSpanEnd {
			continue
		}
		name, ok := phaseOfEvent(e)
		if !ok {
			continue
		}
		at := tracerStart.Add(e.Elapsed)
		if e.Kind == qpi.TraceSpanBegin {
			parent := run
			if len(stack) > 0 {
				parent = stack[len(stack)-1].id
			}
			id := t.add(parent, "exec", name, at, at)
			stack = append(stack, open{id, e.Op, e.Phase})
			continue
		}
		for i := len(stack) - 1; i >= 0; i-- {
			if stack[i].op == e.Op && stack[i].phase == e.Phase {
				t.end(stack[i].id, at)
				t.spans[stack[i].id-1].Tuples = e.Tuples
				stack = append(stack[:i], stack[i+1:]...)
				break
			}
		}
	}
}

// finish computes every span's self time: its duration minus the part
// of it that its direct children cover.
func (t *traceLog) finish() {
	if t == nil {
		return
	}
	children := map[int][]int{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]-1].Start < t.spans[kids[b]-1].Start })
		covered, upTo := 0.0, s.Start
		for _, k := range kids {
			lo, hi := t.spans[k-1].Start, t.spans[k-1].End
			if hi > s.End {
				hi = s.End
			}
			if lo < upTo {
				lo = upTo
			}
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		s.Self = (s.End - s.Start) - covered
	}
}

// selfByRoot sums, per root span, the self time (µs) of the spans with
// the given layer and name, and returns one sample per root that has
// at least one such span. rootName, unless empty, keeps only the roots
// of that name.
func (t *traceLog) selfByRoot(rootName, layer, name string) samples {
	if t == nil {
		return nil
	}
	sums := map[int]float64{}
	var order []int
	for _, s := range t.spans {
		if s.Layer != layer || s.Name != name || (rootName != "" && t.spans[s.Root-1].Name != rootName) {
			continue
		}
		if _, seen := sums[s.Root]; !seen {
			order = append(order, s.Root)
		}
		sums[s.Root] += s.Self
	}
	out := make(samples, 0, len(order))
	for _, r := range order {
		out.add(sums[r])
	}
	return out
}

// write stores the spans as benchmark/out/trace-<workload>.json.
func (t *traceLog) write(dir, workload string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), buf, 0o644)
}

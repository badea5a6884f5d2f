package progress

import (
	"qpi/internal/data"
	"qpi/internal/exec"
)

// Ticker calls a function about once every `every` units of work: rows
// flowing through scans, join phases and blocking input passes. Progress
// consumers use it to sample the monitor at evenly spaced points of
// actual work, on the execution goroutine, without a second one.
//
// Work is counted where the plan already hands it over, a span at a time:
// through the scan's batch hook, the hash join's OnBuildCol/OnProbeCol,
// a sort's input batches, a merge join's output batches, the hash
// aggregation's group-count spans and the caller's drain loop (Add, once
// per root batch). Those are the points where no operator is midway
// through a batch — Emitted, probe rows read and probe rows joined all
// describe the same instant — so a snapshot taken there never sees a
// join that has consumed probe rows it has not yet emitted for. A batch
// is published at most once on its way up the plan.
type Ticker struct {
	every int64
	f     func()
	work  int64
	next  int64
}

// NewTicker creates a ticker calling f every `every` units of work
// (values below 1 mean 1). Install it on a plan before execution.
func NewTicker(every int64, f func()) *Ticker {
	if every < 1 {
		every = 1
	}
	return &Ticker{every: every, f: f, next: every}
}

// Add counts n units of work and publishes if a multiple of the interval
// was crossed. Whoever drains the root calls it once per output batch;
// the installed hooks call it for everything below.
func (t *Ticker) Add(n int64) {
	t.work += n
	t.publish()
}

func (t *Ticker) publish() {
	if t.work >= t.next {
		t.next = t.work - t.work%t.every + t.every
		t.f()
	}
}

// scanBatch counts one batch leaving a scan. The operator that
// consumes the batch publishes it an instant later, so the scan publishes
// only what the previous batch left behind — which is the whole of it when
// a filter dropped every row and no consumer ever saw it.
func (t *Ticker) scanBatch(prev func(int)) func(int) {
	return func(rows int) {
		if prev != nil {
			prev(rows)
		}
		t.publish()
		t.work += int64(rows)
	}
}

func (t *Ticker) span(prev func(*data.ColBatch)) func(*data.ColBatch) {
	return func(cb *data.ColBatch) {
		if prev != nil {
			prev(cb)
		}
		t.Add(int64(cb.Live()))
	}
}

// Install hooks the ticker into every operator of the plan. Whoever
// drains the root reports each of its batches with Add.
func (t *Ticker) Install(root exec.Operator) {
	exec.Walk(root, func(op exec.Operator) {
		switch o := op.(type) {
		case *exec.Scan:
			o.OnBatch = t.scanBatch(o.OnBatch)
		case *exec.HashJoin:
			o.OnBuildCol = t.span(o.OnBuildCol)
			o.OnProbeCol = t.span(o.OnProbeCol)
		case *exec.MergeJoin:
			o.OnOutputCol = t.span(o.OnOutputCol)
		case *exec.Sort:
			o.OnInputCol = t.span(o.OnInputCol)
		case *exec.HashAgg:
			prev := o.OnInputGroupCounts
			o.OnInputGroupCounts = func(ns []int64) {
				if prev != nil {
					prev(ns)
				}
				t.Add(int64(len(ns)))
			}
		}
	})
}

// InstallTicker arranges for f to be called once every `every` units of
// work of the plan below its root: NewTicker + Install, for a plan drained
// by exec.Run, which reports no root batch.
func InstallTicker(root exec.Operator, every int64, f func()) {
	NewTicker(every, f).Install(root)
}

package progress

import (
	"qpi/internal/data"
	"qpi/internal/exec"
)

// Ticker calls a function about once every `every` units of work: tuples
// flowing through scans, join phases and blocking input passes. Progress
// consumers use it to sample the monitor at evenly spaced points of
// actual work, on the execution goroutine, without a second one.
//
// Work is counted where the plan already hands it over. An operator
// pulled tuple-at-a-time is counted, and may publish, at every tuple: its
// counters move one tuple at a time, so every tuple is a consistent point.
// An operator pulled column-at-a-time is counted a span at a time, through
// the scan's batch hook, the hash join's OnBuildCol/OnProbeCol, the hash
// aggregation's group-count spans and the caller's drain loop (Add). Those
// are the points where no operator is midway through a batch — Emitted,
// probe rows read and probe rows joined all describe the same instant — so
// a snapshot taken there never sees a join that has consumed probe rows it
// has not yet emitted for. No per-tuple hook goes on such an operator: one
// would send it back to materializing rows. A batch is published at most
// once on its way up the plan; only a sort's input pass, which builds its
// rows anyway, still counts them one by one.
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
// was crossed. Whoever drains a columnar root calls it once per output
// batch; the installed hooks call it for everything below.
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

// scanBatch counts one batch leaving a columnar scan. The operator that
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

func (t *Ticker) tuple(prev func(data.Tuple)) func(data.Tuple) {
	return func(tu data.Tuple) {
		if prev != nil {
			prev(tu)
		}
		t.Add(1)
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

// Install hooks the ticker into every operator of the plan. columnar says
// how the root will be drained: through exec.AsColOperator (the caller
// then reports each output batch with Add) or through Next.
func (t *Ticker) Install(root exec.Operator, columnar bool) {
	exec.WalkColumnar(root, columnar, func(op exec.Operator, columnar bool) {
		switch o := op.(type) {
		case *exec.Scan:
			if columnar {
				o.OnBatch = t.scanBatch(o.OnBatch)
			} else {
				o.OnTuple = t.tuple(o.OnTuple)
			}
		case *exec.HashJoin:
			if o.Columnar() {
				o.OnBuildCol = t.span(o.OnBuildCol)
				o.OnProbeCol = t.span(o.OnProbeCol)
			} else {
				o.OnBuildTuple = t.tuple(o.OnBuildTuple)
				o.OnProbeTuple = t.tuple(o.OnProbeTuple)
			}
			if !columnar {
				// Pulled through Next, the join emits (and counts) row by
				// row; pulled columnar, its output is counted by whoever
				// consumes the batch.
				o.OnOutput = t.tuple(o.OnOutput)
			}
		case *exec.MergeJoin:
			o.OnOutput = t.tuple(o.OnOutput)
		case *exec.Sort:
			o.OnInput = t.tuple(o.OnInput)
		case *exec.HashAgg:
			if columnar {
				prev := o.OnInputGroupCounts
				o.OnInputGroupCounts = func(ns []int64) {
					if prev != nil {
						prev(ns)
					}
					t.Add(int64(len(ns)))
				}
			} else {
				o.OnInput = t.tuple(o.OnInput)
			}
		}
	})
}

// InstallTicker arranges for f to be called once every `every` units of
// work on a plan drained through Next (exec.Run): NewTicker + Install.
// Operators the plan itself pulls column-at-a-time (the inputs of a
// columnar hash join) are still counted per span.
func InstallTicker(root exec.Operator, every int64, f func()) {
	NewTicker(every, f).Install(root, false)
}

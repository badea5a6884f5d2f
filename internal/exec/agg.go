package exec

import (
	"fmt"
	"sort"

	"qpi/internal/data"
	"qpi/internal/hashtab"
)

// AggFunc enumerates the supported aggregate functions.
type AggFunc uint8

// Aggregate functions.
const (
	CountStar AggFunc = iota
	Count
	Sum
	Min
	Max
	Avg
)

func (f AggFunc) String() string {
	switch f {
	case CountStar:
		return "COUNT(*)"
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	default:
		return "AVG"
	}
}

// AggSpec requests one aggregate over an input column (Col ignored for
// COUNT(*)).
type AggSpec struct {
	Func AggFunc
	Col  int
	Name string
}

// aggState accumulates one aggregate for one group.
type aggState struct {
	count int64
	sum   float64
	min   data.Value
	max   data.Value
}

func (s *aggState) add(f AggFunc, v data.Value) {
	if f == CountStar {
		s.count++
		return
	}
	if v.IsNull() {
		return
	}
	s.count++
	s.sum += v.AsFloat()
	if s.min.IsNull() || data.Compare(v, s.min) < 0 {
		s.min = v
	}
	if s.max.IsNull() || data.Compare(v, s.max) > 0 {
		s.max = v
	}
}

func (s *aggState) result(f AggFunc) data.Value {
	switch f {
	case CountStar, Count:
		return data.Int(s.count)
	case Sum:
		if s.count == 0 {
			return data.Null()
		}
		return data.Float(s.sum)
	case Min:
		return s.min
	case Max:
		return s.max
	default: // Avg
		if s.count == 0 {
			return data.Null()
		}
		return data.Float(s.sum / float64(s.count))
	}
}

// aggSchema builds the output schema of a grouping operator.
func aggSchema(in *data.Schema, groupBy []int, aggs []AggSpec) *data.Schema {
	cols := make([]data.Column, 0, len(groupBy)+len(aggs))
	for _, g := range groupBy {
		cols = append(cols, in.Cols[g])
	}
	for _, a := range aggs {
		kind := data.KindFloat
		if a.Func == Count || a.Func == CountStar {
			kind = data.KindInt
		} else if a.Func == Min || a.Func == Max {
			kind = in.Cols[a.Col].Kind
		}
		name := a.Name
		if name == "" {
			name = a.Func.String()
		}
		cols = append(cols, data.Column{Name: name, Kind: kind})
	}
	return data.NewSchema(cols...)
}

// GroupKey builds a comparable key for a group (single-column groups use
// the value directly; multi-column groups concatenate string renderings,
// which is slower but correct). It is exported for the estimation
// framework, which must group exactly the way the operators do.
func GroupKey(t data.Tuple, groupBy []int) data.Value {
	if len(groupBy) == 1 {
		return t[groupBy[0]]
	}
	key := ""
	for i, g := range groupBy {
		if i > 0 {
			key += "\x00"
		}
		key += t[g].String()
	}
	return data.Str(key)
}

// HashAgg implements hash-based grouping: the input is fully read and
// partitioned by group key (firing OnInput per tuple — where the distinct-
// value estimators attach), then groups are computed and emitted.
type HashAgg struct {
	base
	child   Operator
	groupBy []int
	aggs    []AggSpec
	label   string // rendered at construction: Prune rebinds groupBy, not labels

	// OnInput fires for every input tuple during the blocking read.
	OnInput func(data.Tuple)
	// OnInputGroupCount fires for every input tuple with the tuple's
	// group's new observation count — n=1 means a new group. It rides the
	// group lookup the aggregation performs anyway, so distinct-value
	// estimators can update without any hashing of their own (the paper's
	// "interleaved with the actual partitioning to keep overheads low").
	OnInputGroupCount func(n int64)
	// OnInputEnd fires when the input is exhausted.
	OnInputEnd func()
	// OnInputGroupCounts is the span-at-a-time form of OnInputGroupCount:
	// during a columnar input pass the per-row counts of one batch are
	// collected and delivered in a single call at the batch boundary,
	// suppressing the per-row hook for those rows. Row-at-a-time passes
	// ignore it. Consumers must process the span in order to stay
	// state-identical with the per-row hook (see
	// core.AggEstimator.ObserveGroupCounts).
	OnInputGroupCounts func(ns []int64)

	// Integer group keys — the dominant case — live in an open-addressing
	// table; everything else shares a Value-keyed map. order preserves
	// first-seen emission order across both.
	intGroups hashtab.I64Map[*groupState]
	groups    map[data.Value]*groupState
	order     []*groupState
	pos       int
	computed  bool
	inputRows int64
	buf       data.Batch
	spanEnded bool

	// Columnar input state: colBuf re-exposes emitted group batches,
	// countsBuf accumulates one batch's group counts for the span hook,
	// collectCounts suppresses the per-row count hook while a span is
	// being collected.
	colBuf        data.ColBatch
	countsBuf     []int64
	collectCounts bool
}

// endEmitSpan closes the emit span exactly once, when all groups are out.
func (a *HashAgg) endEmitSpan() {
	if !a.spanEnded {
		a.spanEnded = true
		a.traceEnd("emit", a.stats.Emitted.Load(), 0, 0)
	}
}

// groupState is one group's accumulators plus its observation count. The
// accumulators are stored inline (one backing array per group, not one
// allocation per aggregate). A single-column group keeps its key; only a
// multi-column group keeps a representative row for its group columns.
type groupState struct {
	states []aggState
	key    data.Value
	repr   data.Tuple
	n      int64
}

// NewHashAgg groups child by the groupBy column indexes and computes aggs.
func NewHashAgg(child Operator, groupBy []int, aggs []AggSpec) *HashAgg {
	a := &HashAgg{child: child, groupBy: groupBy, aggs: aggs, label: fmt.Sprintf("HashAgg(%v)", groupBy)}
	a.schema = aggSchema(child.Schema(), groupBy, aggs)
	return a
}

// Name implements Operator.
func (a *HashAgg) Name() string { return a.label }

// Children implements Operator.
func (a *HashAgg) Children() []Operator { return []Operator{a.child} }

// GroupBy returns the grouping column indexes.
func (a *HashAgg) GroupBy() []int { return a.groupBy }

// Child returns the input operator.
func (a *HashAgg) Child() Operator { return a.child }

// Open implements Operator.
func (a *HashAgg) Open() error { return a.child.Open() }

// Next implements Operator.
func (a *HashAgg) Next() (data.Tuple, error) {
	if !a.computed {
		if err := a.consume(); err != nil {
			return nil, err
		}
	}
	if a.pos >= len(a.order) {
		a.endEmitSpan()
		return a.finish()
	}
	gs := a.order[a.pos]
	a.pos++
	return a.emit(a.groupTuple(gs))
}

func (a *HashAgg) consume() error {
	a.initGroups()
	a.traceBegin("input")
	for {
		if err := a.pollCtx(); err != nil {
			return err
		}
		t, err := a.child.Next()
		if err != nil {
			return err
		}
		if t == nil {
			break
		}
		a.observe(t)
	}
	a.traceEnd("input", a.inputRows, 0, 0)
	a.traceBegin("emit")
	if a.OnInputEnd != nil {
		a.OnInputEnd()
	}
	a.computed = true
	return nil
}

// consumeColumnar is consume driven through the child's columnar path.
// Without a per-row input hook, a scalar aggregate and a single-column
// group run off the lanes (see observeColBatch); otherwise each live row
// is observed exactly as in the tuple pass. Group-count observations are
// delivered span-at-a-time through OnInputGroupCounts when set; the
// span preserves row order so consumers stay state-identical with the
// per-row hook.
func (a *HashAgg) consumeColumnar() error {
	a.initGroups()
	a.traceBegin("input")
	in := AsColOperator(a.child)
	for {
		if err := a.ctxErr(); err != nil {
			return err
		}
		cb, err := in.NextColBatch()
		if err != nil {
			return err
		}
		if cb == nil {
			break
		}
		a.collectCounts = a.OnInputGroupCounts != nil
		a.countsBuf = a.countsBuf[:0]
		a.observeColBatch(cb)
		if a.collectCounts {
			a.collectCounts = false
			a.OnInputGroupCounts(a.countsBuf)
		}
	}
	a.traceEnd("input", a.inputRows, 0, 0)
	a.traceBegin("emit")
	if a.OnInputEnd != nil {
		a.OnInputEnd()
	}
	a.computed = true
	return nil
}

// observeColBatch folds one columnar input batch into the groups. Without
// a per-row input hook, a scalar aggregate and a single-column group read
// their lanes and build no rows; everything else observes each live row
// as the tuple pass does.
func (a *HashAgg) observeColBatch(cb *data.ColBatch) {
	if a.OnInput == nil {
		switch len(a.groupBy) {
		case 0:
			a.observeScalar(cb)
			return
		case 1:
			a.observeKeyVector(cb, cb.Col(a.groupBy[0]))
			return
		}
	}
	rows := cb.MaterializeRows()
	if cb.Sel == nil {
		for i := 0; i < cb.NRows; i++ {
			a.observe(rows[i])
		}
		return
	}
	for _, i := range cb.Sel {
		a.observe(rows[i])
	}
}

// observeKeyVector is the grouping loop over a single key column: a flat
// int64 lane indexes the open-addressing table straight from the lane,
// any other column goes through its values, and a new group keeps its key
// rather than a row. State, hook order and group emission order are
// identical to per-row observe.
func (a *HashAgg) observeKeyVector(cb *data.ColBatch, kv *data.ColVec) {
	flat := kv.Homogeneous() && kv.Kind == data.KindInt
	observeRow := func(i int) {
		a.inputRows++
		var gs *groupState
		if flat && !kv.Nulls.Get(i) {
			p := a.intGroups.Ref(kv.Ints[i])
			if *p == nil {
				*p = a.newGroup(data.Int(kv.Ints[i]), nil)
			}
			gs = *p
		} else {
			gs = a.groupOf(kv.ValueAt(i), nil)
		}
		a.count(gs)
		for si, spec := range a.aggs {
			var v data.Value
			if spec.Func != CountStar {
				v = cb.Value(spec.Col, i)
			}
			gs.states[si].add(spec.Func, v)
		}
	}
	if cb.Sel == nil {
		for i := 0; i < cb.NRows; i++ {
			observeRow(i)
		}
		return
	}
	for _, i := range cb.Sel {
		observeRow(int(i))
	}
}

// observeScalar folds one batch into the single group of an aggregate
// without GROUP BY: the group counts the batch's live rows and each
// aggregate column folds straight off its lane in row order — the per-row
// pass's state and hook sequence, and no rows.
func (a *HashAgg) observeScalar(cb *data.ColBatch) {
	live := cb.Live()
	if live == 0 {
		return
	}
	gs := a.groupOf(GroupKey(nil, nil), nil)
	for r := 0; r < live; r++ {
		a.inputRows++
		a.count(gs)
	}
	for si, spec := range a.aggs {
		st := &gs.states[si]
		if spec.Func == CountStar {
			st.count += int64(live)
			continue
		}
		v := cb.Col(spec.Col)
		if cb.Sel == nil {
			for i := 0; i < cb.NRows; i++ {
				st.add(spec.Func, v.ValueAt(i))
			}
			continue
		}
		for _, i := range cb.Sel {
			st.add(spec.Func, v.ValueAt(int(i)))
		}
	}
}

func (a *HashAgg) initGroups() {
	a.intGroups.Reset()
	a.groups = map[data.Value]*groupState{}
}

// groupOf returns key k's group, creating it in first-seen order; t is the
// row a new multi-column group takes its group columns from.
func (a *HashAgg) groupOf(k data.Value, t data.Tuple) *groupState {
	if k.Kind == data.KindInt {
		p := a.intGroups.Ref(k.I)
		if *p == nil {
			*p = a.newGroup(k, t)
		}
		return *p
	}
	gs, ok := a.groups[k]
	if !ok {
		gs = a.newGroup(k, t)
		a.groups[k] = gs
	}
	return gs
}

func (a *HashAgg) newGroup(k data.Value, t data.Tuple) *groupState {
	gs := &groupState{states: make([]aggState, len(a.aggs)), key: k}
	if len(a.groupBy) > 1 {
		gs.repr = t
	}
	a.order = append(a.order, gs)
	return gs
}

// count records one more row of gs and fires the group-count hook.
func (a *HashAgg) count(gs *groupState) {
	gs.n++
	if a.collectCounts {
		a.countsBuf = append(a.countsBuf, gs.n)
	} else if a.OnInputGroupCount != nil {
		a.OnInputGroupCount(gs.n)
	}
}

// observe folds one input tuple into its group, firing the input hooks.
func (a *HashAgg) observe(t data.Tuple) {
	a.inputRows++
	if a.OnInput != nil {
		a.OnInput(t)
	}
	gs := a.groupOf(GroupKey(t, a.groupBy), t)
	a.count(gs)
	for i, spec := range a.aggs {
		var v data.Value
		if spec.Func != CountStar {
			v = t[spec.Col]
		}
		gs.states[i].add(spec.Func, v)
	}
}

// GroupsSeen returns the number of distinct groups observed so far during
// the input pass.
func (a *HashAgg) GroupsSeen() int64 { return int64(a.intGroups.Len() + len(a.groups)) }

func (a *HashAgg) groupTuple(gs *groupState) data.Tuple {
	out := make(data.Tuple, 0, len(a.groupBy)+len(a.aggs))
	if len(a.groupBy) == 1 {
		out = append(out, gs.key)
	} else {
		for _, g := range a.groupBy {
			out = append(out, gs.repr[g])
		}
	}
	for i, spec := range a.aggs {
		out = append(out, gs.states[i].result(spec.Func))
	}
	return out
}

// InputRows returns the number of input tuples consumed.
func (a *HashAgg) InputRows() int64 { return a.inputRows }

// Close implements Operator.
func (a *HashAgg) Close() error {
	a.intGroups = hashtab.I64Map[*groupState]{}
	a.groups, a.order = nil, nil
	return a.child.Close()
}

// SortAgg implements sort-based grouping: the input is sorted on the group
// key (a blocking pass firing OnInput per tuple), then adjacent runs are
// aggregated.
type SortAgg struct {
	base
	child   Operator
	sorter  *Sort
	groupBy []int
	aggs    []AggSpec
	label   string

	cur     data.Tuple // first tuple of the pending group
	started bool
	done    bool
}

// NewSortAgg groups child by the groupBy column indexes using sorting.
func NewSortAgg(child Operator, groupBy []int, aggs []AggSpec) *SortAgg {
	a := &SortAgg{
		child:   child,
		sorter:  NewSort(child, groupBy...),
		groupBy: groupBy,
		aggs:    aggs,
		label:   fmt.Sprintf("SortAgg(%v)", groupBy),
	}
	a.schema = aggSchema(child.Schema(), groupBy, aggs)
	return a
}

// Sorter exposes the internal sort for estimator attachment.
func (a *SortAgg) Sorter() *Sort { return a.sorter }

// GroupBy returns the grouping column indexes.
func (a *SortAgg) GroupBy() []int { return a.groupBy }

// Name implements Operator.
func (a *SortAgg) Name() string { return a.label }

// Children implements Operator. The internal sort is part of the visible
// plan tree so that its getnext() counts reach the progress monitor.
func (a *SortAgg) Children() []Operator { return []Operator{a.sorter} }

// Open implements Operator.
func (a *SortAgg) Open() error { return a.sorter.Open() }

// Next implements Operator.
func (a *SortAgg) Next() (data.Tuple, error) {
	if a.done {
		return a.finish()
	}
	if !a.started {
		a.traceBegin("aggregate")
		t, err := a.sorter.Next()
		if err != nil {
			return nil, err
		}
		a.cur = t
		a.started = true
	}
	if a.cur == nil {
		a.done = true
		a.traceEnd("aggregate", a.stats.Emitted.Load(), 0, 0)
		return a.finish()
	}
	states := make([]aggState, len(a.aggs))
	groupRepr := a.cur
	key := GroupKey(a.cur, a.groupBy)
	for a.cur != nil && data.Compare(GroupKey(a.cur, a.groupBy), key) == 0 {
		for i, spec := range a.aggs {
			var v data.Value
			if spec.Func != CountStar {
				v = a.cur[spec.Col]
			}
			states[i].add(spec.Func, v)
		}
		t, err := a.sorter.Next()
		if err != nil {
			return nil, err
		}
		a.cur = t
	}
	out := make(data.Tuple, 0, len(a.groupBy)+len(a.aggs))
	for _, g := range a.groupBy {
		out = append(out, groupRepr[g])
	}
	for i, spec := range a.aggs {
		out = append(out, states[i].result(spec.Func))
	}
	return a.emit(out)
}

// Close implements Operator.
func (a *SortAgg) Close() error { return a.sorter.Close() }

// SortTuplesByKey sorts tuples in place by the given key columns; shared
// helper for tests.
func SortTuplesByKey(rows []data.Tuple, keys ...int) {
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range keys {
			if c := data.Compare(rows[i][k], rows[j][k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}

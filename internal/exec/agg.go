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

// GroupKey builds a comparable key for a group: a single-column group's
// value itself, or for several columns (or none) their values' tuple wire
// encodings concatenated (data.AppendValue) — kind tags and length
// prefixes keep the components apart, so two composite keys are equal
// exactly when their components are. It is exported for the estimation
// framework, which must group exactly the way the operators do.
func GroupKey(t data.Tuple, groupBy []int) data.Value {
	if len(groupBy) == 1 {
		return t[groupBy[0]]
	}
	var key []byte
	for _, g := range groupBy {
		key, _ = data.AppendValue(key, t[g])
	}
	return data.Str(string(key))
}

// HashAgg implements hash-based grouping: the input is fully read
// column-at-a-time and partitioned by group key (reporting each row's
// group count through OnInputGroupCounts — where the distinct-value
// estimators attach), then groups are computed and emitted.
type HashAgg struct {
	base
	child   Operator
	groupBy []int
	aggs    []AggSpec
	label   string // rendered at construction: Prune rebinds groupBy, not labels

	// OnInputGroupCounts fires once per input batch with the new
	// observation count of each live row's group, in row order — n=1 means
	// a new group. It rides the group lookup the aggregation performs
	// anyway, so distinct-value estimators can update without any hashing
	// of their own (the paper's "interleaved with the actual partitioning
	// to keep overheads low"; see core.AggEstimator.ObserveGroupCounts).
	OnInputGroupCounts func(ns []int64)
	// OnInputEnd fires when the input is exhausted.
	OnInputEnd func()

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

	// colBuf re-exposes emitted group batches, countsBuf accumulates one
	// batch's group counts for OnInputGroupCounts, keyRow is the scratch
	// row a multi-column group key is read into off the lanes.
	colBuf    data.ColBatch
	countsBuf []int64
	keyRow    data.Tuple
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
// allocation per aggregate). A single-column group keeps its key; a
// multi-column group keeps its group values.
type groupState struct {
	states []aggState
	key    data.Value
	vals   data.Tuple
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

// consume is the input pass: it drains the child column-at-a-time and
// folds every batch into the groups (see observeColBatch), delivering the
// batch's group counts to OnInputGroupCounts at the batch boundary.
func (a *HashAgg) consume() error {
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
		a.countsBuf = a.countsBuf[:0]
		a.observeColBatch(cb)
		if a.OnInputGroupCounts != nil {
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

// observeColBatch folds one input batch into the groups off its lanes: a
// scalar aggregate and a single-column group have their own loops, a
// multi-column group reads its key values into a scratch row. No input
// row is built.
func (a *HashAgg) observeColBatch(cb *data.ColBatch) {
	switch len(a.groupBy) {
	case 0:
		a.observeScalar(cb)
	case 1:
		a.observeKeyVector(cb, cb.Col(a.groupBy[0]))
	default:
		a.observeGroupColumns(cb)
	}
}

// observeKeyVector is the grouping loop over a single key column: a flat
// int64 lane indexes the open-addressing table straight from the lane,
// any other column goes through its values, and a new group keeps its key
// rather than a row.
func (a *HashAgg) observeKeyVector(cb *data.ColBatch, kv *data.ColVec) {
	flat := kv.Homogeneous() && kv.Kind == data.KindInt
	observeRow := func(i int) {
		a.inputRows++
		var gs *groupState
		if flat && !kv.Nulls.Get(i) {
			p := a.intGroups.Ref(kv.Ints[i])
			if *p == nil {
				*p = a.newGroup(data.Int(kv.Ints[i]))
			}
			gs = *p
		} else {
			gs = a.groupOf(kv.ValueAt(i))
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

// observeGroupColumns is the grouping loop over several key columns: each
// row's key values are read off the lanes into the scratch row keyRow and
// keyed with GroupKey; a new group keeps a copy of its group values.
func (a *HashAgg) observeGroupColumns(cb *data.ColBatch) {
	if len(a.keyRow) != cb.Width() {
		a.keyRow = make(data.Tuple, cb.Width())
	}
	observeRow := func(i int) {
		a.inputRows++
		for _, g := range a.groupBy {
			a.keyRow[g] = cb.Value(g, i)
		}
		gs := a.groupOf(GroupKey(a.keyRow, a.groupBy))
		if gs.n == 0 {
			gs.vals = a.keyRow.Project(a.groupBy)
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
// aggregate column folds straight off its lane in row order.
func (a *HashAgg) observeScalar(cb *data.ColBatch) {
	live := cb.Live()
	if live == 0 {
		return
	}
	gs := a.groupOf(GroupKey(nil, nil))
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

// groupOf returns key k's group, creating it in first-seen order.
func (a *HashAgg) groupOf(k data.Value) *groupState {
	if k.Kind == data.KindInt {
		p := a.intGroups.Ref(k.I)
		if *p == nil {
			*p = a.newGroup(k)
		}
		return *p
	}
	gs, ok := a.groups[k]
	if !ok {
		gs = a.newGroup(k)
		a.groups[k] = gs
	}
	return gs
}

func (a *HashAgg) newGroup(k data.Value) *groupState {
	gs := &groupState{states: make([]aggState, len(a.aggs)), key: k}
	a.order = append(a.order, gs)
	return gs
}

// count records one more row of gs for the group-count span.
func (a *HashAgg) count(gs *groupState) {
	gs.n++
	if a.OnInputGroupCounts != nil {
		a.countsBuf = append(a.countsBuf, gs.n)
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
		out = append(out, gs.vals...)
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

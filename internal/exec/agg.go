package exec

import (
	"fmt"

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

// grown returns s one zero entry longer. A full s doubles its capacity:
// append grows a long slice by only a quarter, re-copying the per-group
// slices several times more.
func grown[T any](s []T) []T {
	if len(s) == cap(s) {
		s = append(make([]T, 0, max(2*cap(s), 16)), s...)
	}
	var zero T
	return append(s, zero)
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

// GroupKeyAt is GroupKey evaluated for row i of cb; buf is scratch the
// composite encoding is built in.
func GroupKeyAt(cb *data.ColBatch, groupBy []int, i int, buf *[]byte) data.Value {
	if len(groupBy) == 1 {
		return cb.Value(groupBy[0], i)
	}
	key := (*buf)[:0]
	for _, g := range groupBy {
		key, _ = data.AppendValue(key, cb.Value(g, i))
	}
	*buf = key
	return data.Str(string(key))
}

// HashAgg implements hash-based grouping: the input is fully read
// column-at-a-time and partitioned by group key (reporting each row's
// group count through OnInputGroupCounts — where the distinct-value
// estimators attach), then groups are computed and emitted.
//
// A group is a row index into lanes the operator owns: the first
// len(groupBy) lanes hold the group values, gathered off each input batch
// from the rows that opened a group, and one lane per aggregate follows,
// written when the input ends. The groups leave in first-seen order as
// windows of those lanes.
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

	// Integer group keys — the dominant case — index an open-addressing
	// table (holding group index + 1, so 0 is absent); everything else
	// shares a Value-keyed map. ns holds each group's row count, which is
	// COUNT(*); states each other aggregate's accumulators by group.
	intGroups hashtab.I64Map[int32]
	groups    map[data.Value]int32
	ns        []int64
	states    [][]aggState
	lanes     []data.ColVec
	pos       int
	computed  bool
	inputRows int64
	spanEnded bool

	// colBuf is the emitted window, countsBuf accumulates one batch's group
	// counts for OnInputGroupCounts, opened the batch's rows that opened a
	// group, keyBuf a composite group key's encoding.
	colBuf    data.ColBatch
	countsBuf []int64
	opened    []int32
	keyBuf    []byte
}

// endEmitSpan closes the emit span exactly once, when all groups are out.
func (a *HashAgg) endEmitSpan() {
	if !a.spanEnded {
		a.spanEnded = true
		a.traceEnd("emit", a.stats.Emitted.Load(), 0, 0)
	}
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

// NextColBatch implements Operator: after the input pass (consume), the
// groups leave a batch at a time as windows of the operator's group lanes
// — nothing is copied.
func (a *HashAgg) NextColBatch() (*data.ColBatch, error) {
	if !a.computed {
		if err := a.consume(); err != nil {
			return nil, err
		}
	}
	if a.pos >= len(a.ns) {
		a.stats.MarkDone()
		a.endEmitSpan()
		return nil, nil
	}
	hi := min(a.pos+data.BatchSize(), len(a.ns))
	a.colBuf.SetWindow(a.lanes, a.pos, hi)
	a.pos = hi
	return a.emitColBatch(&a.colBuf)
}

// consume is the input pass: it drains the child column-at-a-time and
// folds every batch into the groups (see observeColBatch), delivering the
// batch's group counts to OnInputGroupCounts at the batch boundary, then
// writes the aggregate lanes.
func (a *HashAgg) consume() error {
	a.initGroups()
	a.traceBegin("input")
	for {
		if err := a.ctxErr(); err != nil {
			return err
		}
		cb, err := a.child.NextColBatch()
		if err != nil {
			return err
		}
		if cb == nil {
			break
		}
		a.observeColBatch(cb)
		if a.OnInputGroupCounts != nil {
			a.OnInputGroupCounts(a.countsBuf)
		}
	}
	for k, spec := range a.aggs {
		lane := &a.lanes[len(a.groupBy)+k]
		if spec.Func == CountStar {
			*lane = data.ColVec{Kind: data.KindInt, Ints: a.ns}
			continue
		}
		for g := range a.states[k] {
			lane.AppendVal(g, a.states[k][g].result(spec.Func))
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

// initGroups sets up the group store. An aggregate without GROUP BY has
// its one group from the start: SQL gives it a row even over no input.
func (a *HashAgg) initGroups() {
	a.groups = map[data.Value]int32{}
	a.states = make([][]aggState, len(a.aggs))
	a.lanes = make([]data.ColVec, len(a.groupBy)+len(a.aggs))
	if len(a.groupBy) == 0 {
		a.open(0)
	}
}

// observeColBatch folds one input batch into the groups off its lanes: a
// scalar aggregate and a single-column group have their own loops, a
// multi-column group encodes its key values. The key values of the groups
// the batch opened are then gathered into the group lanes, one gather per
// key column. No row is built.
func (a *HashAgg) observeColBatch(cb *data.ColBatch) {
	a.countsBuf, a.opened = a.countsBuf[:0], a.opened[:0]
	a.inputRows += int64(cb.Live())
	base := len(a.ns)
	switch len(a.groupBy) {
	case 0:
		a.observeScalar(cb)
		return
	case 1:
		a.observeKeyVector(cb, cb.Col(a.groupBy[0]))
	default:
		a.observeGroupColumns(cb)
	}
	for k, c := range a.groupBy {
		a.lanes[k].GatherFrom(cb.Col(c), a.opened, base)
	}
}

// observeKeyVector is the grouping loop over a single key column: a flat
// int64 lane indexes the open-addressing table straight from the lane,
// any other column goes through its values.
func (a *HashAgg) observeKeyVector(cb *data.ColBatch, kv *data.ColVec) {
	flat := kv.Homogeneous() && kv.Kind == data.KindInt
	cb.EachLive(func(i int) {
		if flat && !kv.Nulls.Get(i) {
			a.add(cb, a.intGroup(kv.Ints[i], i), i)
		} else {
			a.add(cb, a.groupOf(kv.ValueAt(i), i), i)
		}
	})
}

// observeGroupColumns is the grouping loop over several key columns: each
// row's key is its key values' GroupKey encoding, built into keyBuf.
func (a *HashAgg) observeGroupColumns(cb *data.ColBatch) {
	cb.EachLive(func(i int) {
		a.add(cb, a.groupOf(GroupKeyAt(cb, a.groupBy, i, &a.keyBuf), i), i)
	})
}

// observeScalar folds one batch into the single group of an aggregate
// without GROUP BY: the group counts the batch's live rows and each
// aggregate column folds straight off its lane in row order.
func (a *HashAgg) observeScalar(cb *data.ColBatch) {
	live := int64(cb.Live())
	if a.OnInputGroupCounts != nil {
		for n := a.ns[0] + 1; n <= a.ns[0]+live; n++ {
			a.countsBuf = append(a.countsBuf, n)
		}
	}
	a.ns[0] += live
	for k, spec := range a.aggs {
		if spec.Func != CountStar {
			st, v := &a.states[k][0], cb.Col(spec.Col)
			cb.EachLive(func(i int) { st.add(spec.Func, v.ValueAt(i)) })
		}
	}
}

// add folds input row i into group g.
func (a *HashAgg) add(cb *data.ColBatch, g int32, i int) {
	a.ns[g]++
	if a.OnInputGroupCounts != nil {
		a.countsBuf = append(a.countsBuf, a.ns[g])
	}
	for k, spec := range a.aggs {
		if spec.Func != CountStar {
			a.states[k][g].add(spec.Func, cb.Value(spec.Col, i))
		}
	}
}

// intGroup returns integer key k's group, opening it at row i if new.
func (a *HashAgg) intGroup(k int64, i int) int32 {
	p := a.intGroups.Ref(k)
	if *p == 0 {
		*p = a.open(i) + 1
	}
	return *p - 1
}

// groupOf returns key k's group, opening it at row i if new.
func (a *HashAgg) groupOf(k data.Value, i int) int32 {
	if k.Kind == data.KindInt {
		return a.intGroup(k.I, i)
	}
	g, ok := a.groups[k]
	if !ok {
		g = a.open(i)
		a.groups[k] = g
	}
	return g
}

// open starts a group at row i of the current batch and returns its index.
func (a *HashAgg) open(i int) int32 {
	g := int32(len(a.ns))
	a.ns = grown(a.ns)
	for k, spec := range a.aggs {
		if spec.Func != CountStar {
			a.states[k] = grown(a.states[k])
		}
	}
	a.opened = append(a.opened, int32(i))
	return g
}

// GroupsSeen returns the number of distinct groups observed so far during
// the input pass.
func (a *HashAgg) GroupsSeen() int64 { return int64(len(a.ns)) }

// InputRows returns the number of input tuples consumed.
func (a *HashAgg) InputRows() int64 { return a.inputRows }

// Close implements Operator.
func (a *HashAgg) Close() error {
	a.intGroups = hashtab.I64Map[int32]{}
	a.groups, a.ns, a.states, a.lanes = nil, nil, nil, nil
	return a.child.Close()
}

// SortAgg implements sort-based grouping: the input is sorted on the group
// key (a blocking pass whose batches the sorter's OnInputCol sees), then
// adjacent runs are aggregated. It is a row operator (see rowops.go).
type SortAgg struct {
	base
	child   Operator
	sorter  *Sort
	groupBy []int
	aggs    []AggSpec
	label   string

	in      rowReader
	out     rowBatches
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
func (a *SortAgg) Open() error {
	a.in = rowReader{child: a.sorter}
	return a.sorter.Open()
}

// NextColBatch implements Operator.
func (a *SortAgg) NextColBatch() (*data.ColBatch, error) {
	return a.out.next(a.nextRow, a.schema.Len())
}

// nextRow is the row step: one group's aggregate row per call.
func (a *SortAgg) nextRow() (data.Tuple, error) {
	if a.done {
		return a.finish()
	}
	if !a.started {
		a.traceBegin("aggregate")
		t, err := a.in.next()
		if err != nil {
			return nil, err
		}
		a.cur = t
		a.started = true
	}
	// A scalar aggregate has one row even over no input.
	if a.cur == nil && (len(a.groupBy) > 0 || a.stats.Emitted.Load() > 0) {
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
		t, err := a.in.next()
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

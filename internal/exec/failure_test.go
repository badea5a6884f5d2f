package exec

import (
	"errors"
	"testing"

	"qpi/internal/data"
)

// faultOp emits a batch of good tuples then fails, exercising error
// propagation through every composite operator.
type faultOp struct {
	base
	good    int
	emitted bool
	batch   data.ColBatch
}

var errInjected = errors.New("injected failure")

func newFaultOp(good int) *faultOp {
	f := &faultOp{good: good}
	f.schema = data.NewSchema(data.Column{Table: "f", Name: "k", Kind: data.KindInt})
	return f
}

func (f *faultOp) Name() string         { return "Fault" }
func (f *faultOp) Children() []Operator { return nil }
func (f *faultOp) Open() error          { return nil }
func (f *faultOp) Close() error         { return nil }
func (f *faultOp) NextColBatch() (*data.ColBatch, error) {
	if f.emitted {
		return nil, errInjected
	}
	f.emitted = true
	rows := make([]data.Tuple, f.good)
	for i := range rows {
		rows[i] = data.Tuple{data.Int(int64(i + 1))}
	}
	f.batch.SetRows(rows, 1)
	return &f.batch, nil
}

// openFaultOp fails at Open.
type openFaultOp struct{ faultOp }

func (o *openFaultOp) Open() error { return errInjected }

// expectInjected drains op until the injected error surfaces, at Open or
// at a NextColBatch, then closes it: Close must hand back every pooled batch the
// failed run took, so the error path is a leak witness too.
func expectInjected(t *testing.T, op Operator) {
	t.Helper()
	pooled := data.ColBatchesOut()
	defer func() {
		if err := op.Close(); err != nil {
			t.Errorf("Close after the injected error: %v", err)
		}
		expectPooledBalance(t, pooled)
	}()
	if err := op.Open(); err != nil {
		if !errors.Is(err, errInjected) {
			t.Fatalf("unexpected open error: %v", err)
		}
		return
	}
	for {
		cb, err := op.NextColBatch()
		if err != nil {
			if !errors.Is(err, errInjected) {
				t.Fatalf("unexpected error: %v", err)
			}
			return
		}
		if cb == nil {
			t.Fatal("stream ended without the injected error")
		}
	}
}

func TestErrorPropagation(t *testing.T) {
	mk := func() *faultOp { return newFaultOp(5) }
	good := func() Operator { return NewScan(makeTable("g", []int64{1, 2, 3}), "") }

	cases := map[string]Operator{
		"filter":          NewFilter(mk(), alwaysTrueExpr{}),
		"project":         NewProject(mk(), nil, nil),
		"limit":           NewLimit(mk(), 100),
		"sort":            NewSort(mk(), 0),
		"hashjoin-build":  NewHashJoin(mk(), good(), 0, 0),
		"hashjoin-probe":  NewHashJoin(good(), mk(), 0, 0),
		"mergejoin-left":  NewMergeJoin(NewSort(mk(), 0), NewSort(good(), 0), 0, 0),
		"mergejoin-right": NewMergeJoin(NewSort(good(), 0), NewSort(mk(), 0), 0, 0),
		"nljoin-outer":    NewIndexedNLJoin(mk(), good(), 0, 0),
		"nljoin-inner":    NewIndexedNLJoin(good(), mk(), 0, 0),
		"hashagg":         NewHashAgg(mk(), []int{0}, []AggSpec{{Func: CountStar}}),
		"sortagg":         NewSortAgg(mk(), []int{0}, []AggSpec{{Func: CountStar}}),
	}
	for name, op := range cases {
		t.Run(name, func(t *testing.T) { expectInjected(t, op) })
	}
}

func TestOpenErrorPropagation(t *testing.T) {
	bad := &openFaultOp{}
	bad.schema = data.NewSchema(data.Column{Table: "f", Name: "k", Kind: data.KindInt})
	j := NewHashJoin(bad, NewScan(makeTable("g", []int64{1}), ""), 0, 0)
	if err := j.Open(); !errors.Is(err, errInjected) {
		t.Fatalf("open error not propagated: %v", err)
	}
}

type alwaysTrueExpr struct{}

func (alwaysTrueExpr) Eval(data.Tuple) data.Value { return data.Bool(true) }
func (alwaysTrueExpr) String() string             { return "true" }

// closeFaultOp scans a small table but fails Close with its own error.
type closeFaultOp struct {
	*Scan
	err error
}

func (c *closeFaultOp) Close() error {
	c.Scan.Close()
	return c.err
}

func newCloseFaultOp(name string, err error) *closeFaultOp {
	return &closeFaultOp{
		Scan: NewScan(makeTable(name, []int64{1, 2, 3}), ""),
		err:  err,
	}
}

// TestCloseErrorsJoined: when both children of a binary operator fail
// Close, neither error may be dropped — both must surface from the
// parent's Close (via errors.Join).
func TestCloseErrorsJoined(t *testing.T) {
	errL := errors.New("left close failure")
	errR := errors.New("right close failure")
	cases := map[string]func() Operator{
		"hashjoin": func() Operator {
			return NewHashJoin(newCloseFaultOp("a", errL), newCloseFaultOp("b", errR), 0, 0)
		},
		"mergejoin": func() Operator {
			return NewMergeJoin(newCloseFaultOp("a", errL), newCloseFaultOp("b", errR), 0, 0)
		},
		"nljoin": func() Operator {
			return NewIndexedNLJoin(newCloseFaultOp("a", errL), newCloseFaultOp("b", errR), 0, 0)
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			op := mk()
			if _, err := Run(op); err == nil {
				t.Fatal("Run reported no error despite both children failing Close")
			} else if !errors.Is(err, errL) || !errors.Is(err, errR) {
				t.Fatalf("Close dropped a child error: %v", err)
			}
		})
	}
}

// TestSortCloseChildError: Sort.Close must close its child and report the
// child's error even when run files are also being released.
func TestSortCloseChildError(t *testing.T) {
	errC := errors.New("child close failure")
	s := NewSort(newCloseFaultOp("t", errC), 0)
	if _, err := Run(s); !errors.Is(err, errC) {
		t.Fatalf("Sort.Close dropped the child error: %v", err)
	}
}

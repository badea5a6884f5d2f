package qpi

import (
	"fmt"
	"sync"

	"qpi/internal/exec"
	"qpi/internal/plan"
	"qpi/internal/sql"
)

// Prepared is a parsed-and-validated SQL statement — the reusable half
// of the parse→prepare→execute split. Prepare parses once and plans
// once against the current catalog to validate the statement and record
// its output schema; NewQuery then re-plans (operators are stateful and
// single-use) as many times as the statement executes. A Prepared
// captures the catalog version at preparation time, so plan caches can
// detect staleness with Prepared.CatalogVersion() !=
// Engine.CatalogVersion() — the key the qpi-server plan cache uses.
type Prepared struct {
	eng     *Engine
	stmt    *sql.SelectStmt
	text    string
	version int64
	cols    []string
	explain string
	// planMu serializes planning: the planner normalizes column
	// references in the shared AST (qualifying bare columns with their
	// resolved relation alias), so two concurrent plans of one statement
	// would race on those writes. Planning is microseconds against
	// execution, so a per-statement plan lock costs nothing.
	planMu sync.Mutex
}

// Prepare parses and validates a SELECT statement against the current
// catalog and returns a reusable handle. The returned Prepared is safe
// for concurrent NewQuery calls.
func (e *Engine) Prepare(query string) (*Prepared, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	// Validate by planning once: name resolution, type checks and join
	// shape errors surface at prepare time, not first execution.
	root, err := sql.Plan(stmt, e.cat)
	if err != nil {
		return nil, err
	}
	// Explain shows the plan NewQuery runs: pruned, as Compile prunes it.
	exec.Prune(root)
	plan.EstimateCardinalities(root, e.cat)
	cols := root.Schema().Cols
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Qualified()
	}
	return &Prepared{
		eng:     e,
		stmt:    stmt,
		text:    query,
		version: e.cat.Version(),
		cols:    names,
		explain: plan.Explain(root),
	}, nil
}

// NewQuery plans and compiles a fresh executable Query from the prepared
// statement against the engine's current catalog. Each call returns an
// independent single-use Query; compile options (estimator mode,
// sampling, memory budget, spill FS) apply per execution.
func (p *Prepared) NewQuery(opts ...CompileOption) (*Query, error) {
	p.planMu.Lock()
	root, err := sql.Plan(p.stmt, p.eng.cat)
	p.planMu.Unlock()
	if err != nil {
		return nil, err
	}
	return p.eng.Compile(&Node{op: root, eng: p.eng}, opts...)
}

// SQL returns the statement text the handle was prepared from.
func (p *Prepared) SQL() string { return p.text }

// Columns returns the output column names recorded at prepare time.
func (p *Prepared) Columns() []string {
	out := make([]string, len(p.cols))
	copy(out, p.cols)
	return out
}

// Explain renders the plan shape recorded at prepare time (with the
// optimizer estimates of that moment).
func (p *Prepared) Explain() string { return p.explain }

// CatalogVersion returns the engine catalog version the statement was
// prepared against. When it differs from Engine.CatalogVersion() the
// prepared plan's estimates are stale (tables created, rows inserted or
// statistics recomputed since).
func (p *Prepared) CatalogVersion() int64 { return p.version }

// Stale reports whether the catalog has changed since preparation.
func (p *Prepared) Stale() bool { return p.version != p.eng.cat.Version() }

// String implements fmt.Stringer for diagnostics.
func (p *Prepared) String() string {
	return fmt.Sprintf("Prepared(%q @ catalog v%d)", p.text, p.version)
}

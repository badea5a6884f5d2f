// Package qpi is a lightweight online framework for SQL query progress
// indicators, reproducing Mishra & Koudas, "A Lightweight Online
// Framework For Query Progress Indicators" (ICDE 2007).
//
// It bundles a small in-memory relational executor (scans with
// block-level random sampling, grace hash joins, sort-merge joins,
// nested-loops joins, hash/sort aggregation) with the paper's online
// cardinality estimation framework: exact frequency histograms built
// during operator preprocessing phases refine the cardinality estimates
// of every join in a pipeline — converging to the exact values before the
// joins produce output — and GEE/MLE estimators track the number of
// groups of aggregations. A progress monitor combines the estimates under
// the getnext() model of query progress.
//
// Compiled plans execute column-at-a-time: operators exchange batches of
// typed column lanes, hash joins partition, build and probe on the lanes,
// and the estimators observe a batch at a time. Rows are built only where
// a caller asks for them (Query.Rows).
//
// Quick start:
//
//	eng := qpi.New()
//	eng.MustCreateSkewedTable("r", 100000, 1, qpi.SkewedColumn{Name: "k", Domain: 5000, Zipf: 1})
//	eng.MustCreateSkewedTable("s", 100000, 2, qpi.SkewedColumn{Name: "k", Domain: 5000, Zipf: 1, PermSeed: 9})
//	q := eng.MustQuery("SELECT r.k, COUNT(*) c FROM r JOIN s ON r.k = s.k GROUP BY r.k")
//	rows, _ := q.Run(ctx, qpi.WithProgress(func(r qpi.Report) {
//	    fmt.Printf("\r%5.1f%%", 100*r.Progress)
//	}, 10000))
//
// Observability composes through run options and channels: WithTrace
// records a replayable event stream of operator phase spans and
// estimator refinements, WithMetrics and Query.Metrics expose counter
// roll-ups, Query.Subscribe streams progress snapshots to other
// goroutines, and Serve exports a registered workload as Prometheus-style
// text and JSON over HTTP.
package qpi

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"qpi/internal/catalog"
	"qpi/internal/data"
	"qpi/internal/disk"
	"qpi/internal/storage"
	"qpi/internal/tpch"
)

// Engine owns a catalog of in-memory tables and compiles queries against
// them.
type Engine struct {
	cat *catalog.Catalog
}

// New creates an empty engine.
func New() *Engine {
	return &Engine{cat: catalog.New()}
}

// ColumnDef declares one column of a manually created table.
type ColumnDef struct {
	Name string
	// Type is one of "int", "float", "string".
	Type string
}

// Table is a handle to a stored table for row insertion.
type Table struct {
	t   *storage.Table
	eng *Engine
}

// CreateTable creates an empty table. Call Table.Insert to add rows and
// Engine.Analyze (or compile a query) to compute statistics.
func (e *Engine) CreateTable(name string, cols ...ColumnDef) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("qpi: table name must not be empty")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("qpi: table %q needs at least one column", name)
	}
	dcols := make([]data.Column, len(cols))
	for i, c := range cols {
		var k data.Kind
		switch c.Type {
		case "int", "bigint", "":
			k = data.KindInt
		case "float", "double":
			k = data.KindFloat
		case "string", "varchar", "text":
			k = data.KindString
		default:
			return nil, fmt.Errorf("qpi: column %s: unknown type %q", c.Name, c.Type)
		}
		dcols[i] = data.Column{Table: name, Name: c.Name, Kind: k}
	}
	t := storage.NewTable(name, data.NewSchema(dcols...))
	e.cat.RegisterWithoutStats(t)
	return &Table{t: t, eng: e}, nil
}

// Insert appends one row. Values may be int/int64, float64, string, or
// nil (NULL).
func (t *Table) Insert(vals ...any) error {
	tu := make(data.Tuple, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case nil:
			tu[i] = data.Null()
		case int:
			tu[i] = data.Int(int64(x))
		case int64:
			tu[i] = data.Int(x)
		case float64:
			tu[i] = data.Float(x)
		case string:
			tu[i] = data.Str(x)
		default:
			return fmt.Errorf("qpi: unsupported value type %T", v)
		}
	}
	if err := t.t.Append(tu); err != nil {
		return err
	}
	// Row counts (and therefore optimizer estimates and any cached plan
	// keyed on the catalog version) are stale now.
	t.eng.cat.Bump()
	return nil
}

// Rows returns the number of rows in the table.
func (t *Table) Rows() int { return t.t.NumRows() }

// Analyze (re)computes optimizer statistics for a table. Compile uses
// whatever statistics exist at compile time.
func (e *Engine) Analyze(name string) error {
	entry, err := e.cat.Lookup(name)
	if err != nil {
		return err
	}
	entry.Stats = catalog.Analyze(entry.Table)
	e.cat.Bump()
	return nil
}

// CatalogVersion returns the engine catalog's mutation version: it
// increases on every CreateTable/Insert/Analyze/load, so a prepared
// statement captured at version v is stale exactly when
// CatalogVersion() != v. See Engine.Prepare.
func (e *Engine) CatalogVersion() int64 { return e.cat.Version() }

// SkewedColumn declares one Zipf-distributed integer column of a
// synthetic table (the paper's C_{z,n} workloads): values drawn from
// [1..Domain] with skew Zipf; PermSeed selects which values are hot, so
// equal-skew tables with different PermSeeds model the paper's C¹, C², …
// worst case for join estimation.
type SkewedColumn struct {
	Name     string
	Domain   int
	Zipf     float64
	PermSeed int64
}

// CreateSkewedTable generates and registers a synthetic table with a
// sequential "rowid" column followed by the given skewed columns, and
// analyzes it.
func (e *Engine) CreateSkewedTable(name string, rows int, seed int64, cols ...SkewedColumn) error {
	specs := make([]tpch.ColumnSpec, len(cols))
	for i, c := range cols {
		specs[i] = tpch.ColumnSpec{Name: c.Name, Domain: c.Domain, Z: c.Zipf, PermSeed: c.PermSeed}
	}
	t, err := tpch.SkewedTable(name, rows, seed, specs...)
	if err != nil {
		return err
	}
	e.cat.Register(t)
	return nil
}

// MustCreateSkewedTable is CreateSkewedTable, panicking on error.
func (e *Engine) MustCreateSkewedTable(name string, rows int, seed int64, cols ...SkewedColumn) {
	if err := e.CreateSkewedTable(name, rows, seed, cols...); err != nil {
		panic(err)
	}
}

// TPCHConfig configures TPC-H-style data generation.
type TPCHConfig struct {
	// SF is the scale factor (1.0 = 150K customers / 6M lineitems).
	SF float64
	// Seed drives all random draws.
	Seed int64
	// Skew applies Zipfian skew to foreign-key columns (0 = uniform).
	Skew float64
	// Tables restricts generation (all when empty).
	Tables []string
}

// LoadTPCH generates TPC-H-style tables into the engine's catalog.
func (e *Engine) LoadTPCH(cfg TPCHConfig) error {
	cat, err := tpch.Generate(tpch.Config{SF: cfg.SF, Seed: cfg.Seed, Skew: cfg.Skew, Tables: cfg.Tables})
	if err != nil {
		return err
	}
	for _, name := range cat.Names() {
		entry := cat.MustLookup(name)
		e.cat.Register(entry.Table)
	}
	return nil
}

// MustLoadTPCH is LoadTPCH, panicking on error.
func (e *Engine) MustLoadTPCH(cfg TPCHConfig) {
	if err := e.LoadTPCH(cfg); err != nil {
		panic(err)
	}
}

// SaveTable persists a registered table to a block-structured binary file
// (see internal/disk for the format).
func (e *Engine) SaveTable(name, path string) error {
	entry, err := e.cat.Lookup(name)
	if err != nil {
		return err
	}
	return disk.WriteTable(path, entry.Table)
}

// LoadTableFile loads a table file written by SaveTable (or qpi-datagen)
// into memory and registers it under name ("" keeps the stored name),
// computing statistics.
func (e *Engine) LoadTableFile(path, name string) (int, error) {
	tf, err := disk.OpenTable(path)
	if err != nil {
		return 0, err
	}
	defer tf.Close()
	t, err := tf.Load(name)
	if err != nil {
		return 0, err
	}
	e.cat.Register(t)
	return t.NumRows(), nil
}

// SaveDatabase persists every registered table into dir (created if
// needed) as <table>.qpit files.
func (e *Engine) SaveDatabase(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range e.cat.Names() {
		if err := e.SaveTable(name, filepath.Join(dir, name+".qpit")); err != nil {
			return err
		}
	}
	return nil
}

// LoadDatabase loads every *.qpit file in dir into the engine's catalog
// (registered under the file's base name) and returns the table names
// loaded.
func (e *Engine) LoadDatabase(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var loaded []string
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".qpit") {
			continue
		}
		name := strings.TrimSuffix(ent.Name(), ".qpit")
		if _, err := e.LoadTableFile(filepath.Join(dir, ent.Name()), name); err != nil {
			return loaded, fmt.Errorf("qpi: loading %s: %w", ent.Name(), err)
		}
		loaded = append(loaded, name)
	}
	sort.Strings(loaded)
	return loaded, nil
}

// Tables returns the names of the registered tables, sorted.
func (e *Engine) Tables() []string { return e.cat.Names() }

// TableRows returns the row count of a table.
func (e *Engine) TableRows(name string) (int, error) {
	entry, err := e.cat.Lookup(name)
	if err != nil {
		return 0, err
	}
	return entry.Table.NumRows(), nil
}

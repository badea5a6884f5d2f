// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each experiment builds its workload with the same
// parameters the paper reports (scaled by a configurable factor so the
// full suite runs on a laptop), executes it on the engine with the
// estimators attached, and returns the series/rows the paper plots.
// EXPERIMENTS.md records paper-vs-measured shapes.
package experiments

import (
	"qpi/internal/catalog"
	"qpi/internal/core"
	"qpi/internal/exec"
	"qpi/internal/expr"
	"qpi/internal/plan"
	"qpi/internal/storage"
	"qpi/internal/tpch"
)

// Config scales the experiments. The paper's accuracy experiments use
// customer tables of 150K rows (TPC-H SF 1) and overhead experiments use
// SF 0.5–2; the defaults here shrink both so the whole suite runs in
// seconds. Multiply up to approach the paper's absolute sizes.
type Config struct {
	// Rows is the row count of the synthetic customer tables
	// (paper: 150000).
	Rows int
	// DomainSmall and DomainLarge are the Figure 3 key domains
	// (paper: 5000 and 125000).
	DomainSmall, DomainLarge int
	// SF is the TPC-H scale factor for the overhead and progress
	// experiments (paper: 0.5, 1, 2).
	SF float64
	// SampleFraction is the block-sample size for scans (paper: 10%).
	SampleFraction float64
	// Seed drives all generators.
	Seed int64
	// Checkpoints are the probe-input fractions at which ratio errors
	// are reported.
	Checkpoints []float64
}

// DefaultConfig returns laptop-friendly defaults (about 1/5 the paper's
// scale).
func DefaultConfig() Config {
	return Config{
		Rows:           30000,
		DomainSmall:    1000,
		DomainLarge:    25000,
		SF:             0.02,
		SampleFraction: 0.10,
		Seed:           42,
		Checkpoints:    []float64{0.01, 0.02, 0.05, 0.10, 0.20, 0.50, 1.00},
	}
}

// PaperConfig returns the paper's original scale (needs a few GB of RAM
// and minutes of runtime).
func PaperConfig() Config {
	return Config{
		Rows:           150000,
		DomainSmall:    5000,
		DomainLarge:    125000,
		SF:             1,
		SampleFraction: 0.10,
		Seed:           42,
		Checkpoints:    []float64{0.01, 0.02, 0.05, 0.10, 0.20, 0.50, 1.00},
	}
}

// Point is one sample of an estimate trajectory.
type Point struct {
	// X is the fraction of the driving input consumed (probe input for
	// joins, total work for progress curves).
	X float64
	// Y is the estimate at that instant (a ratio error for accuracy
	// figures, a progress fraction for Figure 8).
	Y float64
}

// Series is a named trajectory.
type Series struct {
	Name   string
	Points []Point
}

// At returns the series value at the latest point with X <= x (NaN-free:
// the first point when x precedes the series).
func (s Series) At(x float64) float64 {
	if len(s.Points) == 0 {
		return 0
	}
	y := s.Points[0].Y
	for _, p := range s.Points {
		if p.X > x {
			break
		}
		y = p.Y
	}
	return y
}

// customer builds a paper-style C_{z,domain} customer table.
func customer(name string, rows, domain int, z float64, seed, permSeed int64) *storage.Table {
	return tpch.MustSkewedCustomer(name, rows, domain, z, seed, permSeed)
}

// binaryJoinTrajectories runs build ⋈ probe as a grace hash join with the
// full framework attached and returns the once / dne / byte estimate
// trajectories as ratio errors (estimate / true size), plus the true join
// size.
//
// The once series is sampled during the probe partition pass (x =
// fraction of probe input seen); the dne and byte series are sampled
// during the join pass (x = fraction of probe input joined), once per
// output batch, which is where those estimators actually observe output —
// the reordering effect of §5.1.2.
func binaryJoinTrajectories(cat *catalog.Catalog, build, probe *storage.Table,
	buildCol, probeCol string, samples int, buildFilterKey string, buildFilterBelow int64) (once, dne, byteS Series, truth int64, optEst float64, err error) {

	var buildOp exec.Operator = exec.NewScan(build, "")
	if buildFilterKey != "" {
		sc := buildOp.(*exec.Scan)
		buildOp = exec.NewFilter(sc, ltPred(sc, build.Name(), buildFilterKey, buildFilterBelow))
	}
	probeScan := exec.NewScan(probe, "")
	j := exec.NewHashJoin(buildOp, probeScan,
		buildOp.Schema().MustResolve(build.Name(), buildCol),
		probeScan.Schema().MustResolve(probe.Name(), probeCol))
	plan.EstimateCardinalities(j, cat)
	optEst = j.Stats().Estimate()

	att := core.Attach(j)
	pe := att.ChainOf[j]

	probeRows := int64(probe.NumRows())
	every := probeRows / int64(samples)
	if every < 1 {
		every = 1
	}
	// once: sample during the probe partition pass.
	pe.OnProbeObserved = func(t int64) {
		if t%every == 0 || t == probeRows {
			once.Points = append(once.Points, Point{
				X: float64(t) / float64(probeRows),
				Y: pe.Estimate(0),
			})
		}
	}
	// dne/byte: sample during the join pass, as output is produced.
	sampleJoin := func() {
		f := j.JoinedProbeFraction()
		dne.Points = append(dne.Points, Point{X: f, Y: core.DNEEstimate(j, optEst)})
		byteS.Points = append(byteS.Points, Point{X: f, Y: core.ByteEstimate(j, optEst)})
	}

	if err = j.Open(); err != nil {
		return
	}
	// One sample per output batch — the granularity progress is reported
	// at — thinned by a growing stride to keep roughly `samples` points.
	var n, batches int64
	stride := int64(1)
	for {
		cb, e := j.NextColBatch()
		if e != nil {
			err = e
			return
		}
		if cb == nil {
			break
		}
		n += int64(cb.Live())
		if batches++; batches%stride == 0 {
			sampleJoin()
			if int64(len(dne.Points)) > int64(samples) {
				stride *= 2
			}
		}
	}
	sampleJoin() // final point: both baselines are exact once done
	if cerr := j.Close(); cerr != nil && err == nil {
		err = cerr
	}
	truth = n
	// Convert to ratio errors.
	once = toRatio(once, "once", truth)
	dne = toRatio(dne, "dne", truth)
	byteS = toRatio(byteS, "byte", truth)
	return
}

// ltPred builds the predicate table.col < below against a scan's schema.
func ltPred(sc *exec.Scan, table, col string, below int64) expr.Expr {
	return expr.Compare(expr.LT, expr.Column(sc.Schema(), table, col), expr.IntLit(below))
}

// toRatio converts raw estimates to ratio errors (estimate / truth).
func toRatio(s Series, name string, truth int64) Series {
	out := Series{Name: name, Points: make([]Point, len(s.Points))}
	for i, p := range s.Points {
		r := 0.0
		if truth > 0 {
			r = p.Y / float64(truth)
		}
		out.Points[i] = Point{X: p.X, Y: r}
	}
	return out
}

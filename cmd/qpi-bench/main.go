// Command qpi-bench regenerates the paper's evaluation tables and
// figures (Figures 3-6 and 8, Tables 1-4 of Mishra & Koudas, ICDE 2007).
//
// Usage:
//
//	qpi-bench                          # run everything at default scale
//	qpi-bench -experiment fig4         # one experiment
//	qpi-bench -paper                   # the paper's original scale
//	qpi-bench -rows 150000 -sf 1       # custom scale
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"qpi/internal/experiments"
)

func main() {
	var (
		experiment = flag.String("experiment", "all",
			"experiment id: all, "+strings.Join(experiments.Names(), ", "))
		paper  = flag.Bool("paper", false, "use the paper's original scale (slow, needs RAM)")
		rows   = flag.Int("rows", 0, "override synthetic table row count")
		sf     = flag.Float64("sf", 0, "override TPC-H scale factor")
		sample = flag.Float64("sample", 0, "override block-sample fraction")
		seed   = flag.Int64("seed", 0, "override random seed")
	)
	flag.Parse()

	cfg := experiments.DefaultConfig()
	if *paper {
		cfg = experiments.PaperConfig()
	}
	if *rows > 0 {
		cfg.Rows = *rows
	}
	if *sf > 0 {
		cfg.SF = *sf
	}
	if *sample > 0 {
		cfg.SampleFraction = *sample
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	names := experiments.Names()
	if *experiment != "all" {
		names = strings.Split(*experiment, ",")
	}
	fmt.Printf("qpi-bench: rows=%d domains=%d/%d sf=%g sample=%g%% seed=%d\n\n",
		cfg.Rows, cfg.DomainSmall, cfg.DomainLarge, cfg.SF, 100*cfg.SampleFraction, cfg.Seed)
	for _, name := range names {
		start := time.Now()
		tables, err := experiments.Run(strings.TrimSpace(name), cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qpi-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		for _, t := range tables {
			fmt.Println(t.String())
		}
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}

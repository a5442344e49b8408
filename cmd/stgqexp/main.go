// Command stgqexp regenerates the figures of the paper's evaluation
// section (Figure 1(a)–(h)) and the pruning ablation, and prints them as
// text tables.
//
// Usage:
//
//	stgqexp                 # all figures, paper configuration
//	stgqexp -fig 1e         # one figure
//	stgqexp -fig ablation   # search effort with each pruning strategy off
//	stgqexp -quick          # trimmed sweeps for a fast look
//	stgqexp -seed 7 -trials 5
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "figure id (1a..1h, ablation) or all")
		seed       = flag.Int64("seed", 42, "dataset seed")
		trials     = flag.Int("trials", 3, "timing repetitions (median reported)")
		initiators = flag.Int("initiators", 1, "distinct initiators to median over (SGQ sweeps)")
		quick      = flag.Bool("quick", false, "trimmed parameter sweeps")
		plot       = flag.Bool("plot", false, "render ASCII charts instead of tables")
	)
	flag.Parse()

	cfg := experiments.Config{Seed: *seed, Trials: *trials, Initiators: *initiators, Quick: *quick}
	show := func(f experiments.Figure) {
		if *plot {
			fmt.Println(f.Chart(80))
		} else {
			fmt.Println(f)
		}
	}
	if *fig == "all" {
		for _, f := range experiments.All(cfg) {
			show(f)
		}
		return
	}
	for _, id := range strings.Split(*fig, ",") {
		run, ok := experiments.ByID(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "stgqexp: unknown figure %q (want 1a..1h or ablation)\n", id)
			os.Exit(2)
		}
		show(run(cfg))
	}
}

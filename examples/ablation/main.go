// Ablation measures what each of the paper's strategies contributes: it
// runs the same STGQ with every pruning/ordering strategy disabled in turn
// and reports the work counters and wall time.
//
// Run with:
//
//	go run ./examples/ablation
package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
)

func main() {
	d, q := experiments.RealSTGQ(42, 7)
	rg := experiments.Radius(d, q, 2)
	calUser := dataset.CalUsers(rg)
	const p, k, m = 6, 2, 4

	configs := []struct {
		name string
		opt  func() core.Options
	}{
		{"full STGSelect (default: paper + core peel)", core.DefaultOptions},
		{"no core peel (paper config)", func() core.Options {
			o := core.DefaultOptions()
			o.DisableCorePeel = true
			return o
		}},
		{"no distance pruning", func() core.Options {
			o := core.DefaultOptions()
			o.DisableDistancePruning = true
			return o
		}},
		{"no acquaintance pruning", func() core.Options {
			o := core.DefaultOptions()
			o.DisableAcquaintancePruning = true
			return o
		}},
		{"no access ordering (θ conditions off)", func() core.Options {
			o := core.DefaultOptions()
			o.DisableAccessOrdering = true
			return o
		}},
		{"no availability pruning", func() core.Options {
			o := core.DefaultOptions()
			o.DisableAvailabilityPruning = true
			return o
		}},
		{"no temporal extensibility", func() core.Options {
			o := core.DefaultOptions()
			o.DisableTemporalExtensibility = true
			return o
		}},
		{"everything disabled", func() core.Options {
			o := core.DefaultOptions()
			o.DisableDistancePruning = true
			o.DisableAcquaintancePruning = true
			o.DisableAccessOrdering = true
			o.DisableAvailabilityPruning = true
			o.DisableTemporalExtensibility = true
			o.DisableCorePeel = true
			return o
		}},
	}

	fmt.Printf("STGQ(p=%d, s=2, k=%d, m=%d) on real-194, 7-day schedules\n\n", p, k, m)
	fmt.Printf("%-44s %12s %12s %10s %10s\n", "configuration", "examined", "branches", "time", "distance")
	var refDist float64
	for i, cfg := range configs {
		t0 := time.Now()
		ans, stats, err := core.STGSelect(rg, d.Cal, calUser, p, k, m, cfg.opt())
		dt := time.Since(t0)
		if err != nil {
			fmt.Printf("%-44s %s\n", cfg.name, err)
			continue
		}
		if i == 0 {
			refDist = ans.TotalDistance
		} else if ans.TotalDistance != refDist {
			panic("ablation changed the optimum — the strategies must be lossless")
		}
		fmt.Printf("%-44s %12d %12d %10s %10g\n",
			cfg.name, stats.VerticesExamined, stats.NodesExpanded, dt.Round(time.Microsecond), ans.TotalDistance)
	}
	fmt.Println("\nevery configuration returns the same optimum — the strategies buy speed, not accuracy")
}

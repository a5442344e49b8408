// Benchmarks regenerating every figure of the paper's evaluation section
// (Figure 1(a)–(h)) plus ablation benches for each pruning/ordering
// strategy. Run with:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkFig* corresponds to one figure series; sub-benchmarks sweep
// the figure's x axis. Quality figures (1g, 1h) report their metrics via
// b.ReportMetric (k, k_h, and total distances) instead of wall time.
package stgq_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	stgq "repro"
	"repro/internal/baseline"
	"repro/internal/coordinate"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/ipmodel"
	"repro/internal/journal"
	"repro/internal/socialgraph"
)

const benchSeed = 42

// Shared instances, built once.
var (
	sgOnce sync.Once
	sgData *dataset.Dataset
	sgInit int
	sgRG1  *socialgraph.RadiusGraph // s=1
	sgRG2  *socialgraph.RadiusGraph // s=2

	stOnce   sync.Once
	stData   *dataset.Dataset
	stRG     *socialgraph.RadiusGraph
	stUsers  []int
	stByDays map[int]*dataset.Dataset

	synOnce sync.Once
	synRGs  map[int]*socialgraph.RadiusGraph
)

func sgInstance() {
	sgOnce.Do(func() {
		sgData, sgInit = experiments.RealSGQ(benchSeed)
		sgRG1 = experiments.Radius(sgData, sgInit, 1)
		sgRG2 = experiments.Radius(sgData, sgInit, 2)
	})
}

func stInstance() {
	stOnce.Do(func() {
		var stInit int
		stData, stInit = experiments.RealSTGQ(benchSeed, 7)
		stRG = experiments.Radius(stData, stInit, 2)
		stUsers = dataset.CalUsers(stRG)
		stByDays = map[int]*dataset.Dataset{7: stData}
		for d := 1; d < 7; d++ {
			dd, _ := experiments.RealSTGQ(benchSeed, d)
			stByDays[d] = dd
		}
	})
}

func synInstance() {
	synOnce.Do(func() {
		synRGs = map[int]*socialgraph.RadiusGraph{}
		for _, n := range experiments.Fig1dSizes {
			_, rg := experiments.Fig1dInstance(n, benchSeed)
			synRGs[n] = rg
		}
	})
}

// --- Figure 1(a): SGQ running time vs p (k=2, s=1) ----------------------

var fig1aPs = []int{3, 4, 5, 6, 7, 8, 9, 10, 11}

func BenchmarkFig1aSGSelect(b *testing.B) {
	sgInstance()
	for _, p := range fig1aPs {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.SGSelect(sgRG1, p, 2, nil, core.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig1aBaseline(b *testing.B) {
	sgInstance()
	for _, p := range fig1aPs {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.SGQ(sgRG1, p, 2, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig1aIP(b *testing.B) {
	sgInstance()
	for _, p := range fig1aPs {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ipmodel.SGQReduced(sgRG1, p, 2, ipmodel.SolveOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 1(b): SGQ running time vs s (p=4, k=2) ----------------------

var fig1bSs = []int{1, 3, 5}

func BenchmarkFig1bSGSelect(b *testing.B) {
	sgInstance()
	for _, s := range fig1bSs {
		rg := experiments.Radius(sgData, sgInit, s)
		b.Run(fmt.Sprintf("s=%d", s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.SGSelect(rg, 4, 2, nil, core.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig1bBaseline(b *testing.B) {
	sgInstance()
	for _, s := range fig1bSs {
		rg := experiments.Radius(sgData, sgInit, s)
		b.Run(fmt.Sprintf("s=%d", s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.SGQ(rg, 4, 2, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 1(c): SGQ running time vs k (p=5, s=2) ----------------------

var fig1cKs = []int{1, 2, 3, 4, 5, 6}

func BenchmarkFig1cSGSelect(b *testing.B) {
	sgInstance()
	for _, k := range fig1cKs {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.SGSelect(sgRG2, 5, k, nil, core.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig1cBaseline(b *testing.B) {
	sgInstance()
	for _, k := range fig1cKs {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.SGQ(sgRG2, 5, k, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 1(d): SGQ running time vs network size (p=5, k=3, s=1) ------

func BenchmarkFig1dSGSelect(b *testing.B) {
	synInstance()
	for _, n := range experiments.Fig1dSizes {
		rg := synRGs[n]
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.SGSelect(rg, 5, 3, nil, core.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig1dBaseline(b *testing.B) {
	synInstance()
	for _, n := range experiments.Fig1dSizes {
		rg := synRGs[n]
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.SGQ(rg, 5, 3, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig1dIP(b *testing.B) {
	synInstance()
	for _, n := range experiments.Fig1dSizes {
		rg := synRGs[n]
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ipmodel.SGQReduced(rg, 5, 3, ipmodel.SolveOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 1(e): STGQ running time vs m (p=5, s=2, k=2, 7 days) --------

var fig1eMs = []int{2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24}

func BenchmarkFig1eSTGSelect(b *testing.B) {
	stInstance()
	for _, m := range fig1eMs {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Infeasibility at the largest m is part of the workload
				// (the search still proves it).
				core.STGSelect(stRG, stByDays[7].Cal, stUsers, 5, 2, m, core.DefaultOptions()) //nolint:errcheck
			}
		})
	}
}

func BenchmarkFig1eBaseline(b *testing.B) {
	stInstance()
	for _, m := range fig1eMs {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.STGQExhaustive(stRG, stByDays[7].Cal, stUsers, 5, 2, m) //nolint:errcheck
			}
		})
	}
}

// --- Figure 1(f): STGQ running time vs schedule length (m=4) ------------

func BenchmarkFig1fSTGSelect(b *testing.B) {
	stInstance()
	for days := 1; days <= 7; days++ {
		d := stByDays[days]
		rg := experiments.Radius(d, d.PickByDegree(30), 2)
		users := dataset.CalUsers(rg)
		b.Run(fmt.Sprintf("days=%d", days), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.STGSelect(rg, d.Cal, users, 5, 2, 4, core.DefaultOptions()) //nolint:errcheck
			}
		})
	}
}

func BenchmarkFig1fBaseline(b *testing.B) {
	stInstance()
	for days := 1; days <= 7; days++ {
		d := stByDays[days]
		rg := experiments.Radius(d, d.PickByDegree(30), 2)
		users := dataset.CalUsers(rg)
		b.Run(fmt.Sprintf("days=%d", days), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.STGQExhaustive(rg, d.Cal, users, 5, 2, 4) //nolint:errcheck
			}
		})
	}
}

// --- Figures 1(g)/1(h): solution quality vs p ----------------------------
//
// These are quality figures, not timing figures: the benchmark reports k
// (STGArrange), k_h (PCArrange), and both total distances as custom
// metrics for every p.

func BenchmarkFig1gQuality(b *testing.B) {
	stInstance()
	for _, p := range []int{3, 5, 7, 9, 11} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var pc *coordinate.PCResult
			var res *coordinate.STGResult
			var err error
			for i := 0; i < b.N; i++ {
				pc, err = coordinate.PCArrange(stRG, stByDays[7].Cal, stUsers, p, 4)
				if err != nil {
					b.Skip("manual coordination infeasible at this p")
				}
				res, err = coordinate.STGArrange(stRG, stByDays[7].Cal, stUsers, p, 4,
					pc.TotalDistance, p-1, core.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pc.ObservedK), "kh_manual")
			b.ReportMetric(float64(res.K), "k_arrange")
			b.ReportMetric(pc.TotalDistance, "dist_manual")
			b.ReportMetric(res.Answer.TotalDistance, "dist_arrange")
		})
	}
}

// --- Ablations: the contribution of each strategy ------------------------

func benchAblationSG(b *testing.B, mutate func(*core.Options)) {
	sgInstance()
	opt := core.DefaultOptions()
	mutate(&opt)
	for i := 0; i < b.N; i++ {
		if _, _, err := core.SGSelect(sgRG2, 7, 2, nil, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSGFull(b *testing.B) {
	benchAblationSG(b, func(*core.Options) {})
}

func BenchmarkAblationSGNoDistancePruning(b *testing.B) {
	benchAblationSG(b, func(o *core.Options) { o.DisableDistancePruning = true })
}

func BenchmarkAblationSGNoAcquaintancePruning(b *testing.B) {
	benchAblationSG(b, func(o *core.Options) { o.DisableAcquaintancePruning = true })
}

func BenchmarkAblationSGNoOrdering(b *testing.B) {
	benchAblationSG(b, func(o *core.Options) { o.DisableAccessOrdering = true })
}

func benchAblationSTG(b *testing.B, mutate func(*core.Options)) {
	stInstance()
	opt := core.DefaultOptions()
	mutate(&opt)
	for i := 0; i < b.N; i++ {
		if _, _, err := core.STGSelect(stRG, stByDays[7].Cal, stUsers, 6, 2, 4, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSTGFull(b *testing.B) {
	benchAblationSTG(b, func(*core.Options) {})
}

func BenchmarkAblationSTGNoAvailabilityPruning(b *testing.B) {
	benchAblationSTG(b, func(o *core.Options) { o.DisableAvailabilityPruning = true })
}

func BenchmarkAblationSTGNoTemporalExtensibility(b *testing.B) {
	benchAblationSTG(b, func(o *core.Options) { o.DisableTemporalExtensibility = true })
}

// BenchmarkAblationSTGNoPivot approximates disabling pivot time slots: the
// sequential per-period solver re-searches every window with SGSelect.
func BenchmarkAblationSTGNoPivot(b *testing.B) {
	stInstance()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.STGQ(stRG, stByDays[7].Cal, stUsers, 6, 2, 4, core.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- write path: journal append throughput --------------------------------
//
// BenchmarkJournalAppend tracks the durable write path alongside the query
// benchmarks: one fsync per record (the naive WAL), a lone writer through
// the group-commit batcher (which should cost one fsync, nothing more), and
// the batcher coalescing concurrent writers into shared fsyncs.

func journalRecord(seq uint64) journal.Record {
	return journal.Record{Seq: seq, Mut: stgq.Mutation{
		Op: stgq.MutSetAvailable, Person: stgq.PersonID(seq % 128), From: 12, To: 40,
	}}
}

func BenchmarkJournalAppend(b *testing.B) {
	b.Run("unbatched-fsync-per-record", func(b *testing.B) {
		log, err := journal.OpenLog(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		defer log.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := log.Append([]journal.Record{journalRecord(uint64(i + 1))}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		syncs, _, _ := log.Counters()
		b.ReportMetric(float64(syncs)/float64(b.N), "fsyncs/op")
	})
	b.Run("group-commit-one-writer", func(b *testing.B) {
		log, err := journal.OpenLog(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		defer log.Close()
		batcher := journal.NewBatcher(log, 0) // defaults
		defer batcher.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := batcher.Append(journalRecord(uint64(i + 1))); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		syncs, _, _ := log.Counters()
		b.ReportMetric(float64(syncs)/float64(b.N), "fsyncs/op")
	})
	b.Run("group-commit-concurrent", func(b *testing.B) {
		log, err := journal.OpenLog(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		defer log.Close()
		batcher := journal.NewBatcher(log, 0) // defaults
		defer batcher.Close()
		var seq atomic.Uint64
		b.SetParallelism(32) // many concurrent HTTP writers per core
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := batcher.Append(journalRecord(seq.Add(1))); err != nil {
					b.Error(err) // Fatal is not allowed off the benchmark goroutine
					return
				}
			}
		})
		b.StopTimer()
		syncs, _, _ := log.Counters()
		b.ReportMetric(float64(syncs)/float64(b.N), "fsyncs/op")
	})
}

// --- substrate micro-benchmarks ------------------------------------------

func BenchmarkRadiusExtraction(b *testing.B) {
	sgInstance()
	for _, s := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("s=%d", s), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sgData.Graph.ExtractRadiusGraph(sgInit, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDatasetGeneration(b *testing.B) {
	b.Run("real194", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dataset.Real194(int64(i), 7)
		}
	})
	b.Run("synthetic3200", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dataset.Synthetic(3200, int64(i), 1)
		}
	})
}

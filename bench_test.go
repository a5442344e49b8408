// Ablation benches for each pruning/ordering strategy on the paper's
// real-194 instances, plus the journal append path, radius extraction and
// dataset generation. Run with:
//
//	go test -run='^$' -bench=. -benchmem
//
// The paper's figures (Figure 1(a)–(h)) are printed by cmd/stgqexp, which
// runs the internal/experiments sweeps.
package stgq_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	stgq "repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/journal"
	"repro/internal/socialgraph"
)

const benchSeed = 42

// Shared instances, built once.
var (
	sgOnce sync.Once
	sgData *dataset.Dataset
	sgInit int
	sgRG2  *socialgraph.RadiusGraph // s=2

	stOnce  sync.Once
	stData  *dataset.Dataset
	stRG    *socialgraph.RadiusGraph
	stUsers []int
)

func sgInstance() {
	sgOnce.Do(func() {
		sgData, sgInit = experiments.RealSGQ(benchSeed)
		sgRG2 = experiments.Radius(sgData, sgInit, 2)
	})
}

func stInstance() {
	stOnce.Do(func() {
		var stInit int
		stData, stInit = experiments.RealSTGQ(benchSeed, 7)
		stRG = experiments.Radius(stData, stInit, 2)
		stUsers = dataset.CalUsers(stRG)
	})
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
		if _, _, err := core.STGSelect(stRG, stData.Cal, stUsers, 6, 2, 4, opt); err != nil {
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
		if _, err := baseline.STGQ(stRG, stData.Cal, stUsers, 6, 2, 4, core.DefaultOptions()); err != nil {
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

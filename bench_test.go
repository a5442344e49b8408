// Benchmarks of the journal append path, radius extraction and dataset
// generation. Run with:
//
//	go test -run='^$' -bench=. -benchmem
//
// The paper's figures (Figure 1(a)–(h)) and the pruning ablation are
// printed by cmd/stgqexp, which runs the internal/experiments sweeps.
package stgq_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	stgq "repro"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/journal"
)

const benchSeed = 42

// The shared SGQ instance, built once.
var (
	sgOnce sync.Once
	sgData *dataset.Dataset
	sgInit int
)

func sgInstance() {
	sgOnce.Do(func() { sgData, sgInit = experiments.RealSGQ(benchSeed) })
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

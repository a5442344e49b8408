// Package journal is the durable event-journal persistence subsystem of
// the planner service. It records every Planner mutation (each
// stgq.Mutation that Planner.Apply commits) as a typed, versioned record
// in a write-ahead journal, folds the journal into periodic snapshots, and
// rebuilds the Planner on startup from the latest snapshot plus the
// journal tail. A snapshot is itself a compacted journal prefix in the
// same CRC frames, so recovery, a follower's bootstrap and a -data import
// share one replay, ReplaySnapshot, run once per load: ImportDataset and
// ResetFromSnapshot serve the planner that checked the snapshot they write.
//
// # Architecture
//
//	Planner mutation ──(MutationHook, under planner lock)──► sequence number
//	        │                                                      │
//	        └── wait ◄── group-commit Batcher ◄── record ──────────┘
//	                         │  (commit on arrival of what is queued,
//	                         │   ≤ MaxBatch records, one fsync per
//	                         │   batch, per-caller ack)
//	                         ▼
//	                 FileLog  wal-<firstseq>.log segments
//	                         │
//	             Snapshot    snap-<seq>.frames  (journal frames 1..N)
//	             every N mutations; sealed segments whose records are
//	             all covered by a snapshot are deleted (compaction)
//
// # Durability contract
//
// A mutation call on a journaled Planner returns only after its record has
// been fsynced to the active journal segment, so every acknowledged write
// survives a crash (kill -9 included). Unacknowledged writes — in-flight
// HTTP requests at crash time — may or may not survive; they were never
// confirmed to the caller. Group commit batches the fsyncs of concurrent
// writers, so the per-writer cost amortizes under load.
//
// # Recovery
//
// Open replays the newest snap-<seq>.frames (if any) onto an empty planner
// of the horizon meta.json records, replays every journal record with a
// higher sequence number in order, and truncates a torn final record (a
// crash mid-append) off the last segment. Records are CRC-checked; a
// corrupt record anywhere but the tail of the final segment (a snapshot
// has none) aborts recovery rather than silently skipping history.
//
// # Leader epochs
//
// Alongside the journal, meta.json persists the store's leader epoch — a
// generation number for the history the journal records. A fresh (or
// imported) store is epoch 1; BumpEpoch increments it when a replication
// follower is promoted to leader, and ResetFromSnapshot/AdvanceEpoch let
// a follower adopt its leader's epoch. Replication uses the epoch to
// fence superseded leaders (repro/internal/replica); the Store exposes it
// via Epoch and Stats.
package journal

import (
	"errors"

	stgq "repro"
)

// Record is one journaled mutation: a monotonically increasing sequence
// number (1-based, dense) plus the mutation itself.
type Record struct {
	// Seq is the record's journal position (1-based, gapless).
	Seq uint64
	// Mut is the journaled mutation itself.
	Mut stgq.Mutation
}

var (
	// ErrClosed reports use of a closed batcher or store.
	ErrClosed = errors.New("journal: closed")
	// ErrCorrupt reports an unreadable record outside the torn-tail
	// position (the final bytes of the final segment).
	ErrCorrupt = errors.New("journal: corrupt record")
	// ErrNotDurable reports a mutation that was applied in memory but
	// whose journal record could not be committed; the caller must treat
	// the write as failed.
	ErrNotDurable = errors.New("journal: mutation not durable")
)

// Appender is a durable sink for encoded records. Append must not return
// until the records survive a crash; it is called by a single goroutine
// (the batcher's writer).
type Appender interface {
	// Append durably writes one group-committed batch.
	Append(recs []Record) error
	// Close releases the sink; further Appends fail.
	Close() error
}

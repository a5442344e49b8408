package journal

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	stgq "repro"
	"repro/internal/obsv"
)

// Options tunes a Store. The zero value is a sensible production default.
type Options struct {
	// HorizonSlots sizes the schedule when the store is created. It is
	// recorded in the data dir's meta.json on first open; on recovery
	// the recorded value wins, so restarting with a different flag
	// cannot silently change (or break replay of) the schedule.
	HorizonSlots int
	// SnapshotEvery takes a snapshot (and compacts the journal) after
	// this many mutations. 0 means DefaultSnapshotEvery; negative
	// disables automatic snapshots (Close still writes a final one).
	SnapshotEvery int
	// MaxSegmentBytes triggers size-based segment rotation.
	MaxSegmentBytes int64
}

// DefaultSnapshotEvery is the automatic snapshot cadence in mutations.
const DefaultSnapshotEvery = 4096

// RecoveryInfo reports what Open found and rebuilt.
type RecoveryInfo struct {
	// SnapshotSeq is the sequence number of the loaded snapshot (0: none).
	SnapshotSeq uint64
	// ReplayedRecords counts journal records applied on top of it.
	ReplayedRecords int
	// LastSeq is the highest sequence number recovered.
	LastSeq uint64
	// TruncatedBytes is the size of the torn tail cut off the final
	// segment (0 on a clean shutdown).
	TruncatedBytes int64
	// People/Friendships describe the recovered population.
	People, Friendships int
}

// Stats is a point-in-time view of the subsystem, exposed by the service's
// GET /status.
type Stats struct {
	// Epoch is the store's leader epoch (see BumpEpoch): the fencing
	// coordinate replication and failover compare before trusting a
	// leader's history.
	Epoch uint64 `json:"epoch"`
	// LastSeq is the highest sequence number assigned (possibly still
	// awaiting group commit); DurableSeq the highest known fsynced.
	LastSeq uint64 `json:"lastSeq"`
	// DurableSeq is the highest fsynced sequence number (see LastSeq).
	DurableSeq uint64 `json:"durableSeq"`
	// Batches and Records count group-commit flushes and the records
	// they carried; Fsyncs counts physical syncs.
	Batches uint64 `json:"batches"`
	// Records counts journaled records since open (see Batches).
	Records uint64 `json:"records"`
	// Fsyncs counts physical syncs since open (see Batches).
	Fsyncs uint64 `json:"fsyncs"`
	// Segments and SegmentBytes size the live journal on disk.
	Segments int `json:"segments"`
	// SegmentBytes is the on-disk journal size (see Segments).
	SegmentBytes int64 `json:"segmentBytes"`
	// Snapshots counts snapshot cycles since open; LastSnapshotSeq is
	// the position the newest snapshot covers.
	Snapshots uint64 `json:"snapshots"`
	// LastSnapshotSeq is the newest snapshot's position (see Snapshots).
	LastSnapshotSeq uint64 `json:"lastSnapshotSeq"`
	// ReplayedOnBoot counts journal records replayed by the last Open.
	ReplayedOnBoot int `json:"replayedOnBoot"`
	// SnapshotError is the most recent automatic-snapshot failure (""
	// when the last attempt succeeded); mutations stay durable through
	// the journal regardless.
	SnapshotError string `json:"snapshotError,omitempty"`
}

// Store owns the durable state of one Planner: its journal, snapshots and
// group-commit pipeline. Open recovers (or initializes) the planner;
// afterwards every planner mutation is journaled transparently through the
// mutation hook, and the mutating call returns only once its record is
// durable.
type Store struct {
	dir    string
	opts   Options
	pl     *stgq.Planner
	log    *FileLog
	b      *Batcher
	rec    RecoveryInfo
	unlock func() // releases the data-dir lock

	epoch      atomic.Uint64 // leader epoch from meta.json (AdvanceEpoch raises it)
	epochStart atomic.Uint64 // seq at which the epoch began (the promotion fork point)
	metaMu     sync.Mutex    // serializes meta.json rewrites after Open
	seq        atomic.Uint64 // last assigned sequence number
	sinceSnap  atomic.Int64  // mutations since the last snapshot
	snapshots  atomic.Uint64
	lastSnap   atomic.Uint64
	snapErr    atomic.Value  // string: last automatic-snapshot failure
	rejected   atomic.Uint64 // mutations applied in memory but refused a journal record (close stragglers)
	closed     atomic.Bool

	snapMu sync.Mutex // serializes snapshot/compaction cycles

	// The automatic snapshot cycle runs on its own goroutine so no HTTP
	// writer ever pays the export + fsync + compaction latency: crossing
	// the SnapshotEvery threshold only pokes snapTrigger.
	snapTrigger chan struct{} // buffered(1): threshold crossed
	snapStop    chan struct{} // closed by Close: loop must exit
	snapDone    chan struct{} // closed by the loop on exit

	durNotify Notifier      // broadcast after each durable commit (WaitDurable)
	closeCh   chan struct{} // closed by Close: unblocks WaitDurable

	// afterExport, when non-nil, runs inside the snapshot cycle right
	// after the planner export (planner lock released, snapMu held).
	// Test seam: lets tests hold a snapshot open mid-cycle.
	afterExport func()
}

// Open recovers the planner persisted in dir (creating the directory if
// needed) and starts journaling new mutations into it.
func Open(dir string, opts Options) (*Store, error) { return open(dir, opts, nil) }

// open is Open with an optional seed, run under the data-dir lock before
// recovery: it writes dir's snapshot and meta file and returns the planner
// that snapshot replays to, so recovery does not replay it again.
func open(dir string, opts Options, seed func() (*stgq.Planner, error)) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = DefaultSnapshotEvery
	}
	s := &Store{
		dir:         dir,
		opts:        opts,
		snapTrigger: make(chan struct{}, 1),
		snapStop:    make(chan struct{}),
		snapDone:    make(chan struct{}),
		closeCh:     make(chan struct{}),
	}

	// 0. Exclude other processes: two appenders interleaving sequence
	// numbers in one journal would corrupt it beyond recovery.
	unlock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	s.unlock = unlock
	defer func() {
		if s.b == nil { // any failure below: release the lock
			unlock()
		}
	}()

	// Stale temp files from a crash mid-snapshot/meta-write are garbage.
	if tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp")); err == nil {
		for _, p := range tmps {
			_ = os.Remove(p)
		}
	}
	if seed != nil {
		if s.pl, err = seed(); err != nil {
			return nil, err
		}
	}

	// 1. The newest snapshot, replayed onto an empty planner of the
	// recorded horizon (the caller's only counts for a new store), unless
	// the seed step replayed it already.
	meta, haveMeta, err := loadMeta(dir)
	if err != nil {
		return nil, err
	}
	if legacy, _ := listNumbered(dir, snapPrefix, legacySnapSuffix); len(legacy) > 0 {
		return nil, fmt.Errorf("journal: %s is a dataset-JSON snapshot of an older version; import it into an empty data dir instead", legacy[0].path)
	}
	snap, haveSnap, err := latestSnapshot(dir)
	if err != nil {
		return nil, err
	}
	if !haveMeta {
		if haveSnap {
			return nil, fmt.Errorf("%w: snapshot at seq %d without %s", ErrCorrupt, snap.seq, metaFileName)
		}
		meta.HorizonSlots = opts.HorizonSlots
	}
	if s.pl == nil {
		var frames []byte
		if haveSnap {
			if frames, err = os.ReadFile(snap.path); err != nil {
				return nil, fmt.Errorf("journal: snapshot: %w", err)
			}
		}
		replayed, err := ReplaySnapshot(frames, meta.HorizonSlots)
		if err != nil {
			return nil, fmt.Errorf("journal: snapshot %s: %w", filepath.Base(snap.path), err)
		}
		s.pl = replayed.pl
	}
	// Every store runs at an epoch ≥ 1; metas from before epochs existed
	// (or absent entirely) are normalized to 1 and rewritten so BumpEpoch
	// and replication always see an explicit value.
	if meta.Epoch == 0 {
		meta.Epoch = 1
		haveMeta = false
	}
	if !haveMeta {
		meta.HorizonSlots = s.pl.Horizon()
		if err := writeMeta(dir, meta); err != nil {
			return nil, err
		}
	}
	s.epoch.Store(meta.Epoch)
	s.epochStart.Store(meta.EpochStartSeq)
	s.rec.SnapshotSeq = snap.seq
	s.lastSnap.Store(snap.seq)

	// 2. Replay the journal tail on top of it.
	//stgqcheck:ignore ctxflow replay runs before the mutation hook is installed, so nothing observes this context
	segs, lastSeq, truncated, replayed, err := replayDir(context.Background(), dir, snap.seq, s.pl)
	if err != nil {
		return nil, err
	}
	if lastSeq < snap.seq {
		lastSeq = snap.seq
	}
	s.rec.ReplayedRecords = replayed
	s.rec.LastSeq = lastSeq
	s.rec.TruncatedBytes = truncated
	s.rec.People = s.pl.NumPeople()
	s.rec.Friendships = s.pl.NumFriendships()
	s.seq.Store(lastSeq)
	// Count the replayed tail toward the snapshot cadence: a process that
	// is killed every few thousand mutations would otherwise never cross
	// SnapshotEvery with *new* writes alone, so the journal — and every
	// boot's replay — would grow without bound.
	s.sinceSnap.Store(int64(replayed))

	// 3. Open the log for appending and start the group-commit pipeline.
	s.log, err = openFileLog(dir, segs, lastSeq+1, opts.MaxSegmentBytes)
	if err != nil {
		return nil, err
	}
	s.b = NewBatcher(s.log, DefaultMaxBatch)

	// 4. From here on, every mutation is journaled, and snapshot cycles
	// run on their own goroutine so no mutating caller pays for them.
	go s.snapshotLoop()
	s.pl.SetMutationHook(s.onMutation)
	return s, nil
}

// snapshotLoop runs automatic snapshot cycles off the write path. It
// exits when Close closes snapStop.
func (s *Store) snapshotLoop() {
	defer close(s.snapDone)
	for {
		select {
		case <-s.snapTrigger:
			if s.opts.SnapshotEvery <= 0 {
				continue
			}
			s.snapMu.Lock()
			// Re-check under the mutex: a cycle that just finished (or a
			// manual Snapshot call) may have reset the counter already.
			if s.sinceSnap.Load() >= int64(s.opts.SnapshotEvery) {
				if err := s.snapshotLocked(); err != nil {
					s.snapErr.Store(err.Error())
				} else {
					s.snapErr.Store("")
				}
			}
			s.snapMu.Unlock()
		case <-s.snapStop:
			return
		}
	}
}

// replayDir scans dir's segments in order and applies every record with
// Seq > afterSeq to pl. It truncates a torn tail on the final segment and
// verifies the sequence numbers are gapless.
func replayDir(ctx context.Context, dir string, afterSeq uint64, pl *stgq.Planner) (segs []segmentInfo, lastSeq uint64, truncated int64, replayed int, err error) {
	segs, err = listSegments(dir)
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("journal: %w", err)
	}
	prev := afterSeq // next record to replay must be afterSeq+1
	for i := range segs {
		data, err := os.ReadFile(segs[i].path)
		if err != nil {
			return nil, 0, 0, 0, fmt.Errorf("journal: %w", err)
		}
		recs, consumed := scanFrames(data)
		if consumed < len(data) {
			if i != len(segs)-1 {
				return nil, 0, 0, 0, fmt.Errorf("%w: segment %s damaged at byte %d (not the final segment)",
					ErrCorrupt, segs[i].path, consumed)
			}
			if containsValidFrame(data[consumed+1:]) {
				// Valid frames resume after the break: this is damage in
				// the middle of the segment, not a torn final append.
				// Truncating would silently discard acknowledged records.
				return nil, 0, 0, 0, fmt.Errorf("%w: segment %s damaged at byte %d with intact records after it",
					ErrCorrupt, segs[i].path, consumed)
			}
			// Torn tail: a crash interrupted the last append.
			if err := os.Truncate(segs[i].path, int64(consumed)); err != nil {
				return nil, 0, 0, 0, fmt.Errorf("journal: truncate torn tail: %w", err)
			}
			truncated = int64(len(data) - consumed)
		}
		segs[i].bytes = int64(consumed)
		for _, rec := range recs {
			segs[i].lastSeq = rec.Seq
			if rec.Seq <= afterSeq {
				// Folded into the snapshot already. No gap check here:
				// a partially-failed compaction legitimately leaves
				// holes among snapshot-covered segments.
				continue
			}
			if rec.Seq != prev+1 {
				return nil, 0, 0, 0, fmt.Errorf("%w: sequence gap %d → %d in %s (snapshot covers up to %d)",
					ErrCorrupt, prev, rec.Seq, segs[i].path, afterSeq)
			}
			prev = rec.Seq
			if err := Apply(ctx, pl, rec); err != nil {
				return nil, 0, 0, 0, err
			}
			replayed++
		}
	}
	return segs, prev, truncated, replayed, nil
}

// Apply replays one journaled mutation into pl through Planner.Apply and
// checks that the planner reaches the state the record describes: that
// AddPerson assigns the id the journal recorded. Recovery uses it before
// any mutation hook is installed; a replication follower uses it with
// its own store's hook installed, so the applied record is re-journaled
// locally and the error reports a failed local commit. ctx reaches the
// hook.
func Apply(ctx context.Context, pl *stgq.Planner, rec Record) error {
	got, err := pl.Apply(ctx, rec.Mut)
	if err != nil {
		return fmt.Errorf("journal: replay seq %d: %w", rec.Seq, err)
	}
	if got.Person != rec.Mut.Person {
		return fmt.Errorf("%w: replay seq %d assigned person %d, journal says %d",
			ErrCorrupt, rec.Seq, got.Person, rec.Mut.Person)
	}
	return nil
}

// onMutation is the planner's MutationHook: it assigns the next sequence
// number and enqueues the record while the planner lock is held (so
// journal order equals apply order), then has the caller wait for group
// commit after the lock is released (so concurrent writers share fsyncs).
// When ctx carries an obsv.Stages collector the wait records the journal's
// latency split into it: journal_enqueue (queued before the batch
// started), journal_fsync (the batch's write+fsync), journal_ack (the
// remainder — ack channel delivery and scheduling).
func (s *Store) onMutation(ctx context.Context, m stgq.Mutation) func() error {
	seq := s.seq.Add(1)
	start := time.Now()
	ack := s.b.Enqueue(Record{Seq: seq, Mut: m})
	return func() error {
		a := <-ack
		if st := obsv.StagesFrom(ctx); st != nil {
			st.AddDuration("journal_enqueue", a.EnqueueWait)
			st.AddDuration("journal_fsync", a.Fsync)
			st.AddDuration("journal_ack", time.Since(start)-a.EnqueueWait-a.Fsync)
		}
		if err := a.Err; err != nil {
			return fmt.Errorf("%w: %v: %w", ErrNotDurable, m.Op, err)
		}
		// Wake tailing readers (replication streamers) now that the
		// record is durable.
		s.durNotify.Broadcast()
		if s.opts.SnapshotEvery > 0 && s.sinceSnap.Add(1) >= int64(s.opts.SnapshotEvery) {
			// Poke the snapshot goroutine and move on: no writer ever
			// pays the export + fsync + compaction latency. A snapshot
			// failure is background-maintenance trouble, not this
			// caller's — the mutation is already journaled and durable —
			// so the loop records it in Stats rather than returning it.
			select {
			case s.snapTrigger <- struct{}{}:
			default: // a trigger is already pending
			}
		}
		return nil
	}
}

// Planner returns the recovered, journaled planner.
func (s *Store) Planner() *stgq.Planner { return s.pl }

// Epoch returns the store's leader epoch.
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// Pos returns the store's durable position: its epoch and DurableSeq.
func (s *Store) Pos() Pos { return Pos{Epoch: s.Epoch(), Seq: s.DurableSeq()} }

// EpochStart returns the sequence number at which the store's epoch
// began (0 for a never-promoted history). Streams advertise it as the
// fork point followers compare their position against.
func (s *Store) EpochStart() uint64 { return s.epochStart.Load() }

// AdvanceEpoch durably raises the store's epoch to epoch (which began at
// startSeq); lower or equal epochs are a no-op. A replication follower
// calls it when its leader advertises a newer epoch (the leader was
// promoted), so that a later promotion of this follower lands strictly
// above the whole chain's history.
func (s *Store) AdvanceEpoch(epoch, startSeq uint64) error {
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	if epoch <= s.epoch.Load() {
		return nil
	}
	m, _, err := loadMeta(s.dir)
	if err != nil {
		return err
	}
	m.Epoch = epoch
	m.EpochStartSeq = startSeq
	if err := writeMeta(s.dir, m); err != nil {
		return fmt.Errorf("journal: meta: %w", err)
	}
	s.epoch.Store(epoch)
	s.epochStart.Store(startSeq)
	return nil
}

// Recovery reports what Open rebuilt.
func (s *Store) Recovery() RecoveryInfo { return s.rec }

// Stats returns a point-in-time view of the subsystem.
func (s *Store) Stats() Stats {
	syncs, _, _ := s.log.Counters()
	batches, records := s.b.Counters()
	nseg, segBytes := s.log.Segments()
	durable := s.b.DurableSeq()
	if durable < s.rec.LastSeq {
		// Everything recovered at boot is durable by definition; the
		// batcher only learns sequence numbers it commits itself.
		durable = s.rec.LastSeq
	}
	return Stats{
		Epoch:           s.epoch.Load(),
		LastSeq:         s.seq.Load(),
		DurableSeq:      durable,
		Batches:         batches,
		Records:         records,
		Fsyncs:          syncs,
		Segments:        nseg,
		SegmentBytes:    segBytes,
		Snapshots:       s.snapshots.Load(),
		LastSnapshotSeq: s.lastSnap.Load(),
		ReplayedOnBoot:  s.rec.ReplayedRecords,
		SnapshotError:   s.lastSnapshotError(),
	}
}

func (s *Store) lastSnapshotError() string {
	if v, ok := s.snapErr.Load().(string); ok {
		return v
	}
	return ""
}

// Snapshot forces a snapshot + compaction cycle now.
func (s *Store) Snapshot() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return s.snapshotLocked()
}

// snapshotLocked exports the planner at a pinned sequence number, makes
// the snapshot durable, and retires journal segments it covers. Caller
// holds snapMu.
func (s *Store) snapshotLocked() error {
	if s.seq.Load() == s.lastSnap.Load() {
		// Nothing new since the last snapshot; skip the (expensive)
		// export. Racing mutations are picked up by the next cycle.
		s.sinceSnap.Store(0)
		return nil
	}
	snapStart := time.Now()
	var seq, rejected uint64
	ds := s.pl.Export(func() {
		seq = s.seq.Load()
		rejected = s.rejected.Load() // exact: the rejecting hook runs under the same lock
	})
	s.sinceSnap.Store(0)
	if s.afterExport != nil {
		s.afterExport()
	}
	if rejected > 0 {
		// A close-straggler mutated the planner without a journal
		// record; exporting would resurrect a write whose caller was
		// told it failed. The journal alone stays authoritative.
		return fmt.Errorf("journal: skipping snapshot: %d mutation(s) were rejected mid-close", rejected)
	}
	if seq == s.lastSnap.Load() {
		return nil // nothing new since the last snapshot
	}
	// Records ≤ seq must be durable before the journal they live in can
	// be considered redundant.
	if err := s.b.Flush(); err != nil {
		return fmt.Errorf("journal: pre-snapshot flush: %w", err)
	}
	// A poisoned log means some acknowledged-as-failed mutations exist
	// only in memory; snapshotting would resurrect writes whose callers
	// were told they failed. (Flush alone cannot catch this on the Close
	// path: the batcher is already closed and reports nothing.)
	if err := s.log.Failed(); err != nil {
		return fmt.Errorf("journal: skipping snapshot, log unhealthy: %w", err)
	}
	// And the pinned sequence number itself must be provably durable:
	// during Close, Flush can return nil on the stopped batcher while a
	// final record is still being drained, so re-check the watermark.
	if durable := max(s.b.DurableSeq(), s.rec.LastSeq); durable < seq {
		return fmt.Errorf("journal: skipping snapshot at seq %d: only %d durable", seq, durable)
	}
	frames, err := encodeSnapshot(ds)
	if err != nil {
		return err
	}
	if err := writeSnapshot(s.dir, seq, frames); err != nil {
		return err
	}
	mSnapshotSeconds.ObserveSince(snapStart)
	mSnapshots.Inc()
	s.snapshots.Add(1)
	s.lastSnap.Store(seq)
	// Seal the active segment so future compactions can retire it, then
	// drop every sealed segment fully covered by this snapshot.
	compactStart := time.Now()
	if err := s.log.Rotate(); err != nil {
		return err
	}
	if _, err := s.log.Compact(seq); err != nil {
		return err
	}
	mCompactionSeconds.ObserveSince(compactStart)
	return nil
}

// Close detaches the mutation hook, flushes the pipeline, writes a final
// snapshot (when anything changed) and closes the journal. The planner
// remains usable in memory afterwards, but new mutations are no longer
// persisted.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	// Swap in a hook that fails instead of detaching: a mutation that
	// slips in mid-close (e.g. a straggler request after the HTTP drain
	// timeout) must be reported as not-durable, not silently accepted
	// into memory and lost on restart. The counter (incremented under
	// the planner lock, before the caller learns of the failure) lets
	// snapshotLocked refuse to export in-memory state that now contains
	// effects without journal records.
	s.pl.SetMutationHook(func(context.Context, stgq.Mutation) func() error {
		s.rejected.Add(1)
		return func() error { return fmt.Errorf("%w: store closing", ErrNotDurable) }
	})
	// Unblock tailing readers and stop the background snapshot goroutine
	// before the final cycle so the two never interleave.
	close(s.closeCh)
	s.durNotify.Broadcast()
	close(s.snapStop)
	<-s.snapDone
	var firstErr error
	if err := s.b.Close(); err != nil {
		firstErr = err
	}
	s.snapMu.Lock()
	if err := s.snapshotLocked(); err != nil && firstErr == nil {
		firstErr = err
	}
	s.snapMu.Unlock()
	if err := s.log.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if s.unlock != nil {
		s.unlock()
	}
	return firstErr
}

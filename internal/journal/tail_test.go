package journal

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"

	stgq "repro"
)

// fillStore applies n simple journaled mutations and returns the store's
// planner ids.
func fillStore(t *testing.T, s *Store, n int) {
	t.Helper()
	pl := s.Planner()
	for i := 0; i < n; i++ {
		if _, err := pl.AddPerson(fmt.Sprintf("p%d", i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReadCommittedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{HorizonSlots: 8, SnapshotEvery: -1, MaxSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillStore(t, s, 50) // tiny MaxSegmentBytes: spans several segments

	if n, _ := s.log.Segments(); n < 2 {
		t.Fatalf("test setup: want multiple segments, got %d", n)
	}
	// Read everything back in small chunks, across segment boundaries.
	var got []Record
	after := uint64(0)
	for {
		recs, err := s.TailFrom(after).Read(7)
		if err != nil {
			t.Fatalf("TailFrom(%d).Read: %v", after, err)
		}
		if len(recs) == 0 {
			break
		}
		got = append(got, recs...)
		after = recs[len(recs)-1].Seq
	}
	if len(got) != 50 {
		t.Fatalf("read %d records, want 50", len(got))
	}
	for i, rec := range got {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
		if rec.Mut.Op != stgq.MutAddPerson || rec.Mut.Name != fmt.Sprintf("p%d", i) {
			t.Fatalf("record %d round-tripped wrong: %+v", i, rec.Mut)
		}
	}
	// Mid-stream positions resume exactly.
	recs, err := s.TailFrom(17).Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].Seq != 18 || recs[2].Seq != 20 {
		t.Fatalf("resume read wrong: %+v", recs)
	}
	// Caught-up readers get nothing, without error.
	if recs, err := s.TailFrom(s.DurableSeq()).Read(8); err != nil || len(recs) != 0 {
		t.Fatalf("caught-up read: %v, %v", recs, err)
	}
}

// TestTailCursorIncremental exercises the stateful cursor the streamer
// holds: it must pick up exactly the new records on each wakeup (across
// segment rotations) and report ErrCompacted when compaction overtakes a
// parked position.
func TestTailCursorIncremental(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{HorizonSlots: 8, SnapshotEvery: -1, MaxSegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cur := s.TailFrom(0)
	if recs, err := cur.Read(8); err != nil || len(recs) != 0 {
		t.Fatalf("empty store read: %v, %v", recs, err)
	}
	next := uint64(1)
	pl := s.Planner()
	// Interleave appends and incremental reads; 128-byte segments force
	// several rotations under the cursor.
	for round := 0; round < 6; round++ {
		for i := 0; i < 5; i++ {
			if _, err := pl.AddPerson(fmt.Sprintf("r%dp%d", round, i)); err != nil {
				t.Fatal(err)
			}
		}
		for {
			recs, err := cur.Read(3)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if len(recs) == 0 {
				break
			}
			for _, rec := range recs {
				if rec.Seq != next {
					t.Fatalf("round %d: got seq %d, want %d", round, rec.Seq, next)
				}
				next++
			}
		}
		if next != uint64(5*(round+1))+1 {
			t.Fatalf("round %d: cursor stopped at %d", round, next)
		}
	}
	if n, _ := s.log.Segments(); n < 2 {
		t.Fatalf("test setup: want rotations under the cursor, got %d segment(s)", n)
	}

	// Park a second cursor at the beginning, compact, and expect
	// ErrCompacted on its next read.
	parked := s.TailFrom(2)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.AddPerson("after-snap"); err != nil {
		t.Fatal(err)
	}
	if _, err := parked.Read(8); !errors.Is(err, ErrCompacted) {
		t.Fatalf("parked cursor: want ErrCompacted, got %v", err)
	}
	// The live cursor (at the snapshot position) keeps streaming.
	recs, err := cur.Read(8)
	if err != nil || len(recs) != 1 || recs[0].Seq != next {
		t.Fatalf("live cursor after compaction: %+v, %v", recs, err)
	}
}

// TestTailCursorReportsMidJournalHole pins the no-spin contract: a hole
// between sealed segments (a partially-failed compaction, or damage) must
// surface as an error from Read, never as a silent empty result — an
// empty result sends the streamer into WaitDurable, which returns
// immediately because the watermark is far ahead, and the pair would
// busy-loop forever.
func TestTailCursorReportsMidJournalHole(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{HorizonSlots: 8, SnapshotEvery: -1, MaxSegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillStore(t, s, 30) // several sealed segments
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("test setup: want ≥3 segments, got %d (%v)", len(segs), err)
	}
	holeStart := segs[1].firstSeq
	if err := os.Remove(segs[1].path); err != nil {
		t.Fatal(err)
	}

	cur := s.TailFrom(0)
	sawErr := false
	for i := 0; i < 40; i++ {
		recs, err := cur.Read(8)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("hole surfaced as %v, want ErrCorrupt", err)
			}
			if cur.Pos() >= holeStart {
				t.Fatalf("cursor advanced to %d across the hole at %d", cur.Pos(), holeStart)
			}
			sawErr = true
			break
		}
		if len(recs) == 0 {
			t.Fatalf("silent empty read at pos %d: streamer would busy-loop", cur.Pos())
		}
	}
	if !sawErr {
		t.Fatal("cursor never reported the hole")
	}
}

func TestReadCommittedAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{HorizonSlots: 8, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillStore(t, s, 20)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 5)

	// Positions below the snapshot are compacted away...
	if _, err := s.TailFrom(0).Read(8); !errors.Is(err, ErrCompacted) {
		t.Fatalf("want ErrCompacted below the snapshot, got %v", err)
	}
	if _, err := s.TailFrom(19).Read(8); !errors.Is(err, ErrCompacted) {
		t.Fatalf("want ErrCompacted below the snapshot, got %v", err)
	}
	// ...the snapshot position itself and above still stream.
	recs, err := s.TailFrom(20).Read(8)
	if err != nil || len(recs) != 5 || recs[0].Seq != 21 {
		t.Fatalf("post-snapshot read: %+v, %v", recs, err)
	}
	// And the bootstrap path serves the snapshot that covers the gap.
	frames, seq, err := s.ReplicationSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 20 {
		t.Fatalf("snapshot seq %d, want 20", seq)
	}
	if pl := replayed(t, frames, 8); pl.NumPeople() != 20 {
		t.Fatalf("snapshot holds %d people, want 20", pl.NumPeople())
	}
}

// replayed replays snapshot frames onto an empty planner of the horizon.
func replayed(t *testing.T, frames []byte, horizon int) *stgq.Planner {
	t.Helper()
	snap, err := ReplaySnapshot(frames, horizon)
	if err != nil {
		t.Fatal(err)
	}
	return snap.pl
}

func TestReplicationSnapshotForcesOne(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{HorizonSlots: 8, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Empty store, nothing journaled: no frames at seq 0.
	frames, seq, err := s.ReplicationSnapshot()
	if err != nil || seq != 0 || len(frames) != 0 {
		t.Fatalf("empty-store snapshot: seq %d, err %v, %d bytes", seq, err, len(frames))
	}

	// With journaled-but-never-snapshotted state, one is forced.
	fillStore(t, s, 3)
	frames, seq, err = s.ReplicationSnapshot()
	if err != nil || seq != 3 {
		t.Fatalf("forced snapshot: seq %d, err %v", seq, err)
	}
	if pl := replayed(t, frames, 8); pl.NumPeople() != 3 {
		t.Fatalf("forced snapshot holds %d people, want 3", pl.NumPeople())
	}
}

func TestWaitDurable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{HorizonSlots: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillStore(t, s, 2)

	// Already-durable positions return immediately.
	if err := s.WaitDurable(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	// A waiter parked beyond the head wakes when the next commit lands.
	var woke atomic.Bool
	done := make(chan error, 1)
	go func() {
		err := s.WaitDurable(context.Background(), 2)
		woke.Store(true)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if woke.Load() {
		t.Fatal("waiter woke without a new record")
	}
	fillStore(t, s, 1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woke after commit")
	}
	// Context cancellation unblocks.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.WaitDurable(ctx, 99); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
	// Close unblocks parked waiters with ErrClosed.
	go func() {
		done <- s.WaitDurable(context.Background(), 99)
	}()
	time.Sleep(10 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left a waiter parked")
	}
}

// TestBackgroundSnapshotDoesNotBlockMutations pins the satellite
// requirement: with the snapshot cycle on its own goroutine, a slow
// snapshot (held open mid-cycle via the afterExport seam) must not block
// concurrent mutations.
func TestBackgroundSnapshotDoesNotBlockMutations(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{HorizonSlots: 8, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	inSnap := make(chan struct{})  // closed when the cycle is mid-snapshot
	release := make(chan struct{}) // test lets the cycle finish
	var snapsEntered atomic.Int32
	s.afterExport = func() {
		if snapsEntered.Add(1) == 1 {
			close(inSnap)
			<-release
		}
	}

	// Cross the threshold; the cycle starts in the background and parks
	// in afterExport — while the mutating calls all return promptly.
	fillStore(t, s, 4)
	select {
	case <-inSnap:
	case <-time.After(5 * time.Second):
		t.Fatal("background snapshot never started")
	}

	// Concurrent mutations must complete while the snapshot is stuck.
	mutated := make(chan error, 1)
	go func() {
		pl := s.Planner()
		for i := 0; i < 8; i++ {
			if _, err := pl.AddPerson(fmt.Sprintf("late%d", i)); err != nil {
				mutated <- err
				return
			}
		}
		mutated <- nil
	}()
	select {
	case err := <-mutated:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("mutations blocked behind an in-flight snapshot")
	}
	close(release)

	// The cycle completes and records its snapshot.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Stats().LastSnapshotSeq >= 4 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("snapshot never completed: %+v", s.Stats())
}

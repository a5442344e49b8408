package journal

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	stgq "repro"
)

// genMutations builds a random but always-valid mutation sequence: it
// starts with a well-connected core (so group queries are feasible) and
// then mixes adds, connects, disconnects and availability edits, tracking
// enough state that every generated mutation succeeds when applied.
func genMutations(r *rand.Rand, n, horizon int) []stgq.Mutation {
	var muts []stgq.Mutation
	people := 0
	type pair [2]int
	edges := map[pair]bool{}
	key := func(a, b int) pair {
		if a > b {
			a, b = b, a
		}
		return pair{a, b}
	}
	addPerson := func(name string) {
		muts = append(muts, stgq.Mutation{Op: stgq.MutAddPerson, Name: name, Person: stgq.PersonID(people)})
		people++
	}
	connect := func(a, b int, d float64) {
		muts = append(muts, stgq.Mutation{Op: stgq.MutConnect, A: stgq.PersonID(a), B: stgq.PersonID(b), Distance: d})
		edges[key(a, b)] = true
	}

	// Feasible core: 6 people, near-clique, broadly available.
	for i := 0; i < 6; i++ {
		addPerson(fmt.Sprintf("core%d", i))
	}
	for a := 0; a < 6; a++ {
		for b := a + 1; b < 6; b++ {
			if a == 0 || r.Float64() < 0.7 {
				connect(a, b, float64(1+r.Intn(30)))
			}
		}
	}
	for p := 0; p < 6; p++ {
		muts = append(muts, stgq.Mutation{Op: stgq.MutSetAvailable, Person: stgq.PersonID(p), From: 0, To: horizon})
	}

	for len(muts) < n {
		switch x := r.Float64(); {
		case x < 0.15:
			name := fmt.Sprintf("p%d", people)
			if r.Float64() < 0.1 {
				name = "core0" // duplicate name: exercises disambiguation
			}
			addPerson(name)
		case x < 0.55:
			a, b := r.Intn(people), r.Intn(people)
			if a == b {
				continue
			}
			connect(a, b, float64(1+r.Intn(40)))
		case x < 0.62:
			if len(edges) == 0 {
				continue
			}
			// Pick a random existing edge.
			i, target := 0, r.Intn(len(edges))
			for e := range edges {
				if i == target {
					muts = append(muts, stgq.Mutation{Op: stgq.MutDisconnect, A: stgq.PersonID(e[0]), B: stgq.PersonID(e[1])})
					delete(edges, e)
					break
				}
				i++
			}
		case x < 0.67:
			p := r.Intn(people)
			muts = append(muts, stgq.Mutation{Op: stgq.MutSetPolicy,
				Person: stgq.PersonID(p), Policy: stgq.SharePolicy(r.Intn(3))})
		default:
			p := r.Intn(people)
			from := r.Intn(horizon)
			to := from + r.Intn(horizon-from+1)
			op := stgq.MutSetAvailable
			if r.Float64() < 0.3 {
				op = stgq.MutSetBusy
			}
			muts = append(muts, stgq.Mutation{Op: op, Person: stgq.PersonID(p), From: from, To: to})
		}
	}
	return muts
}

// applyAll replays muts[0:n] into a fresh planner (no journaling).
func applyAll(t *testing.T, muts []stgq.Mutation, n, horizon int) *stgq.Planner {
	t.Helper()
	pl := stgq.NewPlanner(horizon)
	for i := 0; i < n; i++ {
		if err := Apply(context.Background(), pl, Record{Seq: uint64(i + 1), Mut: muts[i]}); err != nil {
			t.Fatalf("reference apply %d: %v", i, err)
		}
	}
	return pl
}

// crash abandons a store the way kill -9 would: the OS file is left as-is,
// nothing is flushed beyond what mutations already acked, no snapshot is
// written. The data-dir lock is released because the kernel drops flocks
// when the holding process dies.
func crash(s *Store) {
	s.pl.SetMutationHook(nil)
	s.b.Close()
	s.log.Close()
	s.unlock()
}

// assertPlannersAgree compares the two planners' populations and their
// answers to a group and an activity query.
func assertPlannersAgree(t *testing.T, tag string, got, want *stgq.Planner) {
	t.Helper()
	if got.NumPeople() != want.NumPeople() {
		t.Fatalf("%s: people %d, want %d", tag, got.NumPeople(), want.NumPeople())
	}
	if got.NumFriendships() != want.NumFriendships() {
		t.Fatalf("%s: friendships %d, want %d", tag, got.NumFriendships(), want.NumFriendships())
	}
	for p := 0; p < want.NumPeople(); p++ {
		if g, w := got.SchedulePolicy(stgq.PersonID(p)), want.SchedulePolicy(stgq.PersonID(p)); g != w {
			t.Fatalf("%s: policy of person %d = %v, want %v", tag, p, g, w)
		}
	}
	sg := stgq.SGQuery{Initiator: 0, P: 3, S: 2, K: 1}
	gotG, errG := got.FindGroup(sg)
	wantG, errW := want.FindGroup(sg)
	if (errG == nil) != (errW == nil) {
		t.Fatalf("%s: FindGroup errors diverge: %v vs %v", tag, errG, errW)
	}
	if errG == nil && gotG.TotalDistance != wantG.TotalDistance {
		t.Fatalf("%s: FindGroup distance %v, want %v", tag, gotG.TotalDistance, wantG.TotalDistance)
	}
	st := stgq.STGQuery{SGQuery: sg, M: 2}
	gotP, errG := got.PlanActivity(st)
	wantP, errW := want.PlanActivity(st)
	if (errG == nil) != (errW == nil) {
		t.Fatalf("%s: PlanActivity errors diverge: %v vs %v", tag, errG, errW)
	}
	if errG == nil {
		if gotP.TotalDistance != wantP.TotalDistance || gotP.Window != wantP.Window {
			t.Fatalf("%s: PlanActivity (%v, %+v), want (%v, %+v)",
				tag, gotP.TotalDistance, gotP.Window, wantP.TotalDistance, wantP.Window)
		}
	}
}

func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err %v)", dir, err)
	}
	return segs[len(segs)-1].path
}

// TestCrashRecoveryRandomTruncation is the property-style round trip the
// subsystem exists for: apply a random mutation sequence, kill the journal
// mid-stream by truncating at an arbitrary byte offset (including inside a
// record), recover, and check the recovered planner answers queries
// identically to a planner that only saw the surviving prefix.
func TestCrashRecoveryRandomTruncation(t *testing.T) {
	const horizon = 48
	for trial := 0; trial < 12; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(int64(1000 + trial)))
			muts := genMutations(r, 60+r.Intn(80), horizon)

			dir := t.TempDir()
			s, err := Open(dir, Options{HorizonSlots: horizon, SnapshotEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			for i, m := range muts {
				if err := Apply(context.Background(), s.pl, Record{Mut: m}); err != nil {
					t.Fatalf("mutation %d: %v", i, err)
				}
			}
			crash(s)

			// Truncate the journal at an arbitrary offset.
			seg := lastSegment(t, dir)
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			cut := r.Intn(len(data) + 1)
			if err := os.Truncate(seg, int64(cut)); err != nil {
				t.Fatal(err)
			}
			survivors, _ := scanFrames(data[:cut])

			s2, err := Open(dir, Options{HorizonSlots: horizon, SnapshotEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			rec := s2.Recovery()
			if int(rec.LastSeq) != len(survivors) {
				t.Fatalf("recovered seq %d, want %d (cut at %d of %d)", rec.LastSeq, len(survivors), cut, len(data))
			}
			if cut < len(data) && rec.TruncatedBytes == 0 && len(survivors) < len(muts) {
				// The cut removed whole frames only when it landed exactly
				// on a boundary; otherwise a torn tail must be reported.
				if _, consumed := scanFrames(data[:cut]); consumed != cut {
					t.Fatalf("cut inside a record but no torn bytes reported")
				}
			}
			want := applyAll(t, muts, len(survivors), horizon)
			assertPlannersAgree(t, fmt.Sprintf("cut=%d/%d", cut, len(data)), s2.Planner(), want)

			// The recovered store must accept and persist new mutations.
			if _, err := s2.Planner().AddPerson("postcrash"); err != nil {
				t.Fatalf("post-recovery mutation: %v", err)
			}
		})
	}
}

// TestCleanRestartReplaysNothingAfterSnapshot checks the snapshot path: a
// clean Close folds everything into a snapshot, so the next Open replays
// zero records and still matches a never-restarted reference.
func TestCleanRestartReplaysNothingAfterSnapshot(t *testing.T) {
	const horizon = 48
	r := rand.New(rand.NewSource(7))
	muts := genMutations(r, 120, horizon)

	dir := t.TempDir()
	s, err := Open(dir, Options{HorizonSlots: horizon, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range muts {
		if err := Apply(context.Background(), s.pl, Record{Mut: m}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{HorizonSlots: horizon})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if rec.ReplayedRecords != 0 {
		t.Fatalf("replayed %d records after clean shutdown, want 0", rec.ReplayedRecords)
	}
	if rec.SnapshotSeq != uint64(len(muts)) {
		t.Fatalf("snapshot seq %d, want %d", rec.SnapshotSeq, len(muts))
	}
	assertPlannersAgree(t, "clean restart", s2.Planner(), applyAll(t, muts, len(muts), horizon))
}

// TestSnapshotCompactionRetiresSegments checks automatic snapshots retire
// covered segments and the store keeps answering correctly across cycles.
func TestSnapshotCompactionRetiresSegments(t *testing.T) {
	const horizon = 48
	r := rand.New(rand.NewSource(11))
	muts := genMutations(r, 300, horizon)

	dir := t.TempDir()
	s, err := Open(dir, Options{
		HorizonSlots:    horizon,
		SnapshotEvery:   32,
		MaxSegmentBytes: 1024, // force frequent size-based rotation too
	})
	if err != nil {
		t.Fatal(err)
	}
	pl := s.Planner()
	for i, m := range muts {
		if err := Apply(context.Background(), pl, Record{Mut: m}); err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Snapshots == 0 {
		t.Fatalf("no automatic snapshots after %d mutations: %+v", len(muts), st)
	}
	if st.LastSnapshotSeq == 0 {
		t.Fatalf("snapshot seq not recorded: %+v", st)
	}
	// Compaction must have retired the covered segments: everything before
	// the last snapshot is redundant, so live segments only span the tail.
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		if seg.firstSeq != 0 && seg.lastSeq != 0 && seg.lastSeq < st.LastSnapshotSeq && seg.firstSeq < st.LastSnapshotSeq {
			// A sealed pre-snapshot segment survived; only acceptable when
			// it holds records past the snapshot.
			t.Fatalf("segment %s (first %d) not compacted; last snapshot %d",
				seg.path, seg.firstSeq, st.LastSnapshotSeq)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{HorizonSlots: horizon})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	assertPlannersAgree(t, "post-compaction restart", s2.Planner(), applyAll(t, muts, len(muts), horizon))
}

// TestConcurrentMutatorsSurviveRestart hammers a store from many
// goroutines, then restarts and checks nothing acknowledged was lost.
func TestConcurrentMutatorsSurviveRestart(t *testing.T) {
	const (
		horizon   = 48
		writers   = 16
		perWriter = 30
	)
	dir := t.TempDir()
	s, err := Open(dir, Options{HorizonSlots: horizon, SnapshotEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	pl := s.Planner()

	// Everyone needs people to exist before connecting to them.
	for i := 0; i < writers; i++ {
		if _, err := pl.AddPerson(fmt.Sprintf("seed%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers*perWriter)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				switch r.Intn(3) {
				case 0:
					if _, err := pl.AddPerson(fmt.Sprintf("w%d-%d", w, i)); err != nil {
						errs <- err
					}
				case 1:
					a, b := r.Intn(writers), r.Intn(writers)
					if a != b {
						if err := pl.Connect(stgq.PersonID(a), stgq.PersonID(b), float64(1+r.Intn(20))); err != nil {
							errs <- err
						}
					}
				default:
					if err := pl.SetAvailable(stgq.PersonID(r.Intn(writers)), 0, horizon); err != nil {
						errs <- err
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	people, friends := pl.NumPeople(), pl.NumFriendships()
	stats := s.Stats()
	if stats.LastSeq != stats.DurableSeq {
		t.Fatalf("acknowledged writes not durable: last %d, durable %d", stats.LastSeq, stats.DurableSeq)
	}
	crash(s) // no clean shutdown, no final snapshot

	s2, err := Open(dir, Options{HorizonSlots: horizon})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Planner().NumPeople(); got != people {
		t.Fatalf("recovered %d people, want %d", got, people)
	}
	if got := s2.Planner().NumFriendships(); got != friends {
		t.Fatalf("recovered %d friendships, want %d", got, friends)
	}
}

// TestCorruptMiddleSegmentAborts: damage anywhere but the final segment's
// tail must fail recovery loudly instead of silently dropping history.
func TestCorruptMiddleSegmentAborts(t *testing.T) {
	const horizon = 48
	dir := t.TempDir()
	s, err := Open(dir, Options{HorizonSlots: horizon, SnapshotEvery: -1, MaxSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	for _, m := range genMutations(r, 80, horizon) {
		if err := Apply(context.Background(), s.pl, Record{Mut: m}); err != nil {
			t.Fatal(err)
		}
	}
	crash(s)

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %d", len(segs))
	}
	// Chop the FIRST segment: that is history, not a torn tail.
	if err := os.Truncate(segs[0].path, segs[0].firstSeqAsTruncationOffset()); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{HorizonSlots: horizon}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("recovery over damaged history: err = %v, want ErrCorrupt", err)
	}
}

// firstSeqAsTruncationOffset returns a mid-file offset for damage tests.
func (s segmentInfo) firstSeqAsTruncationOffset() int64 {
	if fi, err := os.Stat(s.path); err == nil && fi.Size() > 3 {
		return fi.Size() / 2
	}
	return 1
}

// TestCorruptMiddleOfFinalSegmentAborts: a bit flip early in the final
// segment with intact (acknowledged) records after it must abort recovery,
// not be "truncated" away along with everything behind it.
func TestCorruptMiddleOfFinalSegmentAborts(t *testing.T) {
	const horizon = 48
	dir := t.TempDir()
	s, err := Open(dir, Options{HorizonSlots: horizon, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	for _, m := range genMutations(r, 40, horizon) {
		if err := Apply(context.Background(), s.pl, Record{Mut: m}); err != nil {
			t.Fatal(err)
		}
	}
	crash(s)

	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of an early record (offset 12 is inside the
	// first record's payload), leaving hundreds of valid bytes after it.
	data[12] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{HorizonSlots: horizon}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-segment corruption: err = %v, want ErrCorrupt", err)
	}
}

// TestJournalErrorFailsMutation: when the sink dies, mutations must report
// the failure to the caller rather than pretend durability.
func TestJournalErrorFailsMutation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{HorizonSlots: 8, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pl := s.Planner()
	if _, err := pl.AddPerson("ok"); err != nil {
		t.Fatal(err)
	}
	// Close the underlying log out from under the batcher: the next
	// append must surface an error.
	s.log.Close()
	if _, err := pl.AddPerson("doomed"); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("mutation with dead journal: err = %v, want ErrNotDurable", err)
	}
}

// TestHorizonPersistsAcrossJournalOnlyRestart: the schedule horizon is
// recorded in meta.json at creation, so a journal-only recovery (crash
// before the first snapshot) cannot be skewed — or broken — by restarting
// with a different -horizon flag.
func TestHorizonPersistsAcrossJournalOnlyRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{HorizonSlots: 300, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Planner().AddPerson("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Planner().SetAvailable(0, 250, 260); err != nil {
		t.Fatal(err)
	}
	crash(s)

	s2, err := Open(dir, Options{HorizonSlots: 48}) // wrong flag must not matter
	if err != nil {
		t.Fatalf("recovery with mismatched -horizon: %v", err)
	}
	defer s2.Close()
	if got := s2.Planner().Horizon(); got != 300 {
		t.Fatalf("recovered horizon %d, want 300", got)
	}
}

// TestOpenExcludesSecondOpener: two stores appending to one directory
// would interleave sequence numbers and corrupt the journal, so the
// second Open must fail fast while the first holds the lock.
func TestOpenExcludesSecondOpener(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{HorizonSlots: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{HorizonSlots: 8}); err == nil {
		t.Fatal("second Open on a live data dir should fail")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{HorizonSlots: 8})
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	s2.Close()
}

func TestOpenRejectsUnwritableDir(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(file, "sub"), Options{}); err == nil {
		t.Fatal("Open inside a regular file should fail")
	}
}

package journal

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// TestEpochLifecycleRoundTrip is the epoch property test: across random
// sequences of mutations, snapshots, clean closes, crashes and promotions
// (BumpEpoch), the epoch recovered by Open always equals the last
// persisted value, never regresses, and the data survives alongside it.
func TestEpochLifecycleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()

	s, err := Open(dir, Options{HorizonSlots: 8, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 1 {
		t.Fatalf("fresh store at epoch %d, want 1", s.Epoch())
	}
	if s.Stats().Epoch != 1 {
		t.Fatalf("stats epoch %d, want 1", s.Stats().Epoch)
	}

	wantEpoch := uint64(1)
	people := 0
	for round := 0; round < 12; round++ {
		for i := 0; i < 1+rng.Intn(5); i++ {
			if _, err := s.Planner().AddPerson("p"); err != nil {
				t.Fatal(err)
			}
			people++
		}
		if rng.Intn(2) == 0 {
			if err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(2) == 0 {
			crash(s) // kill -9: epoch must live in meta, not in memory
		} else if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 { // promotion between lives
			got, err := BumpEpoch(dir, uint64(people))
			if err != nil {
				t.Fatal(err)
			}
			wantEpoch++
			if got != wantEpoch {
				t.Fatalf("round %d: BumpEpoch returned %d, want %d", round, got, wantEpoch)
			}
		}
		if s, err = Open(dir, Options{SnapshotEvery: -1}); err != nil {
			t.Fatal(err)
		}
		if s.Epoch() != wantEpoch {
			t.Fatalf("round %d: recovered epoch %d, want %d", round, s.Epoch(), wantEpoch)
		}
		if got := s.Planner().NumPeople(); got != people {
			t.Fatalf("round %d: recovered %d people, want %d", round, got, people)
		}
	}

	// AdvanceEpoch: lower or equal values are no-ops, higher values
	// persist (fork point included) across a crash.
	if err := s.AdvanceEpoch(wantEpoch-1, 1); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != wantEpoch {
		t.Fatalf("AdvanceEpoch regressed the epoch to %d", s.Epoch())
	}
	if err := s.AdvanceEpoch(wantEpoch+5, 77); err != nil {
		t.Fatal(err)
	}
	wantEpoch += 5
	crash(s)
	s, err = Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != wantEpoch {
		t.Fatalf("advanced epoch %d lost in crash, recovered %d", wantEpoch, s.Epoch())
	}
	if s.EpochStart() != 77 {
		t.Fatalf("epoch fork point lost in crash: %d, want 77", s.EpochStart())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEpochSeededStores pins the epoch of the two seeding paths: a bulk
// import starts the first history (epoch 1); a replication reset adopts
// the leader's epoch with the leader's state.
func TestEpochSeededStores(t *testing.T) {
	ds := dataset.Synthetic(10, 7, 1)

	imp := t.TempDir()
	if err := ImportDataset(imp, ds); err != nil {
		t.Fatal(err)
	}
	s, err := Open(imp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 1 {
		t.Fatalf("imported store at epoch %d, want 1", s.Epoch())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	rst := t.TempDir()
	if err := ResetFromSnapshot(rst, 42, 7, 30, ds.Cal.Horizon(), snapshotOf(t, ds)); err != nil {
		t.Fatal(err)
	}
	s, err = Open(rst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 7 {
		t.Fatalf("reset store at epoch %d, want the leader's 7", s.Epoch())
	}
	if s.EpochStart() != 30 {
		t.Fatalf("reset store fork point %d, want the leader's 30", s.EpochStart())
	}
	if s.LastSeq() != 42 {
		t.Fatalf("reset store at seq %d, want 42", s.LastSeq())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEpochLegacyMetaNormalized: a meta.json written before epochs
// existed (no epoch field) loads as epoch 1, and the first promotion
// lands at 2.
func TestEpochLegacyMetaNormalized(t *testing.T) {
	dir := t.TempDir()
	if err := writeMeta(dir, storeMeta{HorizonSlots: 8}); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 1 {
		t.Fatalf("legacy store at epoch %d, want 1", s.Epoch())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := BumpEpoch(dir, 0); err != nil || got != 2 {
		t.Fatalf("BumpEpoch on legacy store = %d, %v; want 2", got, err)
	}
}

package journal

import (
	"testing"

	stgq "repro"
)

// TestLocationSurvivesRestartAndSnapshot pins the two durability paths
// of a MutSetLocation record: journal-tail replay after a restart, and —
// after a snapshot folds the record in and compaction retires its
// segment — the snapshot's own frames.
func TestLocationSurvivesRestartAndSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{HorizonSlots: 14, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	pl := st.Planner()
	for _, name := range []string{"ana", "bo", "cy"} {
		if _, err := pl.AddPerson(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := pl.SetLocation(1, 120.5, -340.25); err != nil {
		t.Fatal(err)
	}
	if err := pl.SetLocation(2, 0, 0); err != nil {
		t.Fatal(err)
	}
	// A move must replay as a move, not as two locations.
	if err := pl.SetLocation(1, 99, 101); err != nil {
		t.Fatal(err)
	}
	crash(st) // no final snapshot: recovery must replay the journal tail

	assertLocations := func(stage string, pl *stgq.Planner) {
		t.Helper()
		if x, y, ok := pl.Location(1); !ok || x != 99 || y != 101 {
			t.Fatalf("%s: location of 1 = (%v,%v,%v), want (99,101,true)", stage, x, y, ok)
		}
		if x, y, ok := pl.Location(2); !ok || x != 0 || y != 0 {
			t.Fatalf("%s: location of 2 = (%v,%v,%v), want (0,0,true)", stage, x, y, ok)
		}
		if _, _, ok := pl.Location(0); ok {
			t.Fatalf("%s: person 0 gained a location out of nowhere", stage)
		}
		if got := pl.NumLocated(); got != 2 {
			t.Fatalf("%s: NumLocated = %d, want 2", stage, got)
		}
	}

	st, err = Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	assertLocations("after replay", st.Planner())

	// Fold everything into a snapshot and retire the journal records; the
	// next recovery sees no MutSetLocation record at all, only the snapshot.
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().LastSnapshotSeq; got != st.LastSeq() {
		t.Fatalf("snapshot covers seq %d, want %d", got, st.LastSeq())
	}
	crash(st)

	st, err = Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Recovery().ReplayedRecords; got != 0 {
		t.Fatalf("replayed %d records despite covering snapshot", got)
	}
	assertLocations("after snapshot recovery", st.Planner())
}

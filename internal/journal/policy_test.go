package journal

import (
	"testing"

	stgq "repro"
)

// TestPolicySurvivesRestartAndSnapshot pins the two durability paths of a
// MutSetPolicy record: journal-tail replay after a restart, and — after a
// snapshot folds the record in and compaction retires its segment — the
// snapshot's own frames.
func TestPolicySurvivesRestartAndSnapshot(t *testing.T) {
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
	if err := pl.SetSchedulePolicy(1, stgq.ShareFriends); err != nil {
		t.Fatal(err)
	}
	if err := pl.SetSchedulePolicy(2, stgq.ShareNone); err != nil {
		t.Fatal(err)
	}
	crash(st) // no final snapshot: recovery must replay the journal tail

	st, err = Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	pl = st.Planner()
	if got := pl.SchedulePolicy(1); got != stgq.ShareFriends {
		t.Fatalf("after replay: policy of 1 = %v, want friends", got)
	}
	if got := pl.SchedulePolicy(2); got != stgq.ShareNone {
		t.Fatalf("after replay: policy of 2 = %v, want none", got)
	}

	// Fold everything into a snapshot and retire the journal records; the
	// next recovery sees no MutSetPolicy record at all, only the snapshot.
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
	pl = st.Planner()
	if got := pl.SchedulePolicy(1); got != stgq.ShareFriends {
		t.Fatalf("after snapshot recovery: policy of 1 = %v, want friends", got)
	}
	if got := pl.SchedulePolicy(2); got != stgq.ShareNone {
		t.Fatalf("after snapshot recovery: policy of 2 = %v, want none", got)
	}
	// Resetting back to the default must also round-trip (it deletes the
	// map entry rather than storing ShareAll).
	if err := pl.SetSchedulePolicy(2, stgq.ShareAll); err != nil {
		t.Fatal(err)
	}
}

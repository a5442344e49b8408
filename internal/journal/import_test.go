package journal

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	stgq "repro"
	"repro/internal/dataset"
)

// snapshotOf encodes ds as the snapshot frames ResetFromSnapshot takes.
func snapshotOf(t *testing.T, ds *dataset.Dataset) []byte {
	t.Helper()
	frames, err := encodeSnapshot(ds)
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

func TestImportDatasetIntoEmptyStore(t *testing.T) {
	dir := t.TempDir()
	ds := dataset.Real194(42, 7)
	if err := ImportDataset(dir, ds); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{HorizonSlots: 1}) // ignored: the import pinned the horizon
	if err != nil {
		t.Fatal(err)
	}
	pl := s.Planner()
	if pl.NumPeople() != ds.Graph.NumVertices() || pl.NumFriendships() != ds.Graph.NumEdges() {
		t.Fatalf("imported %d/%d, want %d/%d",
			pl.NumPeople(), pl.NumFriendships(), ds.Graph.NumVertices(), ds.Graph.NumEdges())
	}
	if pl.Horizon() != ds.Cal.Horizon() {
		t.Fatalf("horizon %d, want %d", pl.Horizon(), ds.Cal.Horizon())
	}
	// The imported store journals on top of the snapshot and recovers.
	if _, err := pl.AddPerson("latecomer"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Planner().NumPeople(); got != ds.Graph.NumVertices()+1 {
		t.Fatalf("restart lost the post-import mutation: %d people", got)
	}
}

// TestImportRefusesWhatReplayRefuses: a dataset the next boot could not
// replay is refused before anything is written, with the person named.
func TestImportRefusesWhatReplayRefuses(t *testing.T) {
	cases := map[string]struct {
		spoil func(*dataset.Dataset)
		want  string
	}{
		"name too long": {func(ds *dataset.Dataset) {
			ds.Graph.AddVertex(strings.Repeat("x", stgq.MaxNameLen+1)) //nolint:errcheck // a fresh label cannot clash
		}, "add-person of person 10"},
		"unknown policy":   {func(ds *dataset.Dataset) { ds.Policies = map[int]int{3: 9} }, "set-policy of person 3"},
		"policy of nobody": {func(ds *dataset.Dataset) { ds.Policies = map[int]int{12: 1} }, "set-policy of person 12"},
		"non-finite location": {func(ds *dataset.Dataset) {
			ds.Locations = map[int][2]float64{4: {math.Inf(1), 0}}
		}, "set-location of person 4"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			ds := dataset.Synthetic(10, 7, 1)
			tc.spoil(ds)
			dir := t.TempDir()
			err := ImportDataset(dir, ds)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("import: err = %v, want one naming %q", err, tc.want)
			}
			if empty, err := storeEmpty(dir); err != nil || !empty {
				t.Fatalf("a refused import left state behind (empty=%v, err=%v)", empty, err)
			}
		})
	}
}

func TestImportDatasetRefusesNonEmptyStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{HorizonSlots: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Planner().AddPerson("resident"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ImportDataset(dir, dataset.Real194(42, 7)); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("import into a non-empty store: want ErrNotEmpty, got %v", err)
	}
	// A merely-created durable dir (meta only, no mutations) is also
	// refused: its horizon is already pinned.
	dir2 := t.TempDir()
	s2, err := Open(dir2, Options{HorizonSlots: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ImportDataset(dir2, dataset.Real194(42, 7)); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("import over an initialized store: want ErrNotEmpty, got %v", err)
	}
}

// TestInterruptedResetIsDiscarded pins the crash contract of
// ResetFromSnapshot: state found next to a leftover RESETTING marker —
// half-wiped old files or a seed whose marker removal never landed — is
// condemned, detectable via ResetPending and discarded by AbortReset,
// never resumed from.
func TestInterruptedResetIsDiscarded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{HorizonSlots: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Planner().AddPerson("diverged"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash right after the marker became durable: old state
	// still fully present.
	if err := os.WriteFile(filepath.Join(dir, resetMarkerName), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if !ResetPending(dir) {
		t.Fatal("marker not detected")
	}
	if err := AbortReset(dir); err != nil {
		t.Fatal(err)
	}
	if ResetPending(dir) {
		t.Fatal("marker survived AbortReset")
	}
	empty, err := storeEmpty(dir)
	if err != nil || !empty {
		t.Fatalf("condemned state survived AbortReset (empty=%v, err=%v)", empty, err)
	}
	// And a completed reset leaves no marker behind.
	ds := dataset.Real194(42, 7)
	if err := ResetFromSnapshot(dir, 9, 1, 0, ds.Cal.Horizon(), snapshotOf(t, ds)); err != nil {
		t.Fatal(err)
	}
	if ResetPending(dir) {
		t.Fatal("marker survived a completed reset")
	}
}

func TestResetFromSnapshotReplacesState(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{HorizonSlots: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Planner().AddPerson("old"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	ds := dataset.Real194(7, 7)
	if err := ResetFromSnapshot(dir, 123, 3, 99, ds.Cal.Horizon(), snapshotOf(t, ds)); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Planner().NumPeople(); got != ds.Graph.NumVertices() {
		t.Fatalf("reset store has %d people, want %d", got, ds.Graph.NumVertices())
	}
	if got := s2.LastSeq(); got != 123 {
		t.Fatalf("reset store resumes at seq %d, want 123", got)
	}
	// New mutations continue the leader's numbering.
	if _, err := s2.Planner().AddPerson("next"); err != nil {
		t.Fatal(err)
	}
	if got := s2.LastSeq(); got != 124 {
		t.Fatalf("post-reset mutation got seq %d, want 124", got)
	}
}

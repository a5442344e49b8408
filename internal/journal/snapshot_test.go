package journal

import (
	"cmp"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	stgq "repro"
	"repro/internal/dataset"
)

// TestSnapshotRoundTripsEveryMutationKind: a store that applied a seeded
// random sequence of all seven mutation kinds — disconnects, policies,
// locations and people added after the calendar included — comes back
// from its snapshot alone (Snapshot + Close + Open, nothing replayed)
// with the same exported state.
func TestSnapshotRoundTripsEveryMutationKind(t *testing.T) {
	const horizon = 96 // two words per calendar row
	r := rand.New(rand.NewSource(11))
	var muts []stgq.Mutation
	people := 0
	for _, m := range genMutations(r, 400, horizon) {
		muts = append(muts, m)
		if m.Op == stgq.MutAddPerson {
			people++
		}
		if r.Float64() < 0.1 {
			muts = append(muts, stgq.Mutation{Op: stgq.MutSetLocation, Person: stgq.PersonID(r.Intn(people)),
				X: r.Float64() * 1000, Y: -r.Float64() * 1000})
		}
	}
	seen := map[stgq.MutationOp]bool{}
	for _, m := range muts {
		seen[m.Op] = true
	}
	if len(seen) != 7 {
		t.Fatalf("sequence covers %d mutation kinds, want 7", len(seen))
	}

	dir := t.TempDir()
	s, err := Open(dir, Options{HorizonSlots: horizon, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range muts {
		if err := Apply(context.Background(), s.pl, Record{Seq: uint64(i + 1), Mut: m}); err != nil {
			t.Fatal(err)
		}
	}
	want := s.pl.Export(nil)
	if err := s.Snapshot(); err != nil {
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
	if rec := s2.Recovery(); rec.ReplayedRecords != 0 || rec.SnapshotSeq != uint64(len(muts)) {
		t.Fatalf("recovery %+v: want the snapshot at seq %d and nothing replayed", rec, len(muts))
	}
	assertSameState(t, s2.Planner().Export(nil), want)
}

// assertSameState compares two exports: people and names, edges with
// their distances (in any adjacency order), calendar rows, policies and
// locations. Community assignments are not planner state.
func assertSameState(t *testing.T, got, want *dataset.Dataset) {
	t.Helper()
	type edge struct {
		u, v int
		d    float64
	}
	edges := func(d *dataset.Dataset) []edge {
		var out []edge
		for u := range d.Graph.NumVertices() {
			d.Graph.Neighbors(u, func(v int, dist float64) {
				if u < v {
					out = append(out, edge{u, v, dist})
				}
			})
		}
		slices.SortFunc(out, func(a, b edge) int { return cmp.Or(cmp.Compare(a.u, b.u), cmp.Compare(a.v, b.v)) })
		return out
	}
	n := want.Graph.NumVertices()
	if got.Graph.NumVertices() != n || got.Cal.Users() != want.Cal.Users() || got.Cal.Horizon() != want.Cal.Horizon() {
		t.Fatalf("shape: %d people, %d rows × %d slots; want %d, %d × %d", got.Graph.NumVertices(),
			got.Cal.Users(), got.Cal.Horizon(), n, want.Cal.Users(), want.Cal.Horizon())
	}
	for v := range n {
		if g, w := got.Graph.Label(v), want.Graph.Label(v); g != w {
			t.Fatalf("person %d named %q, want %q", v, g, w)
		}
		if !got.Cal.Row(v).Equal(want.Cal.Row(v)) {
			t.Fatalf("person %d free at %v, want %v", v, got.Cal.Row(v), want.Cal.Row(v))
		}
	}
	if g, w := edges(got), edges(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("edges differ:\n got %v\nwant %v", g, w)
	}
	if !reflect.DeepEqual(got.Policies, want.Policies) {
		t.Fatalf("policies %v, want %v", got.Policies, want.Policies)
	}
	if !reflect.DeepEqual(got.Locations, want.Locations) {
		t.Fatalf("locations %v, want %v", got.Locations, want.Locations)
	}
	if got.Days != want.Days {
		t.Fatalf("days %d, want %d", got.Days, want.Days)
	}
}

// TestCorruptSnapshotFrameAborts: a snapshot is written whole, so a frame
// that fails its CRC — in the middle or at the very end of the file — is
// ErrCorrupt, never a torn tail to truncate.
func TestCorruptSnapshotFrameAborts(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{HorizonSlots: 48, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 30)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := snapshotPath(dir, 30)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, off := range map[string]int{"middle": len(clean) / 2, "last byte": len(clean) - 1} {
		t.Run(name, func(t *testing.T) {
			damaged := slices.Clone(clean)
			damaged[off] ^= 0x40
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open over a damaged snapshot: err = %v, want ErrCorrupt", err)
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(clean)) {
				t.Fatalf("damaged snapshot was truncated (err %v)", err)
			}
		})
	}
}

// TestOpenRefusesLegacyJSONSnapshot: a data dir that still holds a
// dataset-JSON snapshot from an older version fails to open, naming the
// file, rather than recovering a planner without its state.
func TestOpenRefusesLegacyJSONSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{HorizonSlots: 8})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, "snap-00000000000000000002.json")
	if err := os.WriteFile(legacy, []byte(`{"people":[{"name":"a"},{"name":"b"}]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{})
	if err == nil || !strings.Contains(err.Error(), legacy) {
		t.Fatalf("Open with a legacy snapshot: err = %v, want an error naming %s", err, legacy)
	}
	// A legacy snapshot alone (no meta, no segments) is refused too.
	alone := t.TempDir()
	legacy = filepath.Join(alone, "snap-00000000000000000000.json")
	if err := os.WriteFile(legacy, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(alone, Options{}); err == nil || !strings.Contains(err.Error(), legacy) {
		t.Fatalf("Open with only a legacy snapshot: err = %v, want an error naming %s", err, legacy)
	}
}

// TestInterruptedImportIsRefused: seeding writes the snapshot before the
// meta file, so a seed that fails leaves no meta file behind, and a crash
// between the two leaves a snapshot whose horizon is unknown, which Open
// refuses instead of serving a planner without it.
func TestInterruptedImportIsRefused(t *testing.T) {
	dir := t.TempDir()
	ds := dataset.Synthetic(10, 7, 1)
	// A directory where the snapshot goes makes its write fail.
	blocker := snapshotPath(dir, 0)
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := seedDir(dir, 0, 1, 0, snapshotOf(t, ds)); err == nil {
		t.Fatal("seed over a blocked snapshot path succeeded")
	}
	if empty, err := storeEmpty(dir); err != nil || !empty {
		t.Fatalf("a failed seed left state behind (empty=%v, err=%v)", empty, err)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshot(dir, 0, snapshotOf(t, ds).frames); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{HorizonSlots: 48}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over a snapshot without meta: err = %v, want ErrCorrupt", err)
	}
	if _, err := ImportDataset(dir, ds, Options{}); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("import over an interrupted import: err = %v, want ErrNotEmpty", err)
	}
}

// TestReplaySnapshotBytesPerFrame pins the garbage a snapshot replay
// makes. At 10k people (Synthetic, two days: 172 809 frames) the replay
// allocated 170.2 B and 2.5 objects a frame while each frame went through
// Planner.Apply, and 47.3 B and 0.38 objects through stgq.BuildPlanner;
// the bound is that with 20 % headroom.
func TestReplaySnapshotBytesPerFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10k-person snapshot")
	}
	const maxBytesPerFrame = 47.3 * 1.2
	ds := dataset.Synthetic(10000, 1, 2)
	frames, err := encodeSnapshot(ds)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range stgq.DatasetMutations(ds) {
		n++
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReplaySnapshot(frames, ds.Cal.Horizon()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perFrame := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	t.Logf("%d frames: %.1f B and %.2f allocations a frame", n, perFrame, float64(after.Mallocs-before.Mallocs)/float64(n))
	if perFrame > maxBytesPerFrame {
		t.Fatalf("replay allocates %.1f B a frame, want ≤ %.1f", perFrame, maxBytesPerFrame)
	}
}

// TestReplayedPlannerCopiesRowsOnWrite: a planner that a snapshot replay
// built writes its calendar rows in place only while it is being built.
// Once ReplaySnapshot has returned it, a live SetAvailable or SetBusy
// replaces the row it edits, and a view taken before keeps what it saw.
func TestReplayedPlannerCopiesRowsOnWrite(t *testing.T) {
	ds := dataset.Synthetic(50, 3, 1)
	frames, err := encodeSnapshot(ds)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ReplaySnapshot(frames, ds.Cal.Horizon())
	if err != nil {
		t.Fatal(err)
	}
	pl := snap.pl
	const p = stgq.PersonID(7)
	_, cal, _, err := pl.QueryView(p, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	seen := cal.Row(0).Clone() // user 0 of a view is its initiator
	if !seen.Equal(ds.Cal.Row(int(p))) {
		t.Fatalf("the view shows %v for person %d, the snapshot says %v", seen, p, ds.Cal.Row(int(p)))
	}
	if err := pl.SetAvailable(p, 0, pl.Horizon()); err != nil {
		t.Fatal(err)
	}
	if !cal.Row(0).Equal(seen) {
		t.Fatalf("SetAvailable after the replay wrote into a view's row: %v, was %v", cal.Row(0), seen)
	}
	_, cal2, _, err := pl.QueryView(p, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.SetBusy(p, 0, pl.Horizon()); err != nil {
		t.Fatal(err)
	}
	if !cal.Row(0).Equal(seen) || cal2.Row(0).Count() != pl.Horizon() {
		t.Fatalf("SetBusy after the replay wrote into a view's row: %v and %v", cal.Row(0), cal2.Row(0))
	}
}

// TestReplaySnapshotRefusesMisnumberedPerson: a snapshot's add-person
// frame must name the id the planner assigns.
func TestReplaySnapshotRefusesMisnumberedPerson(t *testing.T) {
	frames, err := appendFrame(nil, Record{Seq: 1, Mut: stgq.Mutation{Op: stgq.MutAddPerson, Person: 3, Name: "ana"}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = ReplaySnapshot(frames, 48)
	if err == nil || !strings.Contains(err.Error(), "snapshot frame 1: add-person of person 3") {
		t.Fatalf("err = %v, want the frame and the person named", err)
	}
}

package stgq

import (
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/schedule"
)

func sameCalendar(a, b *schedule.Calendar) bool {
	if a.Users() != b.Users() || a.Horizon() != b.Horizon() {
		return false
	}
	for u := 0; u < a.Users(); u++ {
		if !a.Row(u).Equal(b.Row(u)) {
			return false
		}
	}
	return true
}

// TestViewAndDatasetIsolatedFromWrites pins the copy-on-write contract of
// the availability store from both sides. A view captured by QueryView
// shares the store's rows, yet keeps reading what it captured while every
// member is being rewritten (run under -race: the readers and the writers
// below overlap on purpose); and the calendar handed to FromDataset, whose
// rows the store started from, is bit-identical afterwards.
func TestViewAndDatasetIsolatedFromWrites(t *testing.T) {
	d := dataset.Synthetic(200, 3, 1)
	pristine := d.Cal.ExtendedClone(0)
	pl := FromDataset(d)
	initiator := PersonID(d.PickInitiator(50))

	rg, cal, _, err := pl.QueryView(initiator, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if cal.Users() != rg.N() {
		t.Fatalf("view has %d rows for a ball of %d: it must be ball-sized", cal.Users(), rg.N())
	}
	for v, person := range rg.Orig {
		if cal.Row(v) != d.Cal.Row(person) {
			t.Fatalf("view row %d is a copy: an unedited person's row must be the dataset's own", v)
		}
	}
	captured := cal.ExtendedClone(0)
	horizon := pl.Horizon()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for round := 0; round < 20; round++ {
			set := pl.SetBusy
			if round%2 == 1 {
				set = pl.SetAvailable
			}
			for _, person := range rg.Orig {
				if err := set(PersonID(person), round%horizon, horizon); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for round := 0; round < 20; round++ {
			if !sameCalendar(cal, captured) {
				t.Error("captured view changed while its members were being rewritten")
				return
			}
		}
	}()
	wg.Wait()

	if !sameCalendar(cal, captured) {
		t.Fatal("captured view changed after its members were rewritten")
	}
	if _, after, _, err := pl.QueryView(initiator, 2, true); err != nil || sameCalendar(after, captured) {
		t.Fatalf("a view captured after the writes must see them (err %v)", err)
	}
	if !sameCalendar(d.Cal, pristine) {
		t.Fatal("planner writes reached the calendar handed to FromDataset")
	}
}

// TestHiddenMembersKeepTheIndexedPath pins privacy as a row predicate over
// the ball: a hidden member reads all-busy in the view's calendar,
// everyone else's rows are still the store's own, and the store itself
// keeps the hidden person's true schedule.
func TestHiddenMembersKeepTheIndexedPath(t *testing.T) {
	pl := NewPlanner(6)
	var ids [4]PersonID
	for i := range ids {
		ids[i] = pl.MustAddPerson("")
		if err := pl.SetAvailable(ids[i], 1, 5); err != nil {
			t.Fatal(err)
		}
	}
	for _, edge := range [][2]int{{0, 1}, {1, 2}, {0, 3}} {
		if err := pl.Connect(ids[edge[0]], ids[edge[1]], 1); err != nil {
			t.Fatal(err)
		}
	}
	// From person 0: 1 is a friend, 2 a friend of a friend, 3 a friend.
	for id, pol := range map[PersonID]SharePolicy{ids[1]: ShareFriends, ids[2]: ShareFriends, ids[3]: ShareNone} {
		if err := pl.SetSchedulePolicy(id, pol); err != nil {
			t.Fatal(err)
		}
	}
	rg, cal, _, err := pl.QueryView(ids[0], 2, true)
	if err != nil {
		t.Fatal(err)
	}
	wantHidden := map[PersonID]bool{ids[2]: true, ids[3]: true}
	for v, person := range rg.Orig {
		if hidden := wantHidden[PersonID(person)]; cal.Available(v, 2) == hidden {
			t.Errorf("person %d: hidden=%v but calendar says free=%v", person, hidden, cal.Available(v, 2))
		} else if !hidden && cal.Row(v) != pl.cal.Row(person) {
			t.Errorf("person %d: a visible row must be shared, not copied", person)
		}
	}
	if rg.N() != 4 {
		t.Fatalf("ball of %d, want all 4 people", rg.N())
	}
	if exported := pl.Export(nil).Cal; !exported.Available(int(ids[3]), 2) {
		t.Fatal("hiding a schedule from initiators erased it from the store")
	}
}

// TestBuildPlannerWritesInPlaceOnlyWhileBuilding: BuildPlanner builds the
// state Apply would, writing calendar rows in place as it goes, and the
// planner it returns replaces a row on every write like any other.
func TestBuildPlannerWritesInPlaceOnlyWhileBuilding(t *testing.T) {
	d := dataset.Synthetic(30, 2, 1)
	muts := func(yield func(*Mutation) bool) {
		for m := range DatasetMutations(d) {
			if !yield(&m) {
				return
			}
		}
	}
	pl, err := BuildPlanner(d.Cal.Horizon(), muts)
	if err != nil {
		t.Fatal(err)
	}
	if pl.building {
		t.Fatal("BuildPlanner returned a planner still writing rows in place")
	}
	if !sameCalendar(pl.cal, d.Cal) || pl.g.NumEdges() != d.Graph.NumEdges() || len(pl.locations) != len(d.Locations) {
		t.Fatal("BuildPlanner's state differs from the dataset its mutations describe")
	}
	row := pl.cal.Row(3)
	if err := pl.SetBusy(3, 0, pl.Horizon()); err != nil {
		t.Fatal(err)
	}
	if pl.cal.Row(3) == row {
		t.Fatal("a write after BuildPlanner edited the row in place")
	}
}

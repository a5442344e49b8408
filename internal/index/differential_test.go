package index

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/schedule"
)

// TestIncrementalMatchesRebuildEveryPrefix is the index's differential
// proof: a seeded random stream of availability edits is applied
// incrementally to one Index while a reference calendar takes the same
// edits, and after EVERY prefix both the incremental index and a full
// Build from the reference must answer every run of every user at every
// slot as a slot-by-slot scan of the reference does. Any drift fails
// with the exact prefix, so a failure is immediately replayable.
func TestIncrementalMatchesRebuildEveryPrefix(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1337} {
		seed := seed
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			horizon := 16 + rng.Intn(33) // 16..48 slots
			users := 1 + rng.Intn(6)
			cal := schedule.NewCalendar(users, horizon)
			ix := Build(cal, 0)
			for step := 0; step < 300; step++ {
				u := rng.Intn(cal.Users())
				from := rng.Intn(horizon)
				to := from + rng.Intn(horizon-from) + 1
				free := rng.Intn(2) == 0
				cal.SetRange(u, from, to, free)
				ix.SetRange(u, from, to, free)
				diffAvail(t, seed, step, "incremental", ix.AvailSnapshot(), cal)
				diffAvail(t, seed, step, "rebuilt", Build(cal, 0).AvailSnapshot(), cal)
			}
		})
	}
}

// diffAvail compares every run of a snapshot with a slot-by-slot scan of
// the reference calendar.
func diffAvail(t *testing.T, seed int64, step int, side string, got Avail, cal *schedule.Calendar) {
	t.Helper()
	for u := 0; u < cal.Users(); u++ {
		for s := 0; s < cal.Horizon(); s++ {
			wlo, whi, wok := scanRun(cal, u, s)
			glo, ghi, gok := got.Run(u, s)
			if gok != wok || glo != wlo || ghi != whi {
				t.Fatalf("seed %d step %d: %s user %d slot %d: run (%d,%d,%v), scan says (%d,%d,%v)",
					seed, step, side, u, s, glo, ghi, gok, wlo, whi, wok)
			}
		}
	}
}

// scanRun is the oracle for Avail.Run: it walks cal.Available outwards
// from slot, one slot at a time.
func scanRun(cal *schedule.Calendar, u, slot int) (lo, hi int, ok bool) {
	if !cal.Available(u, slot) {
		return 0, 0, false
	}
	lo, hi = slot, slot
	for cal.Available(u, lo-1) {
		lo--
	}
	for cal.Available(u, hi+1) {
		hi++
	}
	return lo, hi, true
}

// TestSnapshotImmuneToLaterMutations pins the copy-on-write contract:
// a snapshot taken before an edit keeps answering from the pre-edit
// rows, byte for byte, while a snapshot taken after sees the edit.
func TestSnapshotImmuneToLaterMutations(t *testing.T) {
	cal := schedule.NewCalendar(2, 12)
	cal.SetRange(0, 2, 8, true)
	ix := Build(cal, 0)
	before := ix.AvailSnapshot()
	ix.SetRange(0, 4, 6, false)
	after := ix.AvailSnapshot()

	if lo, hi, ok := before.Run(0, 5); !ok || lo != 2 || hi != 7 {
		t.Fatalf("pre-edit snapshot mutated: run (%d,%d,%v), want (2,7,true)", lo, hi, ok)
	}
	if lo, hi, ok := after.Run(0, 3); !ok || lo != 2 || hi != 3 {
		t.Fatalf("post-edit snapshot stale: run (%d,%d,%v), want (2,3,true)", lo, hi, ok)
	}
	if _, _, ok := after.Run(0, 5); ok {
		t.Fatal("post-edit snapshot still has slot 5 available")
	}
}

// TestRowInvalidationPerMutationType pins the "precise invalidation"
// contract of the availability rows, read through Run: SetRange changes
// the answers of the edited person and no other; an unknown person, an
// empty range and a range starting past the horizon change nothing; and
// a range running past the horizon is clipped to it.
func TestRowInvalidationPerMutationType(t *testing.T) {
	const users, horizon = 3, 8
	ix := Build(schedule.NewCalendar(users, horizon), 0)
	type run struct {
		lo, hi int
		ok     bool
	}
	runs := func() [][]run {
		a := ix.AvailSnapshot()
		out := make([][]run, users)
		for u := range out {
			out[u] = make([]run, horizon)
			for s := range out[u] {
				lo, hi, ok := a.Run(u, s)
				out[u][s] = run{lo, hi, ok}
			}
		}
		return out
	}
	before := runs()
	wantChanged := func(op string, changed ...int) {
		t.Helper()
		after := runs()
		for u := range after {
			got := !slices.Equal(after[u], before[u])
			if want := slices.Contains(changed, u); got != want {
				t.Fatalf("%s: runs of person %d changed=%v, want %v", op, u, got, want)
			}
		}
		before = after
	}

	ix.SetRange(1, 0, 4, true)
	wantChanged("SetRange", 1)
	if got := before[1][2]; got != (run{0, 3, true}) {
		t.Fatalf("SetRange: person 1 slot 2 run %+v, want {0 3 true}", got)
	}
	ix.SetRange(users, 0, 4, true)
	wantChanged("unknown person")
	ix.SetRange(-1, 0, 4, true)
	wantChanged("negative person")
	ix.SetRange(0, 5, 5, true)
	wantChanged("empty range")
	ix.SetRange(0, horizon+1, horizon+3, true)
	wantChanged("range past the horizon")
	ix.SetRange(2, 6, horizon+4, true)
	wantChanged("range clipped at the horizon", 2)
	if got := before[2][horizon-1]; got != (run{6, horizon - 1, true}) {
		t.Fatalf("clipped range: person 2 slot %d run %+v, want {6 %d true}", horizon-1, got, horizon-1)
	}
}

package index

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/schedule"
)

// TestIncrementalMatchesRebuildEveryPrefix is the index half of the
// fast path's differential proof: a seeded random mutation stream is
// applied incrementally to one Index while a reference calendar tracks
// the same edits, and after EVERY prefix the incremental state must
// equal a full Build from the reference — every run boundary of every
// user at every slot, plus the sequence stamp. Any drift between the
// O(h)-per-edit maintenance and the ground truth fails with the exact
// prefix, so a failure is immediately replayable.
func TestIncrementalMatchesRebuildEveryPrefix(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1337} {
		seed := seed
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			horizon := 16 + rng.Intn(33) // 16..48 slots
			users := 1 + rng.Intn(6)
			cal := schedule.NewCalendar(users, horizon)
			ix := Build(cal, 0)
			var seq uint64
			for step := 0; step < 300; step++ {
				switch op := rng.Intn(10); {
				case op == 0: // add a person
					cal = cal.ExtendedClone(cal.Users() + 1)
					ix.AddPerson()
				case op < 6: // availability edit
					u := rng.Intn(cal.Users())
					from := rng.Intn(horizon)
					to := from + rng.Intn(horizon-from) + 1
					free := rng.Intn(2) == 0
					cal.SetRange(u, from, to, free)
					ix.SetRange(u, from, to, free)
				default: // graph, location or policy edit: stamp only
					ix.Advance()
				}
				seq++
				if got := ix.Seq(); got != seq {
					t.Fatalf("seed %d step %d: index seq %d, want %d", seed, step, got, seq)
				}
				diffAvail(t, seed, step, ix.AvailSnapshot(), Build(cal, seq).AvailSnapshot(), cal)
			}
		})
	}
}

// diffAvail compares an incremental snapshot against a freshly rebuilt
// one, slot by slot.
func diffAvail(t *testing.T, seed int64, step int, got, want Avail, cal *schedule.Calendar) {
	t.Helper()
	if got.Users() != want.Users() {
		t.Fatalf("seed %d step %d: %d rows incremental, %d rebuilt", seed, step, got.Users(), want.Users())
	}
	for u := 0; u < want.Users(); u++ {
		for s := 0; s < cal.Horizon(); s++ {
			if ga, wa := got.Available(u, s), want.Available(u, s); ga != wa {
				t.Fatalf("seed %d step %d: user %d slot %d: available %v, rebuilt says %v", seed, step, u, s, ga, wa)
			}
			glo, ghi, gok := got.Run(u, s)
			wlo, whi, wok := want.Run(u, s)
			if gok != wok || glo != wlo || ghi != whi {
				t.Fatalf("seed %d step %d: user %d slot %d: run (%d,%d,%v), rebuilt (%d,%d,%v)",
					seed, step, u, s, glo, ghi, gok, wlo, whi, wok)
			}
		}
	}
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
	if before.RowSeq(0) == after.RowSeq(0) {
		t.Fatal("row seq did not advance across an edit")
	}
}

// TestRowInvalidationPerMutationType pins the "precise invalidation"
// contract of the availability rows: SetRange rebuilds the mutated
// person's row and no other, AddPerson appends one row and keeps the
// rest, and Advance (friendship, location and policy edits) keeps every
// row while the sequence stamp moves.
func TestRowInvalidationPerMutationType(t *testing.T) {
	cal := schedule.NewCalendar(3, 8)
	ix := Build(cal, 0)
	before := ix.AvailSnapshot()
	wantRows := func(op string, rebuilt ...int) {
		t.Helper()
		after := ix.AvailSnapshot()
		for u := 0; u < before.Users(); u++ {
			want := before.RowSeq(u)
			if slices.Contains(rebuilt, u) {
				want = ix.Seq()
			}
			if got := after.RowSeq(u); got != want {
				t.Fatalf("%s: row %d has seq %d, want %d", op, u, got, want)
			}
		}
		before = after
	}

	ix.SetRange(1, 0, 4, true)
	wantRows("SetRange", 1)
	ix.Advance()
	wantRows("Advance")
	ix.AddPerson()
	if got := ix.AvailSnapshot().Users(); got != 4 {
		t.Fatalf("AddPerson: %d rows, want 4", got)
	}
	wantRows("AddPerson")
	if got := ix.Seq(); got != 3 {
		t.Fatalf("index seq %d after three applies, want 3", got)
	}
}

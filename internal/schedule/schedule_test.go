package schedule

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetAndQuery(t *testing.T) {
	c := NewCalendar(3, 10)
	if c.Users() != 3 || c.Horizon() != 10 {
		t.Fatal("dimensions wrong")
	}
	c.SetAvailable(1, 4)
	if !c.Available(1, 4) {
		t.Error("Available after SetAvailable = false")
	}
	if !c.Row(1).Contains(4) {
		t.Error("Row does not show the slot Available reports")
	}
	c.SetBusy(1, 4)
	if c.Available(1, 4) || c.Row(1).Contains(4) {
		t.Error("SetBusy did not clear the slot")
	}
	if c.Available(-1, 0) || c.Available(0, -1) || c.Available(3, 0) || c.Available(0, 10) {
		t.Error("out-of-range Available should be false")
	}
}

func TestSetRange(t *testing.T) {
	c := NewCalendar(1, 20)
	c.SetRange(0, 5, 10, true)
	for tt := 0; tt < 20; tt++ {
		want := tt >= 5 && tt < 10
		if c.Available(0, tt) != want {
			t.Errorf("slot %d: available=%v want %v", tt, c.Available(0, tt), want)
		}
	}
	c.SetRange(0, 7, 9, false)
	if c.Available(0, 7) || c.Available(0, 8) || !c.Available(0, 9) {
		t.Error("busy sub-range wrong")
	}
}

func TestAvailableDuring(t *testing.T) {
	c := NewCalendar(1, 10)
	c.SetRange(0, 2, 7, true)
	cases := []struct {
		t, m int
		want bool
	}{
		{2, 5, true}, {2, 6, false}, {3, 4, true}, {1, 2, false},
		{6, 1, true}, {7, 1, false}, {8, 5, false}, {-1, 2, false},
	}
	for _, cse := range cases {
		if got := c.AvailableDuring(0, cse.t, cse.m); got != cse.want {
			t.Errorf("AvailableDuring(t=%d,m=%d) = %v, want %v", cse.t, cse.m, got, cse.want)
		}
	}
}

func TestPivotSlots(t *testing.T) {
	// m=3, horizon 10: 1-based pivots 3, 6, 9 -> 0-based 2, 5, 8.
	got := PivotSlots(10, 3)
	want := []int{2, 5, 8}
	if len(got) != len(want) {
		t.Fatalf("PivotSlots = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PivotSlots = %v, want %v", got, want)
		}
	}
	if PivotSlots(10, 0) != nil || PivotSlots(0, 3) != nil {
		t.Error("degenerate pivot lists should be empty")
	}
	if got := PivotSlots(3, 5); got != nil {
		t.Errorf("horizon shorter than m should have no pivots, got %v", got)
	}
}

// TestPivotCoverageProperty: Lemma 4 — every m-slot window contains exactly
// one pivot slot.
func TestPivotCoverageProperty(t *testing.T) {
	f := func(hSeed, mSeed uint8) bool {
		horizon := int(hSeed)%100 + 1
		m := int(mSeed)%12 + 1
		pivots := map[int]bool{}
		for _, p := range PivotSlots(horizon, m) {
			pivots[p] = true
		}
		for start := 0; start+m <= horizon; start++ {
			count := 0
			for s := start; s < start+m; s++ {
				if pivots[s] {
					count++
				}
			}
			if count != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPivotWindow(t *testing.T) {
	// m=3, pivot at 0-based 5 (1-based 6): window 1-based [4,8] -> 0-based
	// [3, 8) half-open.
	lo, hi := PivotWindow(100, 5, 3)
	if lo != 3 || hi != 8 {
		t.Errorf("window = [%d,%d), want [3,8)", lo, hi)
	}
	// Clipping at the start: pivot m-1=2 with m=3 -> [0, 5).
	lo, hi = PivotWindow(100, 2, 3)
	if lo != 0 || hi != 5 {
		t.Errorf("window = [%d,%d), want [0,5)", lo, hi)
	}
	// Clipping at the end.
	lo, hi = PivotWindow(10, 8, 3)
	if lo != 6 || hi != 10 {
		t.Errorf("window = [%d,%d), want [6,10)", lo, hi)
	}
}

func TestUserQualifies(t *testing.T) {
	// Example 3 of the paper uses m=3; build a user with a length-2 run and
	// one with a length-3 run inside the window of pivot slot 2 (0-based).
	c := NewCalendar(2, 12)
	w := c.NewWindow(2, 3)    // window [0,5)
	c.SetRange(0, 1, 3, true) // run of 2 — not enough
	c.SetRange(1, 2, 5, true) // run of 3 — qualifies
	if c.UserQualifies(0, w) {
		t.Error("user 0 with 2-slot run should not qualify for m=3")
	}
	if !c.UserQualifies(1, w) {
		t.Error("user 1 with 3-slot run should qualify")
	}
}

func TestUserQualifiesRunMustBeInsideWindow(t *testing.T) {
	c := NewCalendar(1, 20)
	// Run of 5 slots [6,11) but window for pivot 2, m=3 is [0,5).
	c.SetRange(0, 6, 11, true)
	if c.UserQualifies(0, c.NewWindow(2, 3)) {
		t.Error("run outside the window must not qualify")
	}
	if !c.UserQualifies(0, c.NewWindow(8, 3)) {
		t.Error("run inside the window must qualify")
	}
}

func TestCommonRun(t *testing.T) {
	// Figure 3(c): slots ts1..ts7 (0-based 0..6), m=3, pivot ts3 (index 2).
	// v2: all 7 slots; v7: ts1..ts6 (0..5).
	c := NewCalendar(3, 7)
	c.SetRange(0, 0, 7, true) // v2
	c.SetRange(1, 0, 6, true) // v7
	// v3: ts2, ts3, ts5, ts6 -> indices 1, 2, 4, 5.
	for _, s := range []int{1, 2, 4, 5} {
		c.SetAvailable(2, s)
	}
	w := c.NewWindow(2, 3) // window [0,5)

	// {v7} alone: run containing index 2 within [0,5) is [0,4].
	lo, hi, ok := c.CommonRun([]int{1}, w)
	if !ok || lo != 0 || hi != 4 {
		t.Errorf("run({v7}) = [%d,%d] %v, want [0,4] true", lo, hi, ok)
	}
	// {v7, v2}: same (v2 always free). X(VS) = 5-3 = 2 as in Example 3.
	lo, hi, ok = c.CommonRun([]int{0, 1}, w)
	if !ok || hi-lo+1 != 5 {
		t.Errorf("run({v2,v7}) length = %d, want 5", hi-lo+1)
	}
	// {v7, v3}: v3 free at 1,2,4 within window -> run containing 2 is [1,2],
	// length 2 < m: X = -1, matching Example 3's removal of v3.
	lo, hi, ok = c.CommonRun([]int{1, 2}, w)
	if !ok || lo != 1 || hi != 2 {
		t.Errorf("run({v7,v3}) = [%d,%d] %v, want [1,2] true", lo, hi, ok)
	}
}

func TestCommonRunPivotBusy(t *testing.T) {
	c := NewCalendar(1, 10)
	c.SetRange(0, 0, 10, true)
	c.SetBusy(0, 5)
	if _, _, ok := c.CommonRun([]int{0}, c.NewWindow(5, 3)); ok {
		t.Error("user busy at the pivot slot must yield no common run")
	}
}

func TestFormatSlot(t *testing.T) {
	cases := []struct {
		slot int
		want string
	}{
		{0, "day1 00:00"}, {1, "day1 00:30"}, {47, "day1 23:30"},
		{48, "day2 00:00"}, {48*2 + 17, "day3 08:30"},
	}
	for _, c := range cases {
		if got := FormatSlot(c.slot); got != c.want {
			t.Errorf("FormatSlot(%d) = %q, want %q", c.slot, got, c.want)
		}
	}
}

// TestQuickCommonRunOracle cross-checks CommonRun against a direct scan.
func TestQuickCommonRunOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		users := 1 + r.Intn(4)
		horizon := 6 + r.Intn(20)
		m := 2 + r.Intn(4)
		c := NewCalendar(users, horizon)
		for u := 0; u < users; u++ {
			for s := 0; s < horizon; s++ {
				if r.Float64() < 0.7 {
					c.SetAvailable(u, s)
				}
			}
		}
		pivots := PivotSlots(horizon, m)
		if len(pivots) == 0 {
			return true
		}
		pivot := pivots[r.Intn(len(pivots))]
		w := c.NewWindow(pivot, m)
		ids := make([]int, users)
		for i := range ids {
			ids[i] = i
		}
		lo, hi, ok := c.CommonRun(ids, w)

		// Oracle: common availability inside the window, run around pivot.
		avail := func(s int) bool {
			if s < w.Lo || s >= w.Hi {
				return false
			}
			for u := 0; u < users; u++ {
				if !c.Available(u, s) {
					return false
				}
			}
			return true
		}
		if !avail(pivot) {
			return !ok
		}
		wantLo, wantHi := pivot, pivot
		for avail(wantLo - 1) {
			wantLo--
		}
		for avail(wantHi + 1) {
			wantHi++
		}
		return ok && lo == wantLo && hi == wantHi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestExtendedClone(t *testing.T) {
	c := NewCalendar(3, 100)
	c.SetRange(0, 0, 100, true)
	c.SetRange(1, 10, 20, true)
	c.SetRange(2, 99, 100, true)
	n := c.ExtendedClone(5)
	if n.Users() != 5 || n.Horizon() != 100 {
		t.Fatalf("dims %dx%d", n.Users(), n.Horizon())
	}
	for u := 0; u < 3; u++ {
		if !n.Row(u).Equal(c.Row(u)) {
			t.Fatalf("row %d diverged", u)
		}
	}
	for tt := 0; tt < 100; tt++ {
		for u := 0; u < 5; u++ {
			want := u < 3 && c.Available(u, tt)
			if n.Available(u, tt) != want {
				t.Fatalf("clone(%d,%d) = %v, want %v", u, tt, !want, want)
			}
		}
	}
	// Mutating the clone must not touch the original.
	n.SetBusy(0, 0)
	n.SetAvailable(4, 50)
	if !c.Available(0, 0) || c.Users() != 3 {
		t.Fatal("clone aliases original")
	}
	// Same-size clone round-trips.
	same := c.ExtendedClone(0)
	if same.Users() != 3 || !same.Row(1).Equal(c.Row(1)) {
		t.Fatal("same-size clone wrong")
	}
}

// TestViewSurvivesCopyOnWriteEdits pins the contract the planner's store
// rests on: a View shares rows instead of copying them, yet AppendUser and
// ReplaceRange on the viewed calendar never show through, because they swap
// row pointers and leave every published row as it was.
func TestViewSurvivesCopyOnWriteEdits(t *testing.T) {
	c := NewCalendar(3, 70)
	c.SetRange(0, 0, 70, true)
	c.SetRange(2, 60, 66, true)
	v := c.View([]int{2, -1, 0, -1})
	if v.Users() != 4 || v.Horizon() != 70 {
		t.Fatalf("view is %dx%d, want 4x70", v.Users(), v.Horizon())
	}
	if v.Row(0) != c.Row(2) || v.Row(2) != c.Row(0) {
		t.Fatal("view copied rows it should share")
	}
	if !v.Row(1).Empty() || !v.Row(3).Empty() {
		t.Fatal("negative entries must read all-busy")
	}
	want := v.ExtendedClone(0)

	c.ReplaceRange(2, 62, 64, false)
	c.ReplaceRange(0, 0, 70, false)
	c.AppendUser()
	if c.Users() != 4 || !c.Row(3).Empty() {
		t.Fatalf("AppendUser: %d users, new row empty=%v", c.Users(), c.Row(3).Empty())
	}
	if c.Available(2, 62) || c.Available(2, 63) || !c.Available(2, 61) || !c.Available(2, 64) || c.Available(0, 5) {
		t.Fatal("ReplaceRange did not edit the calendar it was called on")
	}
	for u := 0; u < want.Users(); u++ {
		if !v.Row(u).Equal(want.Row(u)) {
			t.Fatalf("view user %d changed under a copy-on-write edit", u)
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("View of a user the calendar does not have should panic")
		}
	}()
	c.View([]int{4})
}

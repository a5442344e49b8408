// Package schedule implements the temporal substrate of the paper: per-user
// availability calendars over discrete time slots (the paper uses 0.5-hour
// slots, 48 per day), the pivot time slots of Lemma 4 and the per-pivot search
// windows of Definition 4. The calendar is row-major only: Lemma 5's per-slot
// unavailability counters are kept by the search itself, over the candidates
// of one pivot (core.prepPivot's unavail), not as population-wide columns here.
//
// Slots are 0-based in this package. The paper's 1-based pivot slots i·m
// become 0-based indices t with (t+1) ≡ 0 (mod m).
package schedule

import (
	"errors"
	"fmt"

	"repro/internal/bitset"
)

// SlotsPerDay is the paper's calendar granularity: 48 half-hour slots.
const SlotsPerDay = 48

var (
	// ErrSlotRange reports a slot index outside the calendar horizon.
	ErrSlotRange = errors.New("schedule: slot out of range")
	// ErrUserRange reports an unknown user index.
	ErrUserRange = errors.New("schedule: user out of range")
)

// Calendar stores the availability of a population of users over a horizon
// of T slots, one bitset row per user.
//
// A calendar is edited in one of two ways, never both. Builders of a fresh
// calendar (dataset generators, tests) use the in-place Set* methods. An
// owner whose rows may be shared with readers — the planner's store, whose
// queries keep Views after its lock is released — uses only AppendUser and
// ReplaceRange, which swap row pointers and never touch a published row.
type Calendar struct {
	horizon int
	rows    []*bitset.Set // rows[u].Contains(t) == user u available at slot t
}

// NewCalendar creates an all-busy calendar for the given number of users and
// horizon (in slots).
func NewCalendar(users, horizon int) *Calendar {
	if users < 0 || horizon < 0 {
		panic("schedule: negative dimensions")
	}
	c := &Calendar{horizon: horizon, rows: make([]*bitset.Set, users)}
	for u := range c.rows {
		c.rows[u] = bitset.New(horizon)
	}
	return c
}

// ExtendedClone returns a deep copy of c widened to at least the given
// number of users; the extra users start all-busy. Rows are copied
// word-wise, so cloning is O(users·horizon/64).
func (c *Calendar) ExtendedClone(users int) *Calendar {
	if users < len(c.rows) {
		users = len(c.rows)
	}
	n := NewCalendar(users, c.horizon)
	for u, row := range c.rows {
		n.rows[u].CopyFrom(row)
	}
	return n
}

// View returns a calendar whose user i is c's user users[i]; a negative
// entry selects an all-busy row (a schedule the viewer may not read). Rows
// are shared, not copied, and the view owns its row slice, so building one
// costs O(len(users)) and later AppendUser/ReplaceRange calls on c leave it
// as it was. A view is for reading: in-place edits would reach c's rows.
func (c *Calendar) View(users []int) *Calendar {
	v := &Calendar{horizon: c.horizon, rows: make([]*bitset.Set, len(users))}
	var busy *bitset.Set
	for i, u := range users {
		if u < 0 {
			if busy == nil {
				busy = bitset.New(c.horizon)
			}
			v.rows[i] = busy
			continue
		}
		c.checkUser(u)
		v.rows[i] = c.rows[u]
	}
	return v
}

// AppendUser adds one all-busy user.
func (c *Calendar) AppendUser() {
	c.rows = append(c.rows, bitset.New(c.horizon))
}

// ReplaceRange is the copy-on-write form of SetRange: user u's row is
// replaced by an edited copy, so views that captured the old row keep
// reading it unchanged.
func (c *Calendar) ReplaceRange(u, from, to int, available bool) {
	c.checkUser(u)
	c.rows[u] = c.rows[u].Clone()
	c.SetRange(u, from, to, available)
}

// Users returns the number of users.
func (c *Calendar) Users() int { return len(c.rows) }

// Horizon returns the number of slots.
func (c *Calendar) Horizon() int { return c.horizon }

// SetAvailable marks user u available at slot t.
func (c *Calendar) SetAvailable(u, t int) {
	c.checkUser(u)
	c.checkSlot(t)
	c.rows[u].Add(t)
}

// SetBusy marks user u busy at slot t.
func (c *Calendar) SetBusy(u, t int) {
	c.checkUser(u)
	c.checkSlot(t)
	c.rows[u].Remove(t)
}

// SetRange marks user u available (or busy) on every slot of [from, to).
func (c *Calendar) SetRange(u, from, to int, available bool) {
	c.checkUser(u)
	if from < 0 || to > c.horizon || from > to {
		panic(fmt.Sprintf("schedule: bad range [%d,%d) over horizon %d", from, to, c.horizon))
	}
	for t := from; t < to; t++ {
		if available {
			c.SetAvailable(u, t)
		} else {
			c.SetBusy(u, t)
		}
	}
}

// Available reports whether user u is available at slot t.
func (c *Calendar) Available(u, t int) bool {
	if u < 0 || u >= len(c.rows) || t < 0 || t >= c.horizon {
		return false
	}
	return c.rows[u].Contains(t)
}

// AvailableDuring reports whether user u is available for every slot of the
// m-slot window starting at slot t.
func (c *Calendar) AvailableDuring(u, t, m int) bool {
	if t < 0 || t+m > c.horizon {
		return false
	}
	for i := t; i < t+m; i++ {
		if !c.rows[u].Contains(i) {
			return false
		}
	}
	return true
}

// Row returns user u's availability bitset (shared, do not mutate).
func (c *Calendar) Row(u int) *bitset.Set {
	c.checkUser(u)
	return c.rows[u]
}

func (c *Calendar) checkUser(u int) {
	if u < 0 || u >= len(c.rows) {
		panic(fmt.Sprintf("%v: %d of %d", ErrUserRange, u, len(c.rows)))
	}
}

func (c *Calendar) checkSlot(t int) {
	if t < 0 || t >= c.horizon {
		panic(fmt.Sprintf("%v: %d of %d", ErrSlotRange, t, c.horizon))
	}
}

// PivotSlots returns the pivot time slots of Lemma 4 for activity length m
// over the calendar horizon: the 0-based slots m−1, 2m−1, 3m−1, … . Any
// feasible m-slot activity period contains exactly one of them.
func (c *Calendar) PivotSlots(m int) []int {
	return PivotSlots(c.horizon, m)
}

// PivotSlots is the horizon-parameterized form of Calendar.PivotSlots.
func PivotSlots(horizon, m int) []int {
	if m <= 0 {
		return nil
	}
	var out []int
	for t := m - 1; t < horizon; t += m {
		out = append(out, t)
	}
	return out
}

// PivotWindow returns the half-open slot range [lo, hi) that Definition 4
// associates with pivot slot pivot and activity length m: the paper's
// 1-based interval [(i−1)m+1, (i+1)m−1] clipped to the horizon. Every
// feasible activity period containing the pivot lies inside this window.
func PivotWindow(horizon, pivot, m int) (lo, hi int) {
	lo = pivot - (m - 1)
	hi = pivot + m // exclusive; paper's inclusive (i+1)m−1 is index pivot+m−1
	if lo < 0 {
		lo = 0
	}
	if hi > horizon {
		hi = horizon
	}
	return lo, hi
}

// Window is a per-pivot view of the calendar used by STGSelect: each
// qualifying user's availability restricted to the pivot window, plus
// per-slot unavailability counts for Lemma 5.
type Window struct {
	Pivot int // pivot slot (absolute)
	Lo    int // window start (absolute, inclusive)
	Hi    int // window end (absolute, exclusive)
	M     int
}

// NewWindow builds the pivot window for the given pivot slot and length.
func (c *Calendar) NewWindow(pivot, m int) Window {
	lo, hi := PivotWindow(c.horizon, pivot, m)
	return Window{Pivot: pivot, Lo: lo, Hi: hi, M: m}
}

// Width returns the number of slots in the window (at most 2m−1).
func (w Window) Width() int { return w.Hi - w.Lo }

// UserQualifies implements Definition 4's vertex test: user u belongs in the
// feasible graph of this pivot iff u has at least m consecutive available
// slots within the window. (Any such run necessarily covers the pivot slot.)
func (c *Calendar) UserQualifies(u int, w Window) bool {
	run := 0
	for t := w.Lo; t < w.Hi; t++ {
		if c.rows[u].Contains(t) {
			run++
			if run >= w.M {
				return true
			}
		} else {
			run = 0
		}
	}
	return false
}

// UserWindowSlots returns user u's availability inside the window as a
// bitset over window-relative offsets [0, w.Width()).
func (c *Calendar) UserWindowSlots(u int, w Window) *bitset.Set {
	s := bitset.New(w.Width())
	for t := w.Lo; t < w.Hi; t++ {
		if c.rows[u].Contains(t) {
			s.Add(t - w.Lo)
		}
	}
	return s
}

// CommonRun intersects the given users' availability inside the window and
// returns the maximal run of consecutive common slots containing the pivot,
// as absolute inclusive bounds. ok=false when some user is busy at the pivot
// slot itself (then no common run contains it).
//
// STGSelect maintains TS = [lo, hi] for the intermediate solution VS;
// temporal extensibility is X(VS) = (hi−lo+1) − m.
func (c *Calendar) CommonRun(users []int, w Window) (lo, hi int, ok bool) {
	common := bitset.New(w.Width())
	common.Fill()
	for _, u := range users {
		common.And(c.UserWindowSlots(u, w))
	}
	rlo, rhi, ok := common.LongestRunContaining(w.Pivot - w.Lo)
	if !ok {
		return 0, 0, false
	}
	return rlo + w.Lo, rhi + w.Lo, true
}

// FormatSlot renders an absolute slot index as "dayD hh:mm" assuming
// half-hour slots, for human-readable reporting.
func FormatSlot(t int) string {
	day := t / SlotsPerDay
	within := t % SlotsPerDay
	h := within / 2
	m := (within % 2) * 30
	return fmt.Sprintf("day%d %02d:%02d", day+1, h, m)
}

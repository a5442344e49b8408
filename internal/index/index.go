// Package index is a standalone copy of an availability calendar whose
// edits replace rows instead of changing them, so a snapshot taken
// before an edit keeps reading the rows it captured.
//
// The planner does not use it: its own calendar is the one availability
// store, and queries read their pivot windows from those rows. Avail, a
// snapshot of every row, satisfies the deprecated pivot-run provider of
// repro/internal/core.
package index

import (
	"sync"

	"repro/internal/schedule"
)

// Index is a copy-on-write availability calendar. SetRange calls must be
// serialized by the owner; AvailSnapshot is safe to call concurrently
// with them and with itself.
type Index struct {
	mu  sync.RWMutex
	cal *schedule.Calendar
}

// Build copies cal into a new Index. Later edits of cal do not reach
// the Index; feed them through SetRange. The seq argument is ignored.
func Build(cal *schedule.Calendar, _ uint64) *Index {
	return &Index{cal: cal.ExtendedClone(0)}
}

// SetRange applies one availability edit: person's slots [from, to)
// become free or busy, clipped at the horizon. The person's row is
// replaced by an edited copy. An unknown person or an empty range
// changes nothing.
func (ix *Index) SetRange(person, from, to int, free bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	to = min(to, ix.cal.Horizon())
	if person < 0 || person >= ix.cal.Users() || from >= to {
		return
	}
	ix.cal.ReplaceRange(person, from, to, free)
}

// Avail is an immutable point-in-time snapshot of every user's
// availability row (AvailSnapshot).
type Avail struct {
	cal *schedule.Calendar
}

// AvailSnapshot captures the current rows of every user. The copy is one
// pointer per user; later SetRange calls leave it as it was.
func (ix *Index) AvailSnapshot() Avail {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	users := make([]int, ix.cal.Users())
	for u := range users {
		users[u] = u
	}
	return Avail{cal: ix.cal.View(users)}
}

// Run returns the maximal run of consecutive available slots containing
// slot for user u. ok is false when u is busy at slot (no run contains
// it). Both u and slot must be in range.
func (a Avail) Run(u, slot int) (lo, hi int, ok bool) {
	return a.cal.CommonRun([]int{u}, schedule.Window{Pivot: slot, Hi: a.cal.Horizon()})
}

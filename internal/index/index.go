// Package index holds the in-process incremental availability index
// behind the planner's fast path: per-user availability run-length rows,
// each stamped with the mutation sequence number it reflects.
//
// The planner (repro's root package) maintains an Index inside the same
// critical section as its own state, translating each successful mutation
// into one typed apply call, so a reader holding the planner's read lock
// always observes index state consistent with the calendar:
//
//   - SetRange (MutSetAvailable/MutSetBusy) rebuilds only the mutated
//     user's availability row — copy-on-write, so published rows stay
//     immutable for lock-free readers;
//   - AddPerson appends one all-busy row;
//   - every other mutation (friendship edits, SetLocation, SetPolicy)
//     changes no row and only advances the sequence stamp (Advance):
//     schedules do not move with the social graph or locations, and a
//     policy decides per query which of the candidates' rows the
//     initiator may read (AvailFor substitutes the all-busy row for the
//     others — the index stays on under policies).
//
// Queries consume the index through Avail: an immutable snapshot of the
// candidates' rows implementing the pivot-run lookups of
// repro/internal/core, Definition 4's per-pivot eligibility in O(1) per
// vertex.
package index

import (
	"sync"

	"repro/internal/schedule"
)

// Index is the incremental query index of one planner. All apply methods
// must be serialized by the owner (the planner's write lock); read
// methods are safe to call concurrently with each other and with applies.
type Index struct {
	mu      sync.RWMutex
	horizon int
	seq     uint64 // sequence number of the last mutation applied
	rows    []*userRuns
	busy    *userRuns // the all-busy row AvailFor hands out for hidden schedules
}

// Build constructs an Index reflecting cal as of sequence number seq.
// The calendar is copied; later calendar edits must be fed through
// SetRange/AddPerson to keep the index current.
func Build(cal *schedule.Calendar, seq uint64) *Index {
	ix := &Index{
		horizon: cal.Horizon(),
		seq:     seq,
		rows:    make([]*userRuns, cal.Users()),
		busy:    buildUserRuns(newRow(cal.Horizon()), cal.Horizon(), seq),
	}
	for u := range ix.rows {
		ix.rows[u] = buildUserRuns(cal.Row(u).Clone(), ix.horizon, seq)
	}
	return ix
}

// Seq returns the sequence number of the last mutation the index
// reflects.
func (ix *Index) Seq() uint64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.seq
}

// Users returns the number of availability rows tracked.
func (ix *Index) Users() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.rows)
}

// AddPerson appends an empty (fully busy) availability row for a newly
// registered person.
func (ix *Index) AddPerson() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.seq++
	ix.rows = append(ix.rows, buildUserRuns(newRow(ix.horizon), ix.horizon, ix.seq))
}

// SetRange applies one availability edit: person's slots [from, to)
// become free or busy. Only that person's row is rebuilt (copy-on-write).
func (ix *Index) SetRange(person, from, to int, free bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.seq++
	if person < 0 || person >= len(ix.rows) {
		return // planner validated the id; tolerate rather than corrupt
	}
	row := ix.rows[person].bits.Clone()
	for t := from; t < to && t < ix.horizon; t++ {
		if free {
			row.Add(t)
		} else {
			row.Remove(t)
		}
	}
	ix.rows[person] = buildUserRuns(row, ix.horizon, ix.seq)
	mAvailUpdates.Inc()
}

// Advance records a mutation that changes no availability row
// (Connect, Disconnect, SetLocation, SetPolicy): only the sequence stamp
// moves.
func (ix *Index) Advance() {
	ix.mu.Lock()
	ix.seq++
	ix.mu.Unlock()
}

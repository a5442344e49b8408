package index

import "repro/internal/bitset"

// userRuns is one user's availability row plus its run-length decoding:
// for every available slot t, runLo[t]..runHi[t] is the maximal run of
// consecutive available slots containing t; busy slots carry runLo = -1.
// A userRuns is immutable once published — mutations build a replacement
// and swap the pointer — so snapshots may read it lock-free.
type userRuns struct {
	seq   uint64 // sequence number of the mutation that built this row
	bits  *bitset.Set
	runLo []int32
	runHi []int32
}

func newRow(horizon int) *bitset.Set {
	if horizon < 1 {
		horizon = 1
	}
	return bitset.New(horizon)
}

// buildUserRuns decodes a row bitset into its run-length form. One O(h)
// pass per mutated row is the whole maintenance cost of the availability
// index; every pivot-window eligibility test it serves afterwards is
// O(1).
func buildUserRuns(bits *bitset.Set, horizon int, seq uint64) *userRuns {
	r := &userRuns{seq: seq, bits: bits, runLo: make([]int32, horizon), runHi: make([]int32, horizon)}
	for t := 0; t < horizon; {
		if !bits.Contains(t) {
			r.runLo[t] = -1
			r.runHi[t] = -1
			t++
			continue
		}
		lo := t
		for t < horizon && bits.Contains(t) {
			t++
		}
		for i := lo; i < t; i++ {
			r.runLo[i] = int32(lo)
			r.runHi[i] = int32(t - 1)
		}
	}
	return r
}

// Avail is an immutable point-in-time snapshot of availability rows:
// every user's (AvailSnapshot) or a chosen list's (AvailFor). It
// implements the pivot-run provider of repro/internal/core: queries
// capture it under the planner's read lock and keep using it after the
// lock is released, exactly like the radius graph and calendar of the
// same view.
type Avail struct {
	rows []*userRuns
}

// AvailSnapshot captures the current availability rows of the whole
// population. The returned snapshot is immutable; the copy is one pointer
// per user.
func (ix *Index) AvailSnapshot() Avail {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	rows := make([]*userRuns, len(ix.rows))
	copy(rows, ix.rows)
	return Avail{rows: rows}
}

// AvailFor captures the current rows of the listed users only — snapshot
// user i is users[i], mirroring schedule.Calendar.View — so a query pays
// for its candidates, not for the population. A negative entry selects
// the all-busy row: a schedule the viewer may not read has no runs.
func (ix *Index) AvailFor(users []int) Avail {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	rows := make([]*userRuns, len(users))
	for i, u := range users {
		if u < 0 {
			rows[i] = ix.busy
		} else {
			rows[i] = ix.rows[u]
		}
	}
	return Avail{rows: rows}
}

// Users returns the number of rows in the snapshot.
func (a Avail) Users() int { return len(a.rows) }

// Run returns the maximal run of consecutive available slots containing
// slot for user u. ok is false when u is busy at slot (no run contains
// it). Both u and slot must be in range; the planner guarantees it for
// every view it hands to the engine.
func (a Avail) Run(u, slot int) (lo, hi int, ok bool) {
	r := a.rows[u]
	if int(r.runLo[slot]) < 0 {
		return 0, 0, false
	}
	return int(r.runLo[slot]), int(r.runHi[slot]), true
}

// Available reports whether user u is available at slot.
func (a Avail) Available(u, slot int) bool {
	return a.rows[u].bits.Contains(slot)
}

// RowSeq returns the sequence stamp of user u's current row: the
// mutation it reflects (the build seq for rows untouched since Build).
func (a Avail) RowSeq(u int) uint64 { return a.rows[u].seq }

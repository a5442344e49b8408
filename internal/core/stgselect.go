package core

import (
	"fmt"
	"time"

	"repro/internal/bitset"
	"repro/internal/schedule"
	"repro/internal/socialgraph"
)

// STGSelect solves STGQ(p, s, k, m) exactly: it finds the group of p
// vertices (initiator included) with minimum total social distance such that
// all members share m consecutive available time slots.
//
// calUser maps radius-graph vertex indices to calendar user indices
// (calUser[i] is the schedule row of vertex i). The social radius constraint
// is already encoded in rg.
//
// The temporal dimension is explored per Lemma 4: only pivot slots (0-based
// indices m−1, 2m−1, …) are searched, each over its (2m−1)-slot window, and
// per Definition 4 only vertices with at least m consecutive available slots
// inside the window participate. The incumbent distance is shared across
// pivots, strengthening distance pruning without affecting optimality.
func STGSelect(rg *socialgraph.RadiusGraph, cal *schedule.Calendar, calUser []int, p, k, m int, opt Options) (*STGroup, Stats, error) {
	if err := validateSTG(rg, cal, calUser, p, k, m); err != nil {
		return nil, Stats{}, err
	}
	if err := opt.validate(); err != nil {
		return nil, Stats{}, err
	}
	return runPivots(newEngine(rg, p, k, opt), cal, calUser, m, "stg")
}

// runPivots drives one engine through every pivot slot: per-pivot candidate
// generation (prepPivot), the branch-and-bound search with the incumbent
// shared across pivots, and the final interval widening. It is the body
// shared by STGSelect and GSGSelect (the latter arrives with e.spat set, so
// eligibility and the optimized cost carry the spatial dimension).
func runPivots(e *engine, cal *schedule.Calendar, calUser []int, m int, kind string) (*STGroup, Stats, error) {
	p := e.p
	t := newTemporalState(e.n, m)
	e.tmp = t
	e.initTemporalRHS(m)

	// Candidate generation (prepPivot) vs. search time is the split the
	// paper's evaluation reports; accumulate both across pivots and
	// record once at return.
	var candidateTime, searchTime time.Duration
	defer func() {
		mCandidateSeconds.Observe(candidateTime.Seconds())
		mSearchSeconds.Observe(searchTime.Seconds())
		recordStats(kind, e.stats)
	}()

	eligible := bitset.New(e.n)
	for _, pivot := range cal.PivotSlots(m) {
		if e.budgetHit {
			break
		}
		prepStart := time.Now()
		ok := prepPivot(e, cal, calUser, eligible, cal.NewWindow(pivot, m))
		candidateTime += time.Since(prepStart)
		if !ok {
			e.stats.PivotsSkipped++
			continue
		}
		e.stats.PivotsProcessed++
		if p == 1 {
			// The initiator alone: any pivot where q qualifies gives the
			// optimal (distance-0) answer.
			e.bestDist = 0
			e.bestSet.Clear()
			e.bestSet.Add(0)
			e.bestLo, e.bestHi, e.bestPiv = t.curLo, t.curHi, pivot
			e.stats.SolutionsFound++
			break
		}
		searchStart := time.Now()
		e.expand(0)
		searchTime += time.Since(searchStart)
	}

	if e.bestSet.Count() != p {
		if e.budgetHit {
			return nil, e.stats, ErrBudgetExceeded
		}
		return nil, e.stats, ErrNoFeasibleGroup
	}
	members := e.bestSet.Indices()
	ans := &STGroup{
		Group: Group{
			Members:       members,
			TotalDistance: e.bestDist,
		},
		Interval: widenInterval(cal, calUser, members, e.bestPiv),
		Pivot:    e.bestPiv,
	}
	if e.budgetHit {
		// Anytime result: feasible but not proven optimal.
		return ans, e.stats, ErrBudgetExceeded
	}
	return ans, e.stats, nil
}

// widenInterval returns the maximal common interval of members around the
// pivot slot over the whole horizon. The search tracks the common run
// clipped to the pivot window; this is what the answer reports.
func widenInterval(cal *schedule.Calendar, calUser []int, members []int, pivot int) Period {
	users := make([]int, len(members))
	for i, v := range members {
		users[i] = calUser[v]
	}
	lo, hi, _ := cal.CommonRun(users, schedule.Window{Pivot: pivot, Lo: 0, Hi: cal.Horizon()})
	return Period{Start: lo, End: hi}
}

// prepPivot fills the temporal state for one pivot window. Per vertex,
// Calendar.UserQualifies reads the window slice of the calendar row as
// packed words into the query's slab and from them tests Definition 4 (at
// least m consecutive available slots inside the window; such a run always
// covers the pivot); prepPivot records the run around the pivot. It then
// resets the engine to the acquaintance core of the eligible set
// (engine.reset, which also builds the per-slot unavailability counters).
// It reports false when the pivot cannot host any feasible solution: the
// initiator does not qualify (tested first, before any other row is read)
// or is peeled, or fewer than p vertices are left.
func prepPivot(e *engine, cal *schedule.Calendar, calUser []int, eligible *bitset.Set, w schedule.Window) bool {
	t := e.tmp
	eligible.Clear()
	if w.Width() < t.m {
		return false
	}
	t.setWindow(w, e.n)
	count := 0
	for v := 0; v < e.n; v++ {
		// Spatial eligibility first (GSGSelect): a vertex with no location
		// or outside the activity radius never enters a pivot's candidates,
		// so the grid pruning happens before any calendar work.
		ok := e.spat == nil || e.spat[v] >= 0
		var lo, hi int
		if ok {
			lo, hi, ok = cal.UserQualifies(calUser[v], w, t.windowWords(v))
		}
		if !ok {
			if v == 0 {
				// The initiator cannot host this pivot: no other row is
				// read.
				return false
			}
			continue
		}
		eligible.Add(v)
		t.runLo[v] = lo
		t.runHi[v] = hi
		count++
	}
	return count >= e.p && e.reset(eligible)
}

func validateSTG(rg *socialgraph.RadiusGraph, cal *schedule.Calendar, calUser []int, p, k, m int) error {
	if err := validateSG(rg, p, k); err != nil {
		return err
	}
	if cal == nil {
		return fmt.Errorf("%w: nil calendar", ErrBadParams)
	}
	if m < 1 {
		return fmt.Errorf("%w: activity length m=%d < 1", ErrBadParams, m)
	}
	if len(calUser) != rg.N() {
		return fmt.Errorf("%w: calUser has %d entries for %d vertices", ErrBadParams, len(calUser), rg.N())
	}
	for i, u := range calUser {
		if u < 0 || u >= cal.Users() {
			return fmt.Errorf("%w: calUser[%d]=%d outside calendar (%d users)", ErrBadParams, i, u, cal.Users())
		}
	}
	return nil
}

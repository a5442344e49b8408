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
	if err := validateSTG(rg, cal, calUser, p, k, m, opt); err != nil {
		return nil, Stats{}, err
	}
	return newEngine(rg, p, k, opt).solve("stg", nil, cal, calUser, m)
}

// solve is the one driver of every query kind. With m = 0 it runs one
// search over the acquaintance core of eligible (nil: every vertex); with
// m ≥ 1 it runs one search per pivot slot (prepPivot), the incumbent
// shared across pivots. p = 1 is answered here, by the initiator alone,
// as soon as it qualifies. A GSGSelect engine (e.spat set) whose
// initiator is spatially ineligible searches nothing. solve records the
// query's metrics once, whatever the outcome, and returns the answer:
// Pivot −1 and a zero Interval when m = 0.
func (e *engine) solve(kind string, eligible *bitset.Set, cal *schedule.Calendar, calUser []int, m int) (*STGroup, Stats, error) {
	// Candidate generation (prepPivot) vs. search time is the split the
	// paper's evaluation reports; accumulate both and record once.
	var candidateTime, searchTime time.Duration
	defer func() {
		if m >= 1 {
			mCandidateSeconds.Observe(candidateTime.Seconds())
		}
		mSearchSeconds.Observe(searchTime.Seconds())
		recordStats(kind, e.stats)
	}()
	// search runs on the candidates reset left and reports whether the
	// query is done: p = 1 answered, or the budget spent.
	search := func(pivot int) bool {
		if e.p == 1 {
			e.bestDist = 0
			e.bestSet.Add(0)
			e.bestPiv = pivot
			e.stats.SolutionsFound++
			return true
		}
		searchStart := time.Now()
		e.expand(0)
		searchTime += time.Since(searchStart)
		return e.budgetHit
	}

	switch {
	case e.spat != nil && e.spat[0] < 0:
		// The initiator has no location or stands outside the activity
		// radius: feasibility, not parameter validity.
	case m == 0:
		if e.reset(eligible) {
			search(-1)
		}
	default:
		e.tmp = newTemporalState(e.n, m)
		e.initTemporalRHS(m)
		candidates := bitset.New(e.n)
		for _, pivot := range cal.PivotSlots(m) {
			prepStart := time.Now()
			ok := prepPivot(e, cal, calUser, candidates, cal.NewWindow(pivot, m))
			candidateTime += time.Since(prepStart)
			if !ok {
				e.stats.PivotsSkipped++
				continue
			}
			e.stats.PivotsProcessed++
			if search(pivot) {
				break
			}
		}
	}

	if e.bestSet.Count() != e.p {
		if e.budgetHit {
			return nil, e.stats, ErrBudgetExceeded
		}
		return nil, e.stats, ErrNoFeasibleGroup
	}
	ans := &STGroup{
		Group: Group{Members: e.bestSet.Indices(), TotalDistance: e.bestDist},
		Pivot: -1,
	}
	if m >= 1 {
		ans.Interval = widenInterval(cal, calUser, ans.Members, e.bestPiv)
		ans.Pivot = e.bestPiv
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

func validateSTG(rg *socialgraph.RadiusGraph, cal *schedule.Calendar, calUser []int, p, k, m int, opt Options) error {
	if err := validateSG(rg, p, k, opt); err != nil {
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

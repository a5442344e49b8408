package core

import (
	"fmt"
	"time"

	"repro/internal/bitset"
	"repro/internal/socialgraph"
)

// SGSelect solves SGQ(p, s, k) exactly on the given radius graph (which
// already encodes the initiator and the social radius constraint s; see
// socialgraph.ExtractRadiusGraph). It returns the group with the minimum
// total social distance, or ErrNoFeasibleGroup.
//
// restrict, when non-nil, confines the candidate attendees to the given
// radius-graph vertices (the initiator, vertex 0, is always a member). The
// sequential STGQ baseline uses this to solve per-activity-period SGQs.
// restrict is read, never modified: the search runs over the acquaintance
// core of restrict ∪ {0} (see engine.reset).
func SGSelect(rg *socialgraph.RadiusGraph, p, k int, restrict *bitset.Set, opt Options) (*Group, Stats, error) {
	if err := validateSG(rg, p, k); err != nil {
		return nil, Stats{}, err
	}
	if err := opt.validate(); err != nil {
		return nil, Stats{}, err
	}
	if p == 1 {
		return &Group{Members: []int{0}, TotalDistance: 0}, Stats{}, nil
	}
	e := newEngine(rg, p, k, opt)
	if e.reset(restrict) {
		searchStart := time.Now()
		e.expand(0)
		mSearchSeconds.ObserveSince(searchStart)
	}
	defer recordStats("sg", e.stats)
	if e.bestSet.Count() != p {
		if e.budgetHit {
			return nil, e.stats, ErrBudgetExceeded
		}
		return nil, e.stats, ErrNoFeasibleGroup
	}
	grp := &Group{
		Members:       e.bestSet.Indices(),
		TotalDistance: e.bestDist,
	}
	if e.budgetHit {
		// Anytime result: feasible but not proven optimal.
		return grp, e.stats, ErrBudgetExceeded
	}
	return grp, e.stats, nil
}

func validateSG(rg *socialgraph.RadiusGraph, p, k int) error {
	if rg == nil || rg.N() == 0 {
		return fmt.Errorf("%w: empty radius graph", ErrBadParams)
	}
	if p < 1 {
		return fmt.Errorf("%w: activity size p=%d < 1", ErrBadParams, p)
	}
	if k < 0 {
		return fmt.Errorf("%w: acquaintance constraint k=%d < 0", ErrBadParams, k)
	}
	return nil
}

package core

import (
	"fmt"

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
	if err := validateSG(rg, p, k, opt); err != nil {
		return nil, Stats{}, err
	}
	ans, stats, err := newEngine(rg, p, k, opt).solve("sg", restrict, nil, nil, 0)
	if ans == nil {
		return nil, stats, err
	}
	return &ans.Group, stats, err
}

func validateSG(rg *socialgraph.RadiusGraph, p, k int, opt Options) error {
	if rg == nil || rg.N() == 0 {
		return fmt.Errorf("%w: empty radius graph", ErrBadParams)
	}
	if p < 1 {
		return fmt.Errorf("%w: activity size p=%d < 1", ErrBadParams, p)
	}
	if k < 0 {
		return fmt.Errorf("%w: acquaintance constraint k=%d < 0", ErrBadParams, k)
	}
	return opt.validate()
}

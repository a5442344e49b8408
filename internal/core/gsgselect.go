package core

import (
	"fmt"
	"time"

	"repro/internal/bitset"
	"repro/internal/schedule"
	"repro/internal/socialgraph"
)

// GSGSelect solves the geo-social group query: the group of p vertices
// (initiator included) minimizing total combined distance — per member,
// social distance to the initiator plus spatial distance to the activity
// point — subject to the acquaintance constraint k, spatial eligibility,
// and, when m ≥ 1, m consecutive shared available slots exactly as in
// STGSelect. It follows the GSGQ/SSGQ successors of the STGQ paper (Zhu
// et al., Shen et al.): the three-way social × temporal × spatial pruning
// runs spatial first (ineligible vertices never reach the calendar or
// search machinery), and the branch-and-bound folds the spatial term into
// the incumbent total-distance bound, which keeps Lemma-2 distance
// pruning live across pivots.
//
// spat holds, per radius-graph vertex, the spatial distance in meters to
// the activity point; a negative entry marks the vertex spatially
// ineligible (no known location, or outside the query radius — the caller
// computes entries from its spatial index). The initiator's own spatial
// distance is the same for every candidate group, so it is excluded from
// the optimized total (spat[0] still decides the initiator's
// eligibility: a spatially ineligible initiator means no feasible group).
//
// With m == 0 the query is purely geo-social: cal and calUser are
// ignored (may be nil) and the returned STGroup carries no interval
// (Pivot is -1, Interval is the zero Period).
func GSGSelect(rg *socialgraph.RadiusGraph, spat []float64, cal *schedule.Calendar, calUser []int, p, k, m int, opt Options) (*STGroup, Stats, error) {
	if m >= 1 {
		if err := validateSTG(rg, cal, calUser, p, k, m); err != nil {
			return nil, Stats{}, err
		}
	} else if err := validateSG(rg, p, k); err != nil {
		return nil, Stats{}, err
	}
	if err := opt.validate(); err != nil {
		return nil, Stats{}, err
	}
	if m < 0 {
		return nil, Stats{}, fmt.Errorf("%w: activity length m=%d < 0", ErrBadParams, m)
	}
	if len(spat) != rg.N() {
		return nil, Stats{}, fmt.Errorf("%w: spat has %d entries for %d vertices", ErrBadParams, len(spat), rg.N())
	}
	if spat[0] < 0 {
		// The initiator has no location or stands outside the activity
		// radius: feasibility, not parameter validity.
		return nil, Stats{}, ErrNoFeasibleGroup
	}

	e := newEngine(rg, p, k, opt)
	e.spat = spat
	if m >= 1 {
		return runPivots(e, cal, calUser, m, "gsg")
	}

	// Pure geo-social: one search over the acquaintance core of the
	// spatially eligible vertices.
	defer func() { recordStats("gsg", e.stats) }()
	if p == 1 {
		return &STGroup{Group: Group{Members: []int{0}, TotalDistance: 0}, Pivot: -1}, e.stats, nil
	}
	eligible := bitset.New(e.n)
	for v := 0; v < e.n; v++ {
		if spat[v] >= 0 {
			eligible.Add(v)
		}
	}
	if e.reset(eligible) {
		searchStart := time.Now()
		e.expand(0)
		mSearchSeconds.ObserveSince(searchStart)
	}
	if e.bestSet.Count() != p {
		if e.budgetHit {
			return nil, e.stats, ErrBudgetExceeded
		}
		return nil, e.stats, ErrNoFeasibleGroup
	}
	ans := &STGroup{
		Group: Group{
			Members:       e.bestSet.Indices(),
			TotalDistance: e.bestDist,
		},
		Pivot: -1,
	}
	if e.budgetHit {
		// Anytime result: feasible but not proven optimal.
		return ans, e.stats, ErrBudgetExceeded
	}
	return ans, e.stats, nil
}

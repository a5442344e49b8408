// Package core implements the paper's primary contribution: the exact
// branch-and-bound algorithms SGSelect (Section 3.2) and STGSelect
// (Section 4.2) for the Social Group Query and the Social-Temporal Group
// Query, with all five strategies — access ordering (interior unfamiliarity
// and exterior expansibility), distance pruning, acquaintance pruning, pivot
// time slots, temporal extensibility, and availability pruning.
//
// # Search-space interpretation
//
// The paper's Algorithm 2/4 pseudo-code is written loosely (it mutates VS in
// place and "BREAK"s); the authoritative semantics come from the worked
// Examples 2 and 3 in Appendix A, which perform standard set-enumeration
// branch and bound: at each frame, candidates are examined in ascending
// social distance; a candidate that passes the admission conditions opens an
// include-branch (VS∪{u}, VA−{u}) explored recursively, after which u is
// excluded from the frame's VA; candidates failing a condition that is
// monotone in VS (U > k, X < 0, exterior expansibility) are excluded
// immediately; candidates failing only the θ/φ-relaxed forms are deferred and
// re-examined after the frame relaxes θ (then φ). This enumerates every
// candidate group at most once and never discards a feasible optimum, which
// is what Theorems 2 and 3 require.
//
// # Acquaintance-core peel
//
// One reduction here is not in the paper. A member of a feasible group has
// at most k strangers among the other p − 1 members, so it knows at least
// c = p − 1 − k of them: a feasible group lies inside the c-core of any
// candidate set that contains it (the k-plex degree condition behind
// Theorem 1). Before searching, SGSelect, each STGSelect pivot (after
// Definition 4's eligibility) and GSGSelect (after its spatial filter) peel
// their candidates to that core. The peel is exact — it removes only
// vertices of no feasible group, so the search meets the same groups in
// the same order and returns the same answer — and it is on by default;
// Options.DisableCorePeel restores the paper's candidate sets.
package core

import (
	"errors"
	"fmt"
)

var (
	// ErrNoFeasibleGroup is returned when no group satisfies the query.
	ErrNoFeasibleGroup = errors.New("core: no feasible group")
	// ErrBadParams is returned for out-of-range query parameters.
	ErrBadParams = errors.New("core: bad query parameters")
	// ErrBudgetExceeded is returned when Options.MaxVertices stopped the
	// search before optimality was proven. The accompanying group, when
	// non-nil, is the best solution found within the budget.
	ErrBudgetExceeded = errors.New("core: search budget exceeded")
)

// Options tunes the search. The zero value is NOT valid; start from
// DefaultOptions.
type Options struct {
	// Theta0 is the initial interior-unfamiliarity exponent θ (paper
	// Section 3.2.2). Larger values prefer well-connected vertices early.
	Theta0 int
	// Phi0 is the initial temporal-extensibility exponent φ (Section 4.2,
	// φ ≥ 1). Larger values admit vertices with smaller common windows.
	Phi0 int
	// PhiMax is the paper's "predetermined threshold t": once φ reaches it,
	// the right-hand side of the temporal extensibility condition becomes 0.
	PhiMax int

	// MaxVertices, when > 0, bounds the number of admission tests; the
	// search stops with ErrBudgetExceeded once it is reached, returning the
	// best solution found so far (anytime behavior for the exponential
	// worst case the paper acknowledges). 0 means unlimited.
	MaxVertices int64

	// Ablation switches for the paper's strategies (all false in the
	// paper's configuration).
	DisableDistancePruning       bool
	DisableAcquaintancePruning   bool
	DisableAccessOrdering        bool
	DisableAvailabilityPruning   bool
	DisableTemporalExtensibility bool

	// DisableCorePeel switches off the acquaintance-core peel (see the
	// package doc). The peel is not in the paper; it is exact by the k-plex
	// degree argument — every member of a feasible group knows at least
	// p − 1 − k others inside it — so answers are identical either way, and
	// it is on by default. Disabling it gives the paper's own candidate
	// sets: the reference the differential tests compare against, and the
	// configuration in which Example 2's pruning narrative plays out.
	DisableCorePeel bool

	// Deprecated: Runs is ignored. Pivot preparation reads each candidate's
	// window straight from its calendar row as packed words; the field
	// stays only until the availability index is retired.
	Runs PivotRuns
}

// DefaultOptions returns the configuration used throughout the paper's
// experiments (θ and φ as in Examples 2 and 3).
func DefaultOptions() Options {
	return Options{Theta0: 2, Phi0: 2, PhiMax: 6}
}

func (o Options) validate() error {
	if o.Theta0 < 0 {
		return fmt.Errorf("%w: Theta0 %d < 0", ErrBadParams, o.Theta0)
	}
	if o.Phi0 < 1 {
		return fmt.Errorf("%w: Phi0 %d < 1 (paper requires φ ≥ 1)", ErrBadParams, o.Phi0)
	}
	if o.PhiMax < o.Phi0 {
		return fmt.Errorf("%w: PhiMax %d < Phi0 %d", ErrBadParams, o.PhiMax, o.Phi0)
	}
	return nil
}

// Stats reports search effort and the firing counts of each pruning
// strategy. All counters are cumulative over one SGSelect/STGSelect call.
type Stats struct {
	// VerticesExamined counts admission tests (one per candidate per frame
	// visit).
	VerticesExamined int64
	// NodesExpanded counts recursive include-branches opened.
	NodesExpanded int64
	// SolutionsFound counts incumbent improvements.
	SolutionsFound int64

	DistancePrunes     int64 // Lemma 2 firings
	AcquaintancePrunes int64 // Lemma 3 firings
	AvailabilityPrunes int64 // Lemma 5 firings
	ExteriorRejects    int64 // Lemma 1 / Definition 3 rejections
	InteriorRejects    int64 // U > k permanent rejections
	TemporalRejects    int64 // X < 0 permanent rejections
	ThetaRelaxations   int64
	PhiRelaxations     int64
	PivotsProcessed    int64 // STGSelect only
	PivotsSkipped      int64 // pivots whose feasible graph was too small
	// CorePeeled counts vertices the acquaintance-core peel removed from
	// the candidates, summed over pivots (see Options.DisableCorePeel).
	CorePeeled int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.VerticesExamined += other.VerticesExamined
	s.NodesExpanded += other.NodesExpanded
	s.SolutionsFound += other.SolutionsFound
	s.DistancePrunes += other.DistancePrunes
	s.AcquaintancePrunes += other.AcquaintancePrunes
	s.AvailabilityPrunes += other.AvailabilityPrunes
	s.ExteriorRejects += other.ExteriorRejects
	s.InteriorRejects += other.InteriorRejects
	s.TemporalRejects += other.TemporalRejects
	s.ThetaRelaxations += other.ThetaRelaxations
	s.PhiRelaxations += other.PhiRelaxations
	s.PivotsProcessed += other.PivotsProcessed
	s.PivotsSkipped += other.PivotsSkipped
	s.CorePeeled += other.CorePeeled
}

// Group is an SGQ answer: the member vertices (radius-graph indices,
// ascending, always containing the initiator at index 0) and their total
// social distance to the initiator.
type Group struct {
	Members       []int
	TotalDistance float64
}

// Period is an inclusive range of absolute time slots.
type Period struct {
	Start, End int
}

// Len returns the number of slots in the period.
func (p Period) Len() int { return p.End - p.Start + 1 }

// STGroup is an STGQ answer: the group plus the maximal interval of
// consecutive slots (length ≥ m) during which every member is available, and
// the pivot slot under which it was found. Any m-slot sub-window of Interval
// is a valid activity period; Interval.Start is the canonical choice.
type STGroup struct {
	Group
	Interval Period
	Pivot    int
}

// Package core implements the paper's primary contribution: the exact
// branch-and-bound algorithms SGSelect (Section 3.2) and STGSelect
// (Section 4.2) for the Social Group Query and the Social-Temporal Group
// Query, with all five strategies — access ordering (interior unfamiliarity
// and exterior expansibility), distance pruning, acquaintance pruning, pivot
// time slots, temporal extensibility, and availability pruning; exterior
// expansibility and acquaintance pruning take the form of one degree
// condition, the acquaintance core (see below).
//
// # One driver
//
// Every query runs through one driver, engine.solve. STGSelect is the
// driver once per pivot time slot (Lemma 4), the incumbent shared across
// pivots; SGSelect and the purely geo-social GSGSelect (m = 0) are its
// no-window case, one search over the acquaintance core of the eligible
// vertices. The driver answers p = 1, records the query's metrics and
// turns the incumbent into the answer, or into ErrNoFeasibleGroup or
// ErrBudgetExceeded, in one place; that is also where a deadline check
// and a partial answer belong.
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
// monotone in VS (U > k, X < 0) are excluded immediately; candidates
// failing only the θ/φ-relaxed forms are deferred and re-examined after
// the frame relaxes θ (then φ). This enumerates every
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
// the same order and returns the same answer.
//
// The search keeps the same degree condition inside the frames: when a
// detach (a reject, a recorded group or an explored include-branch) leaves
// a VA member with fewer than c neighbours in VS ∪ VA, that member leaves
// VA too, and so on (the core cascade); when a VS member falls below c the
// frame has no feasible completion and ends. The cascade is exact for the
// same reason as the peel. Every frame the search examines is therefore
// core-closed: each member of VS ∪ VA has at least c neighbours in
// VS ∪ VA. Options.DisableAcquaintancePruning switches off the peel and
// the cascade together.
//
// # The acquaintance core is Lemmas 1 and 3
//
// The paper prunes acquaintance twice: exterior expansibility (Definition
// 3, Lemma 1) at each admission, and Lemma 3 at each frame. In a
// core-closed frame neither can fire, so the engine runs neither. With
// need = p − |VS|:
//   - for a candidate u, Lemma 1's inequality for each v ∈ VS ∪ {u}
//     reduces to exactly |N_v ∩ (VS ∪ VA)| ≥ c, which closure asserts;
//   - every VA member knows at least c − |VS| = need − 1 − k others in
//     VA, so the total inner degree of any need of them, and both of
//     Lemma 3's upper bounds on it, are at least need·(need − 1 − k).
//
// That right-hand side is the sound form of Lemma 3. The paper states it
// as need·(need − k), but a selected vertex has only need − 1 companions
// within the selection, of which k may be strangers; the paper's form
// over-prunes (a star with p = 4 and k = 2 is feasible but has total inner
// degree 0 < 3·(3 − 2)). TestCoreClosedFramesSubsumeLemmas1And3 checks
// both claims at every frame against the two rules as the engine ran them.
//
// # Lemma 2 on the need nearest
//
// The paper bounds a frame by need × (the smallest distance in VA), need =
// p − |VS|. Vertices are indexed by ascending social distance, so the sum
// of the first need members of VA is an equally cheap and tighter lower
// bound on every completion; SGSelect and STGSelect use it (GSGSelect, whose
// spatial term breaks the index order, keeps need × the smallest combined
// cost). Options.DisableDistancePruning switches the lemma off.
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
	// paper's configuration). DisableAcquaintancePruning switches off the
	// acquaintance core, this engine's form of Lemmas 1 and 3 (see the
	// package doc), so the search runs over the paper's own candidate
	// sets; DisableAccessOrdering switches off the θ deferral of interior
	// unfamiliarity.
	DisableDistancePruning       bool
	DisableAcquaintancePruning   bool
	DisableAccessOrdering        bool
	DisableAvailabilityPruning   bool
	DisableTemporalExtensibility bool

	// Deprecated: Runs is ignored. Pivot preparation reads each candidate's
	// window straight from its calendar row as packed words; the field
	// stays only while the benchmark's layer probe still assigns it.
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

	DistancePrunes int64 // Lemma 2 firings
	// Deprecated: AcquaintancePrunes is always 0; the acquaintance core
	// subsumes Lemma 3 (see CorePeeled and CoreCascaded). The field stays
	// only while the benchmark's trace still reads it.
	AcquaintancePrunes int64
	AvailabilityPrunes int64 // Lemma 5 firings
	InteriorRejects    int64 // U > k permanent rejections
	TemporalRejects    int64 // X < 0 permanent rejections
	ThetaRelaxations   int64
	PhiRelaxations     int64
	PivotsProcessed    int64 // STGSelect only
	PivotsSkipped      int64 // pivots whose feasible graph was too small
	// CorePeeled counts vertices the acquaintance-core peel removed from
	// the candidates before the search, summed over pivots.
	CorePeeled int64
	// CoreCascaded counts VA members the core cascade removed inside the
	// search.
	CoreCascaded int64
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

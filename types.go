package stgq

import (
	"errors"
	"fmt"

	"repro/internal/coordinate"
	"repro/internal/core"
	"repro/internal/schedule"
)

// Re-exported sentinel errors. Use errors.Is to test results.
var (
	// ErrNoFeasibleGroup: no group satisfies the query constraints.
	ErrNoFeasibleGroup = core.ErrNoFeasibleGroup
	// ErrBadQuery: out-of-range query parameters.
	ErrBadQuery = core.ErrBadParams
	// ErrPersonNotFound: unknown PersonID or name.
	ErrPersonNotFound = errors.New("stgq: person not found")
	// ErrNotFriends: Disconnect of a friendship that does not exist.
	ErrNotFriends = errors.New("stgq: not friends")
	// ErrCannotCoordinate: the manual-coordination simulation failed to
	// assemble a group.
	ErrCannotCoordinate = coordinate.ErrCannotCoordinate
)

// Options exposes the search tuning knobs of the core engine (θ/φ of the
// access-ordering conditions and the ablation switches). The zero value
// means "paper defaults".
type Options = core.Options

// DefaultOptions returns the configuration used in the paper's experiments.
func DefaultOptions() Options { return core.DefaultOptions() }

// Stats reports search effort; see the core package for field docs.
type Stats = core.Stats

// SGQuery is a social group query SGQ(p, s, k).
type SGQuery struct {
	// Initiator is the person planning the activity (always a member of the
	// answer group).
	Initiator PersonID
	// P is the activity size: the number of attendees including the
	// initiator.
	P int
	// S is the social radius constraint: candidates lie within S edges of
	// the initiator.
	S int
	// K is the acquaintance constraint: each attendee may be unacquainted
	// with at most K other attendees (0 = the group must be a clique).
	K int
	// Options tunes the search; nil means paper defaults.
	Options *Options
}

func (q SGQuery) options() core.Options {
	if q.Options != nil {
		return *q.Options
	}
	return core.DefaultOptions()
}

// STGQuery is a social-temporal group query STGQ(p, s, k, m).
type STGQuery struct {
	SGQuery
	// M is the activity length in consecutive time slots.
	M int
}

// Member is one attendee in an answer.
type Member struct {
	ID PersonID
	// Name is the display name ("" when unnamed).
	Name string
	// Distance is the social distance to the initiator along the best path
	// with at most S edges (0 for the initiator).
	Distance float64
}

func (m Member) String() string {
	if m.Name != "" {
		return fmt.Sprintf("%s(d=%g)", m.Name, m.Distance)
	}
	return fmt.Sprintf("#%d(d=%g)", int(m.ID), m.Distance)
}

// GroupResult is the answer to an SGQuery.
type GroupResult struct {
	// Members lists the attendees (initiator included) in ascending social
	// distance.
	Members       []Member
	TotalDistance float64
	// Stats reports search effort (zero for PlanWithSmallestK).
	Stats Stats
}

// TimeWindow is a half-open slot range [Start, End).
type TimeWindow struct {
	Start, End int
}

// Len returns the window length in slots.
func (w TimeWindow) Len() int { return w.End - w.Start }

// Format renders the window as human-readable day/time bounds assuming
// half-hour slots.
func (w TimeWindow) Format() string {
	if w.Len() <= 0 {
		return "(empty)"
	}
	return fmt.Sprintf("%s – %s", schedule.FormatSlot(w.Start), schedule.FormatSlot(w.End-1))
}

// PlanResult is the answer to an STGQuery: the optimal group plus the
// maximal common availability window (Len() ≥ M; any M-slot sub-window is a
// valid activity period).
type PlanResult struct {
	GroupResult
	Window TimeWindow
	// PivotSlot is the pivot time slot (Lemma 4) under which the optimum
	// was found; -1 when not applicable.
	PivotSlot int
}

// ManualPlan is the outcome of the PCArrange simulation.
type ManualPlan struct {
	Members       []Member
	TotalDistance float64
	// Window is the chosen M-slot activity period.
	Window TimeWindow
	// ObservedK is k_h: the largest number of unacquainted co-attendees any
	// member of the manually assembled group has.
	ObservedK int
}

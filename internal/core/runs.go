package core

// PivotRuns is a maximal-run lookup over a calendar (repro/internal/index
// provides one): for calendar user u, Run returns the maximal run of
// consecutive available slots containing slot, or ok=false when u is busy
// at slot.
//
// Deprecated: the engine does not consult it (see Options.Runs); pivot
// preparation derives runs from the calendar's row words. It stays only
// while the benchmark's layer probe still assigns Options.Runs.
type PivotRuns interface {
	Run(u, slot int) (lo, hi int, ok bool)
}

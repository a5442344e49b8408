package core

// PivotRuns is the read-side contract of the incremental availability
// index (see repro/internal/index): for calendar user u, Run returns the
// maximal run of consecutive available slots containing slot, or ok=false
// when u is busy at slot.
//
// Deprecated: the engine does not consult it (see Options.Runs); pivot
// preparation derives runs from the calendar's row words. It goes with
// the availability index.
type PivotRuns interface {
	Run(u, slot int) (lo, hi int, ok bool)
}

package stgq

import (
	"fmt"
	"strings"
)

// AvailabilityGrid renders the availability of the given people over the
// slot range [from, to) as a text grid — one row per person, '█' for free,
// '·' for busy — with a header marking the hours. Planners print this under
// a proposed activity so humans can sanity-check the window at a glance.
//
//	        18:00       20:00       22:00
//	ana     ████████████████
//	ben     ····████████████
//
// Invalid people or an empty range yield an empty string.
func (pl *Planner) AvailabilityGrid(people []PersonID, from, to int) string {
	if from < 0 {
		from = 0
	}
	if to > pl.horizon {
		to = pl.horizon
	}
	if from >= to || len(people) == 0 {
		return ""
	}
	// Names and rows are read in place, so the read lock is held for the
	// whole (small) render rather than for a capture.
	pl.mu.RLock()
	defer pl.mu.RUnlock()

	nameW := 8
	for _, p := range people {
		if n := len(pl.displayNameRLocked(p)); n+2 > nameW {
			nameW = n + 2
		}
	}

	var b strings.Builder
	// Header: mark every full hour (even slot index within the day).
	b.WriteString(strings.Repeat(" ", nameW))
	col := 0
	for s := from; s < to; s++ {
		if s%2 == 0 && s%SlotsPerDay >= 0 && (s-from)%4 == 0 {
			label := fmt.Sprintf("%02d:%02d", (s%SlotsPerDay)/2, (s%2)*30)
			if col+len(label) <= to-from {
				b.WriteString(label)
				s += len(label) - 1
				col += len(label)
				continue
			}
		}
		b.WriteByte(' ')
		col++
	}
	b.WriteByte('\n')

	for _, p := range people {
		if int(p) < 0 || int(p) >= pl.cal.Users() {
			continue
		}
		fmt.Fprintf(&b, "%-*s", nameW, pl.displayNameRLocked(p))
		for s := from; s < to; s++ {
			if pl.cal.Available(int(p), s) {
				b.WriteRune('█')
			} else {
				b.WriteRune('·')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// displayNameRLocked needs at least the read lock held.
func (pl *Planner) displayNameRLocked(p PersonID) string {
	if n := pl.g.Label(int(p)); n != "" {
		return n
	}
	return fmt.Sprintf("#%d", int(p))
}

// GridForPlan renders the availability of a plan's members around its
// window, including context slots on both sides.
func (pl *Planner) GridForPlan(plan *PlanResult, context int) string {
	if plan == nil {
		return ""
	}
	people := make([]PersonID, len(plan.Members))
	for i, m := range plan.Members {
		people[i] = m.ID
	}
	return pl.AvailabilityGrid(people, plan.Window.Start-context, plan.Window.End+context)
}

package index

import "repro/internal/obsv"

// mAvailUpdates counts the per-row rebuilds that replace full calendar
// recomputation.
var mAvailUpdates = obsv.NewCounter("stgq_index_avail_updates_total",
	"Availability rows rebuilt (copy-on-write) by SetAvailable/SetBusy mutations.")

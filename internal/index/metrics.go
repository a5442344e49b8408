package index

import "repro/internal/obsv"

// Index metrics expose how much recomputation the fast path is actually
// absorbing: label hits versus misses say whether radius-graph extraction
// is being served from cache, invalidations say how churny the graph is,
// and avail updates count the per-row rebuilds that replace full calendar
// recomputation.
var (
	mAvailUpdates = obsv.NewCounter("stgq_index_avail_updates_total",
		"Availability rows rebuilt (copy-on-write) by SetAvailable/SetBusy mutations.")
	mLabelHits = obsv.NewCounter("stgq_index_label_hits_total",
		"Distance-label cache hits: radius-graph extractions served without a Bellman-Ford pass.")
	mLabelMisses = obsv.NewCounter("stgq_index_label_misses_total",
		"Distance-label cache misses: extractions that ran the s-bounded distance pass over their ball.")
	mLabelInvalidations = obsv.NewCounter("stgq_index_label_invalidations_total",
		"Distance labels dropped by friendship edits (Connect/Disconnect).")
	mLabelEvictions = obsv.NewCounter("stgq_index_label_evictions_total",
		"Distance labels evicted by the FIFO capacity bound.")
)

package index

import "repro/internal/socialgraph"

// maxLabels bounds the distance-label cache. Landmarks are discovered by
// the workload itself — the initiators actually queried — so a small cap
// covers the hot set while bounding memory on long-tailed populations.
const maxLabels = 256

// labelKey identifies one cached ball: the vertices within radius edges
// of user, with their s-bounded distances.
type labelKey struct {
	user   int
	radius int
}

// label is one cached ball in the sparse form the distance pass produces
// (16 bytes per member, whatever the population), stamped with the
// sequence number of the graph state it was computed against.
type label struct {
	seq  uint64
	ball socialgraph.Ball
}

// labelCache holds the landmark labels with FIFO eviction. Entries are
// only ever valid for the current edge set: any friendship edit drops
// them all, so a present entry needs no revalidation.
type labelCache struct {
	cap     int
	entries map[labelKey]label
	order   []labelKey
}

func newLabelCache(cap int) *labelCache {
	return &labelCache{cap: cap, entries: make(map[labelKey]label)}
}

func (c *labelCache) invalidate() {
	if len(c.entries) == 0 {
		return
	}
	mLabelInvalidations.Add(uint64(len(c.entries)))
	c.entries = make(map[labelKey]label)
	c.order = c.order[:0]
}

// Label returns the cached ball of user at the given radius, if one is
// present. Its slices are shared and must not be mutated.
func (ix *Index) Label(user, radius int) (socialgraph.Ball, bool) {
	ix.mu.RLock()
	l, ok := ix.labels.entries[labelKey{user, radius}]
	ix.mu.RUnlock()
	if !ok {
		mLabelMisses.Inc()
		return socialgraph.Ball{}, false
	}
	mLabelHits.Inc()
	return l.ball, true
}

// StoreLabel caches the ball of user at the given radius as computed
// against the current graph. The caller must guarantee it reflects the
// graph at the index's current sequence number — the planner does so by
// computing it under the lock that serializes index applies. The ball's
// slices are retained; callers must not mutate them afterwards.
func (ix *Index) StoreLabel(user, radius int, ball socialgraph.Ball) {
	key := labelKey{user, radius}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.labels.entries[key]; !ok {
		if len(ix.labels.order) >= ix.labels.cap {
			oldest := ix.labels.order[0]
			ix.labels.order = ix.labels.order[1:]
			delete(ix.labels.entries, oldest)
			mLabelEvictions.Inc()
		}
		ix.labels.order = append(ix.labels.order, key)
	}
	ix.labels.entries[key] = label{seq: ix.seq, ball: ball}
}

// Labels returns the number of distance labels currently cached.
func (ix *Index) Labels() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.labels.entries)
}

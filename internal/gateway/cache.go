package gateway

// The gateway result cache (the second layer of the seq-keyed query fast
// path; the first is the planner's incremental index). Query responses
// are pure functions of the backend state they were computed from, and
// every durable backend stamps each query response with a lower bound on
// that state's position (service.AppliedSeqHeader + EpochHeader). An
// entry keyed by the canonicalized request and stamped with that (epoch,
// seq, time) can therefore be re-served to any later reader whose
// consistency demands the stamped position already satisfies:
//
//   - read-your-writes floor: replica.CompareSeq(entry.epoch, entry.seq,
//     epochFloor, minSeq) >= 0 — precisely the predicate pickFollower
//     uses to admit a backend for a floored read;
//   - fencing: entry.epoch at or past the highest epoch observed on any
//     healthy backend, so results computed on an orphaned pre-failover
//     timeline are never served after the gateway adopts a new epoch;
//   - bounded staleness: the watermark clock's estimate for the entry's
//     seq within the request's bound, exactly as for a live follower at
//     that position;
//   - a TTL backstop bounding how long any entry may live at all.
//
// Identical queries in flight are additionally collapsed: one upstream
// fetch, every concurrent waiter re-checks the produced entry against
// its own floor and bound before accepting it (a waiter with a stricter
// floor falls through to its own fetch — collapsing never weakens the
// consistency contract).

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obsv"
	"repro/internal/replica"
	"repro/internal/service"
)

// CacheHeader marks a response served (or collapsed) from the gateway
// result cache: "hit" for a stored entry, "collapsed" for a response
// shared with an identical in-flight query. Absent on cache misses and
// uncacheable requests.
const CacheHeader = "X-STGQ-Cache"

// DefaultCacheSize is the default result-cache capacity in entries.
const DefaultCacheSize = 512

// DefaultCacheTTL is the default time-to-live backstop for cached query
// results. Admission is primarily seq-based — a mutation moves the
// cluster past the entry's stamp and floored readers stop matching — but
// floorless, unbounded readers would otherwise accept arbitrarily old
// entries, so a short wall-clock lid keeps worst-case staleness for
// them on the order of the probe interval.
const DefaultCacheTTL = time.Second

var (
	mCacheHits = obsv.NewCounter("stgq_gateway_cache_hits_total",
		"Query reads served from the gateway result cache.")
	mCacheMisses = obsv.NewCounter("stgq_gateway_cache_misses_total",
		"Cacheable query reads that went to a backend (no admissible entry).")
	mCacheCollapsed = obsv.NewCounter("stgq_gateway_cache_collapsed_total",
		"Query reads that shared an identical in-flight query's response.")
	mCacheStores = obsv.NewCounter("stgq_gateway_cache_stores_total",
		"Query responses admitted into the result cache.")
	mCacheEvictions = obsv.NewCounter("stgq_gateway_cache_evictions_total",
		"Result-cache entries evicted to make room (FIFO).")
	mCacheRejects = obsv.NewCounter("stgq_gateway_cache_rejects_total",
		"Cache entries found but refused by admission (floor, fencing, staleness bound, or TTL).")
)

// cacheEntry is one stored query response with the replication
// coordinate it reflects.
type cacheEntry struct {
	epoch uint64
	seq   uint64
	at    time.Time
	resp  *proxied
	url   string // backend that produced the response
}

// flight is one in-progress upstream fetch for a cache key. done is
// closed when the fetch finishes; entry is the stored result (nil when
// the fetch failed or the response was not cacheable).
type flight struct {
	done  chan struct{}
	entry *cacheEntry
}

// resultCache holds entries and collapses identical in-flight queries.
// Eviction is FIFO: entries are seq-stamped, so recency of insertion —
// not of use — tracks how likely an entry is to still be admissible.
type resultCache struct {
	ttl time.Duration

	mu      sync.Mutex
	cap     int
	entries map[string]*cacheEntry
	order   []string
	flights map[string]*flight
}

func newResultCache(capacity int, ttl time.Duration) *resultCache {
	return &resultCache{
		ttl:     ttl,
		cap:     capacity,
		entries: make(map[string]*cacheEntry, capacity),
		flights: make(map[string]*flight),
	}
}

// get returns the stored entry for key, or nil. Admission is the
// caller's job (it depends on the reader's floor and bound).
func (c *resultCache) get(key string) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[key]
}

// put stores an entry, evicting the oldest insertion when full. A key
// stored again (a fresher result for the same query) keeps its original
// FIFO position: the new stamp, not the slot's age, decides admission.
func (c *resultCache) put(key string, e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; !ok {
		for len(c.order) >= c.cap {
			oldest := c.order[0]
			c.order = c.order[1:]
			delete(c.entries, oldest)
			mCacheEvictions.Inc()
		}
		c.order = append(c.order, key)
	}
	c.entries[key] = e
	mCacheStores.Inc()
}

// join registers interest in key's in-flight fetch. leader=true means
// the caller owns the fetch and must call complete; otherwise the caller
// may wait on the returned flight's done channel.
func (c *resultCache) join(key string) (fl *flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fl, ok := c.flights[key]; ok {
		return fl, false
	}
	fl = &flight{done: make(chan struct{})}
	c.flights[key] = fl
	return fl, true
}

// complete finishes the leader's flight: publishes the entry (nil when
// the fetch failed or was uncacheable) and releases every waiter.
func (c *resultCache) complete(key string, fl *flight, e *cacheEntry) {
	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
	fl.entry = e
	close(fl.done)
}

// cacheKeyFor returns the result-cache key for a read, or "" when the
// request is not cacheable (caching disabled, or not a query POST — GET
// /status and friends report live, per-backend state). The body is
// canonicalized through a JSON round trip (Go object keys marshal
// sorted), so field order and whitespace differences collapse onto one
// entry; a body that is not a JSON object keys on its raw bytes and
// still caches correctly, merely with fewer coalesced variants.
func (g *Gateway) cacheKeyFor(r *http.Request, body []byte) string {
	if g.cache == nil || r.Method != http.MethodPost || !strings.HasPrefix(r.URL.Path, "/query/") {
		return ""
	}
	key := r.URL.Path + "\x00"
	var obj map[string]any
	if err := json.Unmarshal(body, &obj); err == nil {
		if canon, err := json.Marshal(obj); err == nil {
			return key + string(canon)
		}
	}
	return key + string(body)
}

// cacheAdmissible decides whether one stored entry may serve one reader.
// It mirrors pickFollower's backend admission exactly, with the entry's
// stamped (epoch, seq) standing in for a probed backend position — plus
// the TTL backstop. The entry's stamp is a lower bound on the state the
// result reflects, so every check errs toward refusing: a refused entry
// costs one backend round trip, an over-admitted one would violate the
// consistency contract.
func (g *Gateway) cacheAdmissible(e *cacheEntry, minSeq uint64, bound float64) bool {
	if time.Since(e.at) > g.cache.ttl {
		return false
	}
	g.mu.Lock()
	floor := g.maxEpoch
	g.mu.Unlock()
	if e.epoch < floor || replica.CompareSeq(e.epoch, e.seq, floor, minSeq) < 0 {
		return false
	}
	if bound >= 0 {
		if st := g.staleness(e.seq); st < 0 || st > bound {
			return false
		}
	}
	return true
}

// cacheable reports whether a proxied query response may be stored: a
// definitive answer (200, or 422 — a completed infeasibility proof, just
// as pure and repeatable as a solution) from a backend that stamped its
// replication coordinate. In-memory backends stamp nothing and are never
// cached; errors and barrier misses (412) describe the attempt, not the
// query, and are never cached either.
func cacheEntryFrom(p *proxied, url string) *cacheEntry {
	if p.status != http.StatusOK && p.status != http.StatusUnprocessableEntity {
		return nil
	}
	seq, err := strconv.ParseUint(p.header.Get(service.AppliedSeqHeader), 10, 64)
	if err != nil {
		return nil
	}
	epoch, err := strconv.ParseUint(p.header.Get(service.EpochHeader), 10, 64)
	if err != nil {
		return nil
	}
	// Store a sanitized copy: the request id and timing breakdown belong
	// to the request that populated the entry, not to later hits.
	h := make(http.Header, len(p.header))
	copyHeader(h, p.header)
	h.Del(service.RequestIDHeader)
	h.Del(obsv.ServerTimingHeader)
	return &cacheEntry{
		epoch: epoch,
		seq:   seq,
		at:    time.Now(),
		resp:  &proxied{status: p.status, header: h, body: bytes.Clone(p.body)},
		url:   url,
	}
}

// serveCached relays a cache entry to the client, marked with
// CacheHeader so clients can observe the fast path.
func serveCached(w http.ResponseWriter, r *http.Request, e *cacheEntry, how string) {
	w.Header().Set(CacheHeader, how)
	relay(w, r, e.resp, e.url)
}

package gateway

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
)

// Backend is one upstream stgqd server in the gateway's pool. Its identity
// is the base URL; everything else is probed.
type Backend struct {
	// URL is the backend's base URL, e.g. http://follower-1:8080 (no
	// trailing slash).
	URL string

	// pending counts in-flight proxied requests — the load signal of the
	// least-pending-requests director.
	pending atomic.Int64
	// served counts completed proxied requests (success or error), for
	// the gateway's own /gateway/status.
	served atomic.Uint64

	mu sync.Mutex
	h  health
}

// health is the prober's last view of one backend.
type health struct {
	// Probed is true once at least one probe has completed (successfully
	// or not); an unprobed backend is never routed to.
	Probed bool
	// Healthy is true when the last probe got HTTP 200 and the backend
	// reported healthy (a follower mid-bootstrap reports healthy=false).
	Healthy bool
	// Role is the backend's self-reported role: "leader", "follower", or
	// "" (in-memory).
	Role string
	// Pos is the backend's durable (leader) or applied (follower)
	// position. Its epoch is the fencing generation of the durable
	// history the backend serves, bumped on every promotion; leader
	// claims are ordered by Pos.Compare, so a revived dead leader, which
	// keeps its old epoch, can never outrank the promoted follower no
	// matter how long its orphaned history is. Durable backends from
	// before epochs existed are normalized to epoch 1; epoch 0 means
	// in-memory. The seq is the coordinate staleness estimates compare.
	Pos journal.Pos
	// Err is the last probe failure ("" when the probe succeeded).
	Err string
	// At is when the probe completed.
	At time.Time
}

func (b *Backend) health() health {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.h
}

func (b *Backend) setHealth(h health) {
	b.mu.Lock()
	b.h = h
	b.mu.Unlock()
}

// markDown records a proxy-observed failure immediately, without waiting
// for the next probe cycle: the director must stop picking a backend the
// moment a request to it fails, or every retry window would re-try the
// same dead server.
func (b *Backend) markDown(err error) {
	b.mu.Lock()
	if b.h.Healthy {
		b.h.Healthy = false
		b.h.Err = "proxy: " + err.Error()
	}
	b.mu.Unlock()
}

// BackendStatus is one backend's entry in the gateway's own status
// response.
type BackendStatus struct {
	// URL is the backend's base URL — its identity in the pool.
	URL string `json:"url"`
	// Role is the backend's self-reported role ("leader", "follower", or
	// "" for in-memory).
	Role string `json:"role,omitempty"`
	// Healthy reports whether the last probe succeeded and the backend
	// called itself routable.
	Healthy bool `json:"healthy"`
	// StalenessSeconds estimates how far behind the leader the backend's
	// state is (0 = caught up; -1 = unknown).
	StalenessSeconds float64 `json:"stalenessSeconds"`
	// Epoch is the probed leader epoch (0 = in-memory; see health.Pos).
	Epoch uint64 `json:"epoch,omitempty"`
	// DurableSeq is the probed durable/applied sequence number.
	DurableSeq uint64 `json:"durableSeq"`
	// Pending counts in-flight proxied requests right now.
	Pending int64 `json:"pending"`
	// Served counts proxied requests completed over the backend's lifetime.
	Served uint64 `json:"served"`
	// LatencyP99Seconds is the estimated 99th-percentile proxied
	// round-trip latency against this backend (0 before any traffic).
	LatencyP99Seconds float64 `json:"latencyP99Seconds"`
	// Error is the last probe or proxy failure ("" when healthy).
	Error string `json:"error,omitempty"`
	// ProbedAt is the RFC 3339 time of the last completed probe.
	ProbedAt string `json:"probedAt,omitempty"`
}

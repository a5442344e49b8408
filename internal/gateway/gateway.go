// Package gateway is the cluster front door of the planner service: one
// reverse proxy that fronts a replication leader plus N read followers
// (see repro/internal/replica) so clients need a single URL instead of
// picking servers by hand. SGQ/STGQ query traffic — read-heavy, NP-hard
// searches — fans out across the followers; mutations converge on the
// leader.
//
// # Topology
//
//	                      ┌────────────► leader stgqd  (all mutations)
//	clients ──► stgqgw ───┤                  │ /replication/stream
//	                      ├─► follower stgqd ┤
//	                      └─► follower stgqd ┘   (queries, least pending)
//
// # Routing
//
// A health prober polls every backend's GET /status (role, healthy flag,
// durable/applied sequence number). Reads — POST /query/* and other GETs —
// go to the healthy follower with the fewest in-flight requests; mutations
// are forwarded to the leader. When a mutation bounces with 403 and an
// X-STGQ-Leader hint (the leader moved), the gateway re-sends it to the
// hinted URL transparently and adopts it as the new leader. A read whose
// follower dies mid-request is retried once on a different backend —
// queries are pure reads, so the retry is safe.
//
// # Bounded staleness
//
// Followers replicate asynchronously, so reads can be stale. The gateway
// bounds the staleness it is willing to serve: per request with the
// X-STGQ-Max-Lag-Seconds header, or per deployment with Config.MaxLag
// (stgqgw -max-lag). Staleness is estimated from the leader's durable
// sequence number: each probe records when the gateway first saw the
// leader at a given seq (a watermark timeline), and a follower whose
// applied seq is below a watermark has been stale since at least that
// watermark's time. Followers over the bound are skipped; the leader — by
// definition current — is the fallback, so a bounded read degrades to the
// leader rather than failing. Reads never silently fall below the bound:
// a backend admitted by the estimate can only be fresher than estimated.
//
// # Read-your-writes sessions
//
// Async replication means a client that writes through the gateway could
// re-read through a lagging follower and miss its own write — fatal for
// the interactive "edit availability, re-plan" loop. The gateway closes
// that window per client: every acknowledged mutation response carries
// the leader's durable sequence number (X-STGQ-Write-Seq), and a read
// that presents a floor — by echoing that header, by naming a sticky
// session (X-STGQ-Session) whose last write the gateway remembers, or
// with an explicit X-STGQ-Min-Seq — is routed only to state at or past
// it: a follower already probed past the floor, else a follower holding
// the forwarded X-STGQ-Min-Seq read barrier until it catches up, else
// the leader (a follower whose barrier times out answers 412 and the
// gateway retries the read on the leader). docs/consistency.md states
// the resulting contract precisely.
//
// # Failover
//
// Every durable backend reports a leader epoch — a fencing generation
// bumped on promotion — and the gateway orders leader claims by (epoch,
// durableSeq), remembering the highest epoch it has seen on any healthy
// backend. A revived dead leader therefore cannot win the leadership
// back: its epoch is stale no matter how long its orphaned history is.
// When the adopted leader probes unhealthy and no other claimant exists,
// the gateway forgets it and answers mutations with an immediate 503 +
// Retry-After instead of dialing a dead URL. With Config.AutoFailover
// set (stgqgw -auto-failover), a cluster that stays leaderless past the
// grace period triggers a promotion: the prober POSTs /promote to the
// most caught-up healthy follower and adopts it at its new, higher
// epoch.
package gateway

import (
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
	"repro/internal/obsv"
	"repro/internal/service"
)

// Config describes the cluster the gateway fronts.
type Config struct {
	// Backends lists every backend base URL — the leader and the
	// followers in any order; roles are probed, not configured, so a
	// promoted follower is picked up without a gateway restart.
	Backends []string
	// MaxLag is the default read-staleness bound applied when a request
	// carries no X-STGQ-Max-Lag-Seconds header. 0 (or negative) means
	// unbounded: any healthy follower may serve, however stale.
	MaxLag time.Duration
	// ProbeInterval is the /status polling cadence (default 1s).
	ProbeInterval time.Duration
	// SessionCap bounds the sticky read-your-writes session table (see
	// SessionHeader): 0 means DefaultSessionCap, negative disables
	// session tracking entirely (clients that want read-your-writes must
	// then echo X-STGQ-Write-Seq themselves).
	SessionCap int
	// AutoFailover, when positive, makes the gateway drive failover
	// itself: once the cluster has had no healthy leader for this grace
	// period, the prober promotes the most caught-up healthy follower
	// (POST /promote) and adopts it. 0 (the default) leaves promotion to
	// the operator. The grace period must comfortably exceed the probe
	// interval plus any plausible leader GC/restart pause — promoting
	// while the leader is merely slow forks the history.
	AutoFailover time.Duration
	// CacheSize bounds the query result cache (see cache.go): 0 means
	// DefaultCacheSize, negative disables result caching entirely
	// (in-flight collapsing included).
	CacheSize int
	// CacheTTL is the wall-clock backstop on result-cache entries; 0
	// means DefaultCacheTTL. Admission is primarily by replication
	// coordinate — see cacheAdmissible — so the TTL only bounds what
	// floorless, unbounded readers can observe.
	CacheTTL time.Duration
	// SlowRequest is the slow-request log threshold: any proxied request
	// (the replication stream excluded) slower than it logs one line
	// carrying the X-STGQ-Request-ID the gateway stamped, matching the
	// backend's line for the same request. Zero means
	// service.DefaultSlowRequest; negative disables the log.
	SlowRequest time.Duration
}

// Gateway is the reverse proxy. Create with New, start the prober with
// Run (in its own goroutine), and mount it anywhere (it implements
// http.Handler).
type Gateway struct {
	backends    []*Backend
	maxLag      float64 // seconds; < 0 = unbounded
	probeEvery  time.Duration
	slowRequest time.Duration
	// client issues proxied requests, probes and promotions. It has no
	// global timeout (replication streams long-poll); probes and
	// promotions bound themselves by context.
	client *http.Client

	// leader is the current write endpoint: the probed leader, or the
	// most recent 403 redirect hint — whichever arrived last ("" when
	// the last known leader died and nothing has replaced it yet).
	leader atomic.Value // string

	// sessions maps sticky session ids to their read-your-writes floor
	// (nil when session tracking is disabled).
	sessions *sessionTable
	// cache is the seq-keyed query result cache (nil when disabled).
	cache *resultCache
	// rywReads counts reads that carried a read-your-writes floor;
	// rywLeaderRetries counts barrier misses (a follower answered 412)
	// that were retried on the leader.
	rywReads         atomic.Uint64
	rywLeaderRetries atomic.Uint64

	autoFailover time.Duration

	mu    sync.Mutex // guards marks and the failover state below
	marks []watermark
	// maxEpoch is the highest leader epoch observed on any healthy
	// backend — the fencing floor below which leader claims are ignored.
	maxEpoch uint64
	// leaderSeenAt is when a healthy leader was last adopted (zero:
	// never); the auto-failover grace period counts from it.
	leaderSeenAt time.Time
	failovers    uint64
	lastFailover string

	// drainCh, once closed by StopStreams, cancels every proxied
	// replication stream so a server Shutdown never has to wait out
	// their long-poll lifetime.
	drainCh   chan struct{}
	drainOnce sync.Once
}

// New validates cfg and builds the gateway. The pool view is empty until
// Run (or ProbeOnce) has probed the backends.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("gateway: no backends configured")
	}
	g := &Gateway{
		maxLag:       cfg.MaxLag.Seconds(),
		probeEvery:   cfg.ProbeInterval,
		slowRequest:  cfg.SlowRequest,
		autoFailover: cfg.AutoFailover,
		client:       &http.Client{},
		drainCh:      make(chan struct{}),
	}
	if g.slowRequest == 0 {
		g.slowRequest = service.DefaultSlowRequest
	}
	if g.maxLag <= 0 {
		g.maxLag = -1
	}
	if g.probeEvery <= 0 {
		g.probeEvery = DefaultProbeInterval
	}
	sessionCap := cfg.SessionCap
	if sessionCap == 0 {
		sessionCap = DefaultSessionCap
	}
	if sessionCap > 0 {
		g.sessions = newSessionTable(sessionCap)
	}
	cacheSize := cfg.CacheSize
	if cacheSize == 0 {
		cacheSize = DefaultCacheSize
	}
	if cacheSize > 0 {
		ttl := cfg.CacheTTL
		if ttl <= 0 {
			ttl = DefaultCacheTTL
		}
		g.cache = newResultCache(cacheSize, ttl)
	}
	g.leader.Store("")
	seen := make(map[string]bool, len(cfg.Backends))
	for _, raw := range cfg.Backends {
		u := strings.TrimRight(strings.TrimSpace(raw), "/")
		if u == "" {
			continue
		}
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return nil, errors.New("gateway: backend URL must be http(s): " + raw)
		}
		if seen[u] {
			continue
		}
		seen[u] = true
		g.backends = append(g.backends, &Backend{URL: u})
	}
	if len(g.backends) == 0 {
		return nil, errors.New("gateway: no backends configured")
	}
	return g, nil
}

// MaxLagHeader is the per-request read-staleness bound, in (fractional)
// seconds. It overrides the gateway's -max-lag default; "0" demands a
// fully caught-up backend (in practice: the leader, unless a follower has
// applied everything the gateway has observed).
const MaxLagHeader = "X-STGQ-Max-Lag-Seconds"

// BackendHeader names the backend that served a proxied response — an
// observability aid for clients and the handle the end-to-end tests assert
// routing with.
const BackendHeader = "X-STGQ-Backend"

// ServeHTTP implements http.Handler: the director. Every proxied
// request is stamped with an X-STGQ-Request-ID (generated here unless
// the client supplied one) that travels upstream and back, so one slow
// request can be traced gateway → backend by a single id.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case strings.HasPrefix(r.URL.Path, "/gateway/"):
		g.serveOwn(w, r)
	case r.URL.Path == "/metrics" && (r.Method == http.MethodGet || r.Method == http.MethodHead):
		// The gateway's own metrics, not a proxied backend's: the two
		// views disagree by design (routing tiers vs. journal internals).
		obsv.Handler(obsv.Default).ServeHTTP(w, r)
	case r.URL.Path == "/replication/stream":
		// Followers (or a chained gateway) may sync through the front
		// door; the stream long-polls, so it is proxied unbuffered —
		// and untimed: a long-poll held open for its lifetime is not a
		// slow request.
		g.forwardStream(w, r)
	case isRead(r):
		reqID := ensureRequestID(r)
		if reqID != "" {
			w.Header().Set(service.RequestIDHeader, reqID)
		}
		// The stage collector accumulates the gateway's own share of the
		// request (gw_route, gw_backend); relay renders it as a second
		// X-STGQ-Server-Timing value next to the backend's.
		r = r.WithContext(obsv.WithStages(r.Context(), obsv.NewStages()))
		start := time.Now()
		g.forwardRead(w, r)
		g.observeRequest("read", r, reqID, start)
	default:
		reqID := ensureRequestID(r)
		if reqID != "" {
			w.Header().Set(service.RequestIDHeader, reqID)
		}
		r = r.WithContext(obsv.WithStages(r.Context(), obsv.NewStages()))
		start := time.Now()
		g.forwardMutation(w, r)
		g.observeRequest("mutation", r, reqID, start)
	}
}

// isRead classifies a request as an idempotent read: every GET and the
// query endpoints (pure, repeatable searches despite being POSTs).
func isRead(r *http.Request) bool {
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		return true
	}
	return r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/query/")
}

// maxLagFor resolves the staleness bound for one request. ok=false means
// the header was malformed (a 400 was written).
func (g *Gateway) maxLagFor(w http.ResponseWriter, r *http.Request) (bound float64, ok bool) {
	v := r.Header.Get(MaxLagHeader)
	if v == "" {
		return g.maxLag, true
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || f < 0 || math.IsNaN(f) {
		// NaN would compare false against every staleness estimate and
		// silently disable the bound instead of enforcing it.
		writeError(w, http.StatusBadRequest, "bad "+MaxLagHeader+" header: "+v)
		return 0, false
	}
	return f, true
}

// leaderURL returns the current write endpoint ("" when none known).
func (g *Gateway) leaderURL() string {
	s, _ := g.leader.Load().(string)
	return s
}

// backendFor returns the pool entry for url (nil for a 403-hinted leader
// outside the configured pool).
func (g *Gateway) backendFor(url string) *Backend {
	url = strings.TrimRight(url, "/")
	for _, b := range g.backends {
		if b.URL == url {
			return b
		}
	}
	return nil
}

// pickRead selects the backend for a read with the given staleness bound
// (seconds; < 0 = unbounded) and read-your-writes floor minSeq (0 = no
// floor), skipping exclude (the backend a first attempt just failed on).
// Selection tiers:
//
//  1. healthy followers within the bound whose probed position has
//     reached the floor — least pending requests wins;
//  2. floored reads only: healthy followers within the bound still below
//     the floor — the most caught-up wins, and the X-STGQ-Min-Seq
//     barrier the gateway forwards holds the read at the follower until
//     it reaches the floor (a 412 barrier miss is retried on the
//     leader; see relayRead);
//  3. the leader (always current, and the origin of every sequence
//     number);
//  4. unbounded, floorless reads only: any other healthy backend (an
//     in-memory server, or followers of unknown staleness when no leader
//     has ever been observed) — serving degraded beats failing the
//     request.
//
// A bounded or floored read never reaches tier 4: with no eligible
// follower and no leader it returns nil (503) rather than silently
// violating the client's freshness contract — an in-memory backend has
// no sequence coordinate at all. Fenced followers — durable backends
// whose epoch is below the observed floor — are never picked at any
// tier: their state is an orphaned timeline from before a failover, and
// the watermark clock (truncated to the new history) would report them
// as caught up.
//
// The second return value names the winning tier ("follower",
// "barrier", "leader", "degraded", or "none"), counted in the
// stgq_gateway_route_total metric.
func (g *Gateway) pickRead(bound float64, minSeq uint64, exclude *Backend) (*Backend, string) {
	b, tier := g.pickReadTiered(bound, minSeq, exclude)
	mRoute.With(tier).Inc()
	return b, tier
}

func (g *Gateway) pickReadTiered(bound float64, minSeq uint64, exclude *Backend) (*Backend, string) {
	leaderURL := g.leaderURL()
	g.mu.Lock()
	floor := g.maxEpoch
	g.mu.Unlock()
	if b := g.pickFollower(bound, journal.Pos{Epoch: floor, Seq: minSeq}, exclude, leaderURL, false); b != nil {
		return b, "follower"
	}
	if minSeq > 0 {
		if b := g.pickFollower(bound, journal.Pos{Epoch: floor}, exclude, leaderURL, true); b != nil {
			return b, "barrier"
		}
	}
	if lb := g.backendFor(leaderURL); lb != nil && lb != exclude && lb.health().Healthy {
		return lb, "leader"
	}
	if bound >= 0 || minSeq > 0 {
		return nil, "none"
	}
	var best *Backend
	var bestPending int64
	for _, b := range g.backends {
		if b == exclude || b.URL == leaderURL {
			continue
		}
		h := b.health()
		if !h.Healthy || (h.Pos.Epoch > 0 && h.Pos.Epoch < floor) {
			continue // fenced durable backend; in-memory (epoch 0) stays eligible
		}
		if p := b.pending.Load(); best == nil || p < bestPending {
			best, bestPending = b, p
		}
	}
	if best == nil {
		return nil, "none"
	}
	return best, "degraded"
}

// pickFollower scans the healthy followers within the staleness bound
// whose probed position has reached floor: the fencing epoch with the
// read-your-writes seq, so a follower below the fencing epoch never
// qualifies. With preferSeq set — the barrier tier — the most caught-up
// follower wins (closest to the floor, so it clears the forwarded
// barrier soonest); otherwise the one with the fewest pending requests
// (the load tier).
func (g *Gateway) pickFollower(bound float64, floor journal.Pos, exclude *Backend, leaderURL string, preferSeq bool) *Backend {
	var best *Backend
	var bestPending int64
	var bestPos journal.Pos
	for _, b := range g.backends {
		if b == exclude || b.URL == leaderURL {
			continue
		}
		h := b.health()
		if !h.Healthy || h.Role != "follower" || h.Pos.Compare(floor) < 0 {
			continue
		}
		if bound >= 0 {
			if st := g.staleness(h.Pos.Seq); st < 0 || st > bound {
				continue
			}
		}
		p := b.pending.Load()
		better := best == nil
		if !better {
			if preferSeq {
				c := h.Pos.Compare(bestPos)
				better = c > 0 || (c == 0 && p < bestPending)
			} else {
				better = p < bestPending
			}
		}
		if better {
			best, bestPending, bestPos = b, p, h.Pos
		}
	}
	return best
}

// StatusResponse answers GET /gateway/status.
type StatusResponse struct {
	// Leader is the current write endpoint ("" when none known).
	Leader string `json:"leader,omitempty"`
	// LeaderEpoch is the fencing floor: the highest epoch observed on
	// any healthy backend. Leader claims below it are ignored.
	LeaderEpoch uint64 `json:"leaderEpoch,omitempty"`
	// MaxLagSeconds is the default read bound (-1 = unbounded).
	MaxLagSeconds float64 `json:"maxLagSeconds"`
	// AutoFailoverSeconds is the leaderless grace period before the
	// gateway promotes a follower itself (0 = disabled).
	AutoFailoverSeconds float64 `json:"autoFailoverSeconds,omitempty"`
	// Failovers counts promotions this gateway has driven.
	Failovers uint64 `json:"failovers,omitempty"`
	// LastFailover describes the most recent auto-failover decision.
	LastFailover string `json:"lastFailover,omitempty"`
	// Sessions counts the sticky read-your-writes sessions currently
	// tracked (absent when session tracking is disabled).
	Sessions int `json:"sessions,omitempty"`
	// RYWReads counts reads that carried a read-your-writes floor
	// (session, echoed write seq, or explicit min seq).
	RYWReads uint64 `json:"rywReads,omitempty"`
	// RYWLeaderRetries counts read-your-writes barrier misses — a
	// follower answered 412 within its bounded wait — that the gateway
	// retried on the leader. A growing rate means replication lag is
	// regularly outrunning the follower barrier wait.
	RYWLeaderRetries uint64 `json:"rywLeaderRetries,omitempty"`
	// Stages summarizes the gateway's per-request stage latency since
	// process start (gw_route, gw_backend) — the gateway's share of the
	// X-STGQ-Server-Timing breakdown, aggregated.
	Stages map[string]obsv.Summary `json:"stages,omitempty"`
	// Backends is the probed pool view, one entry per configured backend.
	Backends []BackendStatus `json:"backends"`
}

// Status reports the gateway's current view of the pool.
func (g *Gateway) Status() StatusResponse {
	resp := StatusResponse{
		Leader:              g.leaderURL(),
		MaxLagSeconds:       g.maxLag,
		AutoFailoverSeconds: g.autoFailover.Seconds(),
	}
	g.mu.Lock()
	resp.LeaderEpoch = g.maxEpoch
	resp.Failovers = g.failovers
	resp.LastFailover = g.lastFailover
	g.mu.Unlock()
	if g.sessions != nil {
		resp.Sessions = g.sessions.size()
	}
	resp.RYWReads = g.rywReads.Load()
	resp.RYWLeaderRetries = g.rywLeaderRetries.Load()
	if st := mGatewayStageSeconds.Summaries(); len(st) > 0 {
		resp.Stages = st
	}
	for _, b := range g.backends {
		h := b.health()
		bs := BackendStatus{
			URL:               b.URL,
			Role:              h.Role,
			Healthy:           h.Healthy,
			StalenessSeconds:  -1,
			Epoch:             h.Pos.Epoch,
			DurableSeq:        h.Pos.Seq,
			Pending:           b.pending.Load(),
			Served:            b.served.Load(),
			LatencyP99Seconds: mBackendSeconds.With(b.URL).Quantile(0.99),
			Error:             h.Err,
		}
		if h.Probed {
			bs.ProbedAt = h.At.UTC().Format(time.RFC3339Nano)
		}
		if h.Healthy {
			switch h.Role {
			case "leader":
				bs.StalenessSeconds = 0
			case "follower":
				bs.StalenessSeconds = g.staleness(h.Pos.Seq)
			}
		}
		resp.Backends = append(resp.Backends, bs)
	}
	return resp
}

// StopStreams ends every proxied replication stream (they reconnect to
// wherever the operator points them next). Call it before draining the
// gateway's HTTP server: buffered query/mutation proxies finish on their
// own well within any drain timeout, but a stream long-polls for its full
// upstream lifetime and would stall the drain otherwise.
func (g *Gateway) StopStreams() {
	g.drainOnce.Do(func() { close(g.drainCh) })
}

// serveOwn answers the gateway's own endpoints.
func (g *Gateway) serveOwn(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/gateway/status" && r.Method == http.MethodGet {
		writeJSON(w, http.StatusOK, g.Status())
		return
	}
	writeError(w, http.StatusNotFound, "unknown gateway endpoint "+r.URL.Path)
}

package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obsv"
	"repro/internal/service"
)

// Request bodies are buffered so a failed read attempt can be replayed on
// a different backend. The service itself caps bodies at 64 KiB; the
// gateway's cap only has to be no tighter.
const maxRequestBody = 1 << 20

// Responses on the buffered path (queries, mutations, statuses — all
// small JSON) are read fully before anything reaches the client, so a
// backend dying mid-response is still retryable. Only the replication
// stream is exempt (forwardStream).
const maxBufferedResponse = 16 << 20

// proxied is one fully-buffered upstream response.
type proxied struct {
	status int
	header http.Header
	body   []byte
}

// forwardRead serves an idempotent read: from the result cache when an
// admissible entry exists, by joining an identical in-flight query when
// one is running, and otherwise from the staleness- and floor-eligible
// backend picked by pickRead (resolveRead), retrying exactly once on a
// different backend when the first dies mid-request. Reads carrying a
// read-your-writes floor (echoed write seq, sticky session, or explicit
// min seq) additionally travel with an X-STGQ-Min-Seq barrier and fall
// back to the leader on a barrier miss.
func (g *Gateway) forwardRead(w http.ResponseWriter, r *http.Request) {
	bound, ok := g.maxLagFor(w, r)
	if !ok {
		return
	}
	minSeq, ok := g.minSeqFor(w, r)
	if !ok {
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	if minSeq > 0 {
		g.rywReads.Add(1)
		mRYWReads.Inc()
		// The floor travels to the backend as a read barrier even when
		// the probe view says the pick is caught up: the probed position
		// is an old observation, and a follower can regress between
		// probes (snapshot re-bootstrap after divergence). The barrier is
		// what makes the guarantee a guarantee; routing only makes it
		// cheap.
		service.SetSeq(r.Header, service.MinSeqHeader, minSeq)
	}
	key := g.cacheKeyFor(r, body)
	if key == "" {
		if p, target := g.resolveRead(w, r, bound, minSeq, body); p != nil {
			relay(w, r, p, target)
		}
		return
	}
	if e := g.cache.get(key); e != nil {
		if g.cacheAdmissible(e, minSeq, bound) {
			mCacheHits.Inc()
			serveCached(w, r, e, "hit")
			return
		}
		mCacheRejects.Inc()
	}
	mCacheMisses.Inc()
	fl, leads := g.cache.join(key)
	if !leads {
		// An identical query is in flight: wait for its result, then
		// re-check admission against this reader's own floor and bound —
		// collapsing shares work, never consistency violations.
		select {
		case <-fl.done:
			if e := fl.entry; e != nil && g.cacheAdmissible(e, minSeq, bound) {
				mCacheCollapsed.Inc()
				serveCached(w, r, e, "collapsed")
				return
			}
		case <-r.Context().Done():
			writeError(w, http.StatusBadGateway, "gateway: request cancelled: "+r.Context().Err().Error())
			return
		}
		// Inadmissible for this reader (or the leader's fetch failed):
		// fetch independently, without re-entering the flight table.
		if p, target := g.resolveRead(w, r, bound, minSeq, body); p != nil {
			relay(w, r, p, target)
		}
		return
	}
	var stored *cacheEntry
	defer func() { g.cache.complete(key, fl, stored) }()
	p, target := g.resolveRead(w, r, bound, minSeq, body)
	if p == nil {
		return
	}
	if stored = cacheEntryFrom(p, target); stored != nil {
		g.cache.put(key, stored)
	}
	relay(w, r, p, target)
}

// resolveRead runs the backend half of a read — pick, proxy, one retry
// on a different backend, and the read-your-writes leader fallback on a
// barrier miss — and returns the final response plus the URL that served
// it. A nil response means an error was already written to the client.
func (g *Gateway) resolveRead(w http.ResponseWriter, r *http.Request, bound float64, minSeq uint64, body []byte) (*proxied, string) {
	start := time.Now()
	st := obsv.StagesFrom(r.Context())
	b, _ := g.pickRead(bound, minSeq, nil)
	if b == nil {
		writeError(w, http.StatusServiceUnavailable, "gateway: no healthy backend for reads")
		return nil, ""
	}
	p, err := g.doVia(r, b, body)
	if err == nil {
		noteRoute(st, start)
		return g.retryBarrierMiss(r, p, b, minSeq, body)
	}
	if r.Context().Err() != nil {
		// The client disconnected or its deadline passed: the failure
		// says nothing about the backend's health, and a retry would die
		// on the same dead context. Don't let an impatient client blind
		// the pool.
		writeError(w, http.StatusBadGateway, "gateway: request cancelled: "+err.Error())
		return nil, ""
	}
	b.markDown(err)
	mReadRetries.Inc()
	if b2, _ := g.pickRead(bound, minSeq, b); b2 != nil {
		if p2, err2 := g.doVia(r, b2, body); err2 == nil {
			noteRoute(st, start)
			return g.retryBarrierMiss(r, p2, b2, minSeq, body)
		} else if r.Context().Err() == nil {
			b2.markDown(err2)
		}
	}
	writeError(w, http.StatusBadGateway, "gateway: backend unavailable: "+err.Error())
	return nil, ""
}

// minSeqFor resolves the read-your-writes floor for one read: the
// maximum of the client-echoed X-STGQ-Write-Seq, a directly supplied
// X-STGQ-Min-Seq, and the session table's memory of the X-STGQ-Session
// session's last acknowledged write. ok=false means a header was
// malformed (a 400 was written). Both floor headers are consumed here —
// forwardRead re-issues the combined floor as one X-STGQ-Min-Seq barrier.
func (g *Gateway) minSeqFor(w http.ResponseWriter, r *http.Request) (minSeq uint64, ok bool) {
	for _, h := range []string{service.WriteSeqHeader, service.MinSeqHeader} {
		n, err := service.ParseSeq(r.Header, h)
		if err != nil {
			// A malformed floor must fail loudly: silently dropping it
			// would serve the read without the consistency the client
			// asked for.
			writeError(w, http.StatusBadRequest, err.Error())
			return 0, false
		}
		minSeq = max(minSeq, n)
	}
	if minSeq > 0 {
		mFloorSource.With("header").Inc()
	}
	r.Header.Del(service.WriteSeqHeader)
	r.Header.Del(service.MinSeqHeader)
	if g.sessions != nil {
		if sid := r.Header.Get(SessionHeader); sid != "" {
			if sessSeq := g.sessions.get(sid); sessSeq > 0 {
				mFloorSource.With("session").Inc()
				minSeq = max(minSeq, sessSeq)
			}
		}
	}
	return minSeq, true
}

// retryBarrierMiss exhausts the read-your-writes fallback chain for a
// just-proxied read: a 412 from a follower means it could not reach the
// barrier floor within its bounded wait, and the leader — the origin of
// every sequence number — is retried before the client ever sees the
// miss. Only when the leader is unknown (mid-failover) or unreachable
// does the honest 412 (with its Retry-After) remain the final response.
func (g *Gateway) retryBarrierMiss(r *http.Request, p *proxied, b *Backend, minSeq uint64, body []byte) (*proxied, string) {
	if minSeq > 0 && p.status == http.StatusPreconditionFailed {
		if target := g.leaderURL(); target != "" && target != b.URL {
			g.rywLeaderRetries.Add(1)
			mRYWLeaderRetries.Inc()
			if p2, err := g.doTarget(r, target, body); err == nil {
				return p2, target
			}
		}
	}
	return p, b.URL
}

// noteSessionWrite records an acknowledged mutation's durable sequence
// number (the leader's X-STGQ-Write-Seq response header) against the
// client's sticky session, keying every future read of that session to
// state at or past the write.
func (g *Gateway) noteSessionWrite(r *http.Request, p *proxied) {
	if g.sessions == nil || p.status < 200 || p.status >= 300 {
		return
	}
	sid := r.Header.Get(SessionHeader)
	if sid == "" {
		return
	}
	if seq, err := service.ParseSeq(p.header, service.WriteSeqHeader); err == nil && seq > 0 {
		g.sessions.note(sid, seq)
	}
}

// forwardMutation proxies a mutation to the leader. A 403 with an
// X-STGQ-Leader hint means the leader moved (the targeted backend was, or
// became, a follower): the gateway adopts the hint and re-sends once —
// safe, because a 403 rejection means the mutation was not applied.
func (g *Gateway) forwardMutation(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	target := g.leaderURL()
	if target == "" {
		g.noLeader(w)
		return
	}
	var p *proxied
	for attempt := 0; ; attempt++ {
		var err error
		p, err = g.doTarget(r, target, body)
		if err != nil {
			writeError(w, http.StatusBadGateway, "gateway: leader unavailable: "+err.Error())
			return
		}
		if attempt == 0 && p.status == http.StatusForbidden {
			hint := strings.TrimRight(p.header.Get(service.LeaderHeader), "/")
			if hint != "" && hint != target {
				g.leader.Store(hint)
				target = hint
				continue
			}
		}
		break
	}
	g.noteSessionWrite(r, p)
	noteRoute(obsv.StagesFrom(r.Context()), start)
	relay(w, r, p, target)
}

// forwardStream proxies GET /replication/stream to the leader unbuffered:
// the stream long-polls and must flush frame by frame. The upstream
// request is additionally cancelled by StopStreams so a draining gateway
// never waits out the stream's lifetime.
func (g *Gateway) forwardStream(w http.ResponseWriter, r *http.Request) {
	target := g.leaderURL()
	if target == "" {
		g.noLeader(w)
		return
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	go func() {
		select {
		case <-g.drainCh:
			cancel()
		case <-ctx.Done():
		}
	}()
	r = r.WithContext(ctx)
	req, err := outbound(r, target, nil)
	if err != nil {
		writeError(w, http.StatusBadGateway, "gateway: "+err.Error())
		return
	}
	resp, err := g.client.Do(req)
	if err != nil {
		writeError(w, http.StatusBadGateway, "gateway: leader unavailable: "+err.Error())
		return
	}
	defer resp.Body.Close()
	copyHeader(w.Header(), resp.Header)
	w.Header().Set(BackendHeader, target)
	w.WriteHeader(resp.StatusCode)
	fl, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if rerr != nil {
			return
		}
	}
}

// noLeader answers a request that needs the write endpoint while none is
// known — the leader died (the prober forgot it) or was never discovered.
// The 503 is immediate rather than a doomed dial at the dead URL, and
// Retry-After points clients past the next probe round, by when a
// failover may have produced a new leader.
func (g *Gateway) noLeader(w http.ResponseWriter) {
	retry := int(math.Ceil(g.probeEvery.Seconds()))
	if retry < 1 {
		retry = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	writeError(w, http.StatusServiceUnavailable, "gateway: no healthy leader known (dead or failing over); retry shortly")
}

// doVia proxies through a pool backend, maintaining its load counters
// and the per-backend latency histogram.
func (g *Gateway) doVia(r *http.Request, b *Backend, body []byte) (*proxied, error) {
	b.pending.Add(1)
	start := time.Now()
	defer func() {
		mBackendSeconds.With(b.URL).ObserveSince(start)
		b.pending.Add(-1)
		b.served.Add(1)
	}()
	return g.do(r, b.URL, body)
}

// doTarget proxies to an arbitrary URL, using pool counters when the
// target is a configured backend (a 403-hinted leader may not be).
func (g *Gateway) doTarget(r *http.Request, target string, body []byte) (*proxied, error) {
	if b := g.backendFor(target); b != nil {
		return g.doVia(r, b, body)
	}
	return g.do(r, target, body)
}

// noteRoute attributes the gateway's own processing so far — everything
// since the request entered minus the backend round trips already
// recorded — to the gw_route stage. Called once, just before the
// response is relayed; backend time added later (a leader retry in
// relayRead) correctly lands in gw_backend alone.
func noteRoute(st *obsv.Stages, start time.Time) {
	st.Add("gw_route", time.Since(start).Seconds()-st.Sum("gw_backend"))
}

// do issues one buffered proxy round trip, attributed to the gw_backend
// stage (accumulating across retries). Any error — dial failure or a
// death mid-response — is returned with nothing written to the client, so
// the caller may retry.
func (g *Gateway) do(r *http.Request, target string, body []byte) (*proxied, error) {
	defer obsv.StagesFrom(r.Context()).Time("gw_backend")()
	req, err := outbound(r, target, body)
	if err != nil {
		return nil, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBufferedResponse+1))
	if err != nil {
		return nil, err
	}
	if len(data) > maxBufferedResponse {
		// Relaying a truncated body under the upstream's Content-Length
		// would hang the client; no legitimate endpoint produces this.
		return nil, errors.New("gateway: response exceeds " + strconv.Itoa(maxBufferedResponse) + " bytes")
	}
	return &proxied{status: resp.StatusCode, header: resp.Header, body: data}, nil
}

// outbound builds the upstream request mirroring r.
func outbound(r *http.Request, target string, body []byte) (*http.Request, error) {
	url := target + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, rd)
	if err != nil {
		return nil, err
	}
	copyHeader(req.Header, r.Header)
	req.Header.Del(MaxLagHeader) // consumed by the gateway, not the backend
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil && host != "" {
		if prior := r.Header.Get("X-Forwarded-For"); prior != "" {
			host = prior + ", " + host
		}
		req.Header.Set("X-Forwarded-For", host)
	}
	return req, nil
}

// relay writes a buffered upstream response to the client. The gateway's
// own stage collector (gw_route, gw_backend) is appended as an additional
// X-STGQ-Server-Timing value alongside the backend's copied one; clients
// parse both values into one per-stage breakdown.
func relay(w http.ResponseWriter, r *http.Request, p *proxied, backendURL string) {
	if p.header.Get(service.RequestIDHeader) != "" {
		// The backend echoed the request id the gateway already stamped
		// on the response; keep the upstream copy, not both.
		w.Header().Del(service.RequestIDHeader)
	}
	copyHeader(w.Header(), p.header)
	if hv := obsv.StagesFrom(r.Context()).HeaderValue(); hv != "" {
		w.Header().Add(obsv.ServerTimingHeader, hv)
	}
	w.Header().Set(BackendHeader, backendURL)
	w.WriteHeader(p.status)
	_, _ = w.Write(p.body)
}

// hopByHop lists the headers that describe one connection, not the
// message; a proxy must not forward them.
var hopByHop = map[string]bool{
	"Connection":          true,
	"Proxy-Connection":    true,
	"Keep-Alive":          true,
	"Proxy-Authenticate":  true,
	"Proxy-Authorization": true,
	"Te":                  true,
	"Trailer":             true,
	"Transfer-Encoding":   true,
	"Upgrade":             true,
}

func copyHeader(dst, src http.Header) {
	dropped := map[string]bool{}
	for _, name := range src.Values("Connection") {
		for _, h := range strings.Split(name, ",") {
			if h = strings.TrimSpace(h); h != "" {
				dropped[http.CanonicalHeaderKey(h)] = true
			}
		}
	}
	for k, vv := range src {
		if hopByHop[k] || dropped[k] {
			continue
		}
		for _, v := range vv {
			dst.Add(k, v)
		}
	}
}

// readBody buffers the request body for replay. ok=false means an error
// response was already written.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Body == nil {
		return nil, true
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBody+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "gateway: reading request body: "+err.Error())
		return nil, false
	}
	if len(data) > maxRequestBody {
		writeError(w, http.StatusRequestEntityTooLarge, "gateway: request body too large")
		return nil, false
	}
	return data, true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{Error: msg})
}

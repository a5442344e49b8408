package gateway_test

// End-to-end tests for the gateway result cache: the consistency
// guarantees of docs/consistency.md must hold with caching in the
// serving path — a cached answer is indistinguishable from a live one
// except for being faster (and marked X-STGQ-Cache).

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/journal"
	"repro/internal/service"
)

// stampedBackend is a fake durable backend whose query endpoint stamps
// the applied-seq/epoch response headers like a real stgqd, with a
// mutable position and a query-hit counter.
type stampedBackend struct {
	ts      *httptest.Server
	role    string
	epoch   atomic.Uint64
	seq     atomic.Uint64
	queries atomic.Int64
	block   chan struct{} // non-nil: query handler waits on it
	started chan struct{} // receives one token per query that began
}

func newStampedBackend(t *testing.T, role string, epoch, seq uint64) *stampedBackend {
	t.Helper()
	b := &stampedBackend{role: role}
	b.epoch.Store(epoch)
	b.seq.Store(seq)
	b.ts = fakeBackendDyn(t,
		func() service.StatusResponse {
			return service.StatusResponse{
				Role:       b.role,
				Healthy:    true,
				Epoch:      b.epoch.Load(),
				DurableSeq: b.seq.Load(),
			}
		},
		func(w http.ResponseWriter, r *http.Request) {
			b.queries.Add(1)
			if b.started != nil {
				b.started <- struct{}{}
			}
			if b.block != nil {
				<-b.block
			}
			service.StampPos(w.Header(), journal.Pos{Epoch: b.epoch.Load(), Seq: b.seq.Load()})
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			w.Write([]byte(`{"members":[],"totalDistance":0}`)) //nolint:errcheck
		})
	return b
}

func startCacheGateway(t *testing.T, cfg gateway.Config) (*gateway.Gateway, *httptest.Server) {
	t.Helper()
	gw, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gw.ProbeOnce(context.Background())
	gts := httptest.NewServer(gw)
	t.Cleanup(gts.Close)
	return gw, gts
}

var cacheQueryBody = map[string]any{"initiator": 1, "p": 2, "s": 1, "k": 1}

// TestGatewayCacheHitServesRepeatQuery: the happy path — an identical
// repeat query within the TTL is served from the cache (one backend
// round trip total), marked with X-STGQ-Cache: hit, and semantically
// equivalent field-order variants of the body coalesce onto the same
// entry.
func TestGatewayCacheHitServesRepeatQuery(t *testing.T) {
	leader := newStampedBackend(t, "leader", 1, 5)
	_, gts := startCacheGateway(t, gateway.Config{Backends: []string{leader.ts.URL}})

	resp, _ := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/group", cacheQueryBody, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first query: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(gateway.CacheHeader); got != "" {
		t.Fatalf("first query marked %q, want a miss", got)
	}
	// Same query, different field order: must hit the same entry.
	reordered := map[string]any{"k": 1, "s": 1, "p": 2, "initiator": 1}
	resp, body := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/group", reordered, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat query: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(gateway.CacheHeader); got != "hit" {
		t.Fatalf("repeat query marked %q, want \"hit\"", got)
	}
	if got := resp.Header.Get(gateway.BackendHeader); got != leader.ts.URL {
		t.Fatalf("cached response attributed to %q, want original backend %q", got, leader.ts.URL)
	}
	if n := leader.queries.Load(); n != 1 {
		t.Fatalf("backend served %d queries, want 1", n)
	}
	// A different query must not hit.
	other := map[string]any{"initiator": 2, "p": 2, "s": 1, "k": 1}
	resp, _ = doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/group", other, nil)
	if got := resp.Header.Get(gateway.CacheHeader); got != "" {
		t.Fatalf("distinct query marked %q, want a miss", got)
	}
	if n := leader.queries.Load(); n != 2 {
		t.Fatalf("backend served %d queries, want 2", n)
	}
}

// TestGatewayCacheNeverServesBelowFloor: G4 — a read presenting a
// read-your-writes floor past the cached entry's stamp must bypass the
// cache and reach a backend, even though the identical query was just
// answered.
func TestGatewayCacheNeverServesBelowFloor(t *testing.T) {
	leader := newStampedBackend(t, "leader", 1, 5)
	_, gts := startCacheGateway(t, gateway.Config{Backends: []string{leader.ts.URL}})

	doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/group", cacheQueryBody, nil)
	if n := leader.queries.Load(); n != 1 {
		t.Fatalf("backend served %d queries, want 1", n)
	}

	// Floor at the entry's stamp: admissible, served from cache.
	resp, _ := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/group", cacheQueryBody,
		map[string]string{service.WriteSeqHeader: "5"})
	if got := resp.Header.Get(gateway.CacheHeader); got != "hit" {
		t.Fatalf("floor==stamp read marked %q, want \"hit\"", got)
	}

	// Floor past the stamp: the entry is too old for this reader; the
	// read must go to a backend (which has meanwhile advanced).
	leader.seq.Store(6)
	resp, _ = doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/group", cacheQueryBody,
		map[string]string{service.WriteSeqHeader: "6"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("floored query: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(gateway.CacheHeader); got != "" {
		t.Fatalf("floor-past-stamp read marked %q, want a live read", got)
	}
	if n := leader.queries.Load(); n != 2 {
		t.Fatalf("backend served %d queries, want 2 (floored read must not be cached short)", n)
	}

	// The live read refreshed the entry at seq 6: the same floor now
	// hits.
	resp, _ = doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/group", cacheQueryBody,
		map[string]string{service.WriteSeqHeader: "6"})
	if got := resp.Header.Get(gateway.CacheHeader); got != "hit" {
		t.Fatalf("refreshed-entry floored read marked %q, want \"hit\"", got)
	}
}

// TestGatewayCacheFencedEntryNeverServedAfterFailover: G5 — entries
// cached from the old epoch must stop being served the moment the
// gateway observes a higher epoch, even for floorless readers.
func TestGatewayCacheFencedEntryNeverServedAfterFailover(t *testing.T) {
	backend := newStampedBackend(t, "leader", 1, 50)
	gw, gts := startCacheGateway(t, gateway.Config{Backends: []string{backend.ts.URL}})

	doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/group", cacheQueryBody, nil)
	resp, _ := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/group", cacheQueryBody, nil)
	if got := resp.Header.Get(gateway.CacheHeader); got != "hit" {
		t.Fatalf("pre-failover repeat marked %q, want \"hit\"", got)
	}

	// The backend is promoted into a new epoch (its orphaned history
	// truncated to seq 3). A probe raises the gateway's fencing floor;
	// the epoch-1 entry — stamped seq 50 on the dead timeline — must
	// never serve again.
	backend.epoch.Store(2)
	backend.seq.Store(3)
	gw.ProbeOnce(context.Background())

	resp, _ = doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/group", cacheQueryBody, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-failover query: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(gateway.CacheHeader); got != "" {
		t.Fatalf("fenced entry served post-failover (marked %q)", got)
	}
	if n := backend.queries.Load(); n != 2 {
		t.Fatalf("backend served %d queries, want 2 (post-failover read must be live)", n)
	}
}

// TestGatewayCacheSingleFlightCollapses: N identical concurrent queries
// produce exactly one upstream fetch; the waiters are released with the
// leader's response, marked "collapsed". Run under -race this also
// proves the flight table is race-clean.
func TestGatewayCacheSingleFlightCollapses(t *testing.T) {
	leader := newStampedBackend(t, "leader", 1, 5)
	leader.block = make(chan struct{})
	leader.started = make(chan struct{}, 16)
	_, gts := startCacheGateway(t, gateway.Config{Backends: []string{leader.ts.URL}})

	const n = 8
	var wg sync.WaitGroup
	var hits, collapsed, live atomic.Int64
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, _ := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/group", cacheQueryBody, nil)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
				return
			}
			switch resp.Header.Get(gateway.CacheHeader) {
			case "hit":
				hits.Add(1)
			case "collapsed":
				collapsed.Add(1)
			default:
				live.Add(1)
			}
		}()
	}
	close(start)
	// Wait for the flight leader to reach the backend, give the other
	// seven time to pile onto the flight, then release.
	<-leader.started
	time.Sleep(50 * time.Millisecond)
	close(leader.block)
	wg.Wait()

	if got := leader.queries.Load(); got != 1 {
		t.Fatalf("backend served %d fetches for %d identical concurrent queries, want 1", got, n)
	}
	if live.Load() != 1 || collapsed.Load()+hits.Load() != n-1 {
		t.Fatalf("live=%d collapsed=%d hits=%d, want exactly 1 live and %d shared",
			live.Load(), collapsed.Load(), hits.Load(), n-1)
	}
}

// TestGatewayCacheDisabled: a negative CacheSize switches the whole
// layer off — no hit marking, no collapsing, every read a live fetch.
func TestGatewayCacheDisabled(t *testing.T) {
	leader := newStampedBackend(t, "leader", 1, 5)
	_, gts := startCacheGateway(t, gateway.Config{Backends: []string{leader.ts.URL}, CacheSize: -1})

	for i := 0; i < 3; i++ {
		resp, _ := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/group", cacheQueryBody, nil)
		if got := resp.Header.Get(gateway.CacheHeader); got != "" {
			t.Fatalf("query %d marked %q with the cache disabled", i, got)
		}
	}
	if n := leader.queries.Load(); n != 3 {
		t.Fatalf("backend served %d queries, want 3", n)
	}
}

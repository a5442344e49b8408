package gateway_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	stgq "repro"
	"repro/internal/gateway"
	"repro/internal/journal"
	"repro/internal/obsv"
	"repro/internal/replica"
	"repro/internal/service"
)

// --- cluster harness -------------------------------------------------------

type leaderHarness struct {
	st *journal.Store
	ts *httptest.Server
}

func startLeader(t *testing.T, dir string) *leaderHarness {
	t.Helper()
	st, err := journal.Open(dir, journal.Options{HorizonSlots: 14})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.NewWithStore(st))
	t.Cleanup(func() {
		// Store first: closing it ends in-flight replication long-polls,
		// which ts.Close would otherwise wait out.
		st.Close()
		ts.Close()
	})
	return &leaderHarness{st: st, ts: ts}
}

type followerHarness struct {
	fo   *replica.Follower
	ts   *httptest.Server
	stop func()
}

// startFollower launches a follower service. With run=false the
// replication loop never starts: the follower stays at its recovered
// position forever — the deterministic stand-in for "lagging beyond any
// bound".
func startFollower(t *testing.T, leaderURL string, run bool) *followerHarness {
	t.Helper()
	fo, err := replica.NewFollower(replica.Config{
		LeaderURL:  leaderURL,
		Dir:        t.TempDir(),
		MinBackoff: 5 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.NewFollower(fo, leaderURL))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	if run {
		go func() {
			fo.Run(ctx)
			close(done)
		}()
	} else {
		close(done)
	}
	stopped := false
	h := &followerHarness{fo: fo, ts: ts}
	h.stop = func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		<-done
		ts.Close()
		fo.Close()
	}
	t.Cleanup(h.stop)
	return h
}

func waitCaughtUp(t *testing.T, fo *replica.Follower, leader *journal.Store) {
	t.Helper()
	target := leader.LastSeq()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if fo.Status().AppliedSeq >= target {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("follower stuck at seq %d, leader at %d", fo.Status().AppliedSeq, target)
}

func buildPopulation(t testing.TB, pl *stgq.Planner, n int) {
	t.Helper()
	ids := make([]stgq.PersonID, 0, n)
	for i := 0; i < n; i++ {
		id, err := pl.AddPerson(fmt.Sprintf("p%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		for j := i - 3; j < i; j++ {
			if j < 0 {
				continue
			}
			if err := pl.Connect(ids[j], id, float64(1+(i+j)%7)); err != nil {
				t.Fatal(err)
			}
		}
		if err := pl.SetAvailable(id, (i%3)*2, 10+(i%4)); err != nil {
			t.Fatal(err)
		}
	}
}

// startGateway builds a gateway over the URLs, starts its prober and
// waits until it has discovered a leader and probed every backend.
func startGateway(t *testing.T, cfg gateway.Config) (*gateway.Gateway, *httptest.Server) {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 20 * time.Millisecond
	}
	gw, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		gw.Run(ctx)
		close(done)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	ts := httptest.NewServer(gw)
	t.Cleanup(ts.Close)

	deadline := time.Now().Add(15 * time.Second)
	for {
		st := gw.Status()
		probed := 0
		for _, b := range st.Backends {
			if b.ProbedAt != "" {
				probed++
			}
		}
		if st.Leader != "" && probed == len(st.Backends) {
			return gw, ts
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway never found the cluster: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// doJSON issues one request through ts and returns status, headers, body.
func doJSON(t testing.TB, client *http.Client, method, url string, body any, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

var queryBody = map[string]any{"initiator": 10, "p": 4, "s": 2, "k": 1, "m": 3}

// --- the acceptance scenario ----------------------------------------------

// TestGatewayEndToEnd is the gateway's acceptance test: a leader, a
// healthy follower and a hopelessly lagging follower behind one gateway.
// Queries go only to the healthy follower, and identical repeats are
// answered from the result cache; mutations through the gateway land on
// the leader and replicate; query and mutation together carry every
// X-STGQ-Server-Timing stage to the client; killing the healthy follower
// mid-run degrades reads to the leader with zero failed client requests.
func TestGatewayEndToEnd(t *testing.T) {
	leader := startLeader(t, t.TempDir())
	buildPopulation(t, leader.st.Planner(), 30)

	healthy := startFollower(t, leader.ts.URL, true)
	lagging := startFollower(t, leader.ts.URL, false) // never replicates: stuck at seq 0
	waitCaughtUp(t, healthy.fo, leader.st)

	const maxLag = 250 * time.Millisecond
	gw, gts := startGateway(t, gateway.Config{
		Backends: []string{leader.ts.URL, healthy.ts.URL, lagging.ts.URL},
		MaxLag:   maxLag,
	})

	// Let the lagging follower's estimated staleness clear the bound: it
	// has been behind the first observed leader watermark since the
	// gateway started, so after maxLag of wall time it must be excluded.
	time.Sleep(maxLag + 100*time.Millisecond)

	// Every stage documented under "Per-stage timing" in
	// docs/operations.md must reach the client through the gateway, on the
	// first (uncached) query or on the durable mutation of step 2, and the
	// gateway's own share can never exceed the latency the client saw.
	stages := map[string]bool{}
	timed := func(what, path string, body any) (*http.Response, []byte) {
		t.Helper()
		start := time.Now()
		resp, data := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+path, body, nil)
		elapsed := time.Since(start).Seconds()
		got := obsv.ParseServerTiming(resp.Header.Values(obsv.ServerTimingHeader))
		for name := range got {
			stages[name] = true
		}
		if gwShare := got["gw_route"] + got["gw_backend"]; gwShare > elapsed {
			t.Fatalf("%s: gw_route+gw_backend = %.6fs exceeds the client-measured %.6fs", what, gwShare, elapsed)
		}
		return resp, data
	}

	// 1. Queries route only to the healthy follower. The first computes
	// there; its identical repeats are result-cache hits, still attributed
	// to the follower, that reach no engine.
	engineQueries := func() float64 {
		return scrapeMetric(t, healthy.ts.URL, `stgq_engine_queries_total{kind="stg"}`)
	}
	var computed float64
	for i := 0; i < 10; i++ {
		resp, body := timed(fmt.Sprintf("query %d", i), "/query/activity", queryBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get(gateway.BackendHeader); got != healthy.ts.URL {
			t.Fatalf("query %d served by %s, want healthy follower %s", i, got, healthy.ts.URL)
		}
		cache := resp.Header.Get(gateway.CacheHeader)
		switch {
		case i == 0 && cache != "":
			t.Fatalf("first query marked %q, want a miss", cache)
		case i == 0:
			computed = engineQueries()
		case cache != "hit":
			t.Fatalf("repeat query %d marked %q, want \"hit\"", i, cache)
		}
	}
	if n := engineQueries(); n != computed {
		t.Fatalf("engines ran %v queries for cache hits, want 0", n-computed)
	}
	for _, b := range gw.Status().Backends {
		if b.URL == lagging.ts.URL && b.Served != 0 {
			t.Fatalf("lagging follower served %d requests despite being over the bound", b.Served)
		}
	}

	// 2. Mutations through the gateway land on the leader and replicate.
	wantPeople, _ := leader.st.Planner().Counts()
	resp, body := timed("mutation", "/people", map[string]any{"name": "eve"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutation via gateway: status %d: %s", resp.StatusCode, body)
	}
	for _, stage := range []string{
		"gw_route", "gw_backend", "svc_decode", "svc_engine", "svc_encode",
		"journal_enqueue", "journal_fsync", "journal_ack",
	} {
		if !stages[stage] {
			t.Errorf("stage %s never reached the client", stage)
		}
	}
	if got := resp.Header.Get(gateway.BackendHeader); got != leader.ts.URL {
		t.Fatalf("mutation served by %s, want leader %s", got, leader.ts.URL)
	}
	if gotPeople, _ := leader.st.Planner().Counts(); gotPeople != wantPeople+1 {
		t.Fatalf("leader has %d people after gateway mutation, want %d", gotPeople, wantPeople+1)
	}
	resp, body = doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/policies", map[string]any{"person": 5, "policy": "none"}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("policy via gateway: status %d: %s", resp.StatusCode, body)
	}
	waitCaughtUp(t, healthy.fo, leader.st)
	if got := healthy.fo.Planner().SchedulePolicy(5); got != stgq.ShareNone {
		t.Fatalf("policy did not replicate through gateway+leader: %v", got)
	}

	// 3. Kill the healthy follower mid-run: every in-flight and
	// subsequent query must still succeed (retried once, degrading to
	// the leader), with zero failed client requests. Each iteration
	// queries a different initiator so every request truly routes (an
	// identical query could legitimately be served from the result
	// cache, stamped with the dead follower's URL).
	sawLeader := false
	for i := 0; i < 20; i++ {
		if i == 5 {
			healthy.stop()
		}
		body20 := map[string]any{"initiator": 6 + i, "p": 4, "s": 2, "k": 1, "m": 3}
		resp, body := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/activity", body20, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d after follower kill: status %d: %s", i, resp.StatusCode, body)
		}
		if resp.Header.Get(gateway.BackendHeader) == leader.ts.URL {
			sawLeader = true
		}
	}
	if !sawLeader {
		t.Fatal("reads never degraded to the leader after the healthy follower died")
	}

	// The per-request staleness knob still works against the leader:
	// demanding zero staleness is satisfiable (leader fallback), and a
	// malformed bound is rejected before any backend sees it. The query is
	// one no earlier step issued: within a probe round of step 2's writes
	// the staleness clock has not advanced, so a repeat of an earlier
	// query would be a legitimate cache hit attributed to the dead
	// follower.
	fresh := map[string]any{"initiator": 26, "p": 4, "s": 2, "k": 1, "m": 3}
	resp, body = doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/activity", fresh,
		map[string]string{gateway.MaxLagHeader: "0"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("zero-staleness query: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(gateway.CacheHeader); got != "" {
		t.Fatalf("zero-staleness query marked %q, want a live read", got)
	}
	if got := resp.Header.Get(gateway.BackendHeader); got != leader.ts.URL {
		t.Fatalf("zero-staleness query served by %s, want leader", got)
	}
	for _, bad := range []string{"banana", "-1", "NaN"} {
		resp, _ = doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/activity", queryBody,
			map[string]string{gateway.MaxLagHeader: bad})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("lag bound %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestGatewayStreamProxy replicates a follower through the gateway's
// /replication/stream proxy instead of a direct leader connection —
// the chained-topology building block.
func TestGatewayStreamProxy(t *testing.T) {
	leader := startLeader(t, t.TempDir())
	buildPopulation(t, leader.st.Planner(), 15)
	_, gts := startGateway(t, gateway.Config{Backends: []string{leader.ts.URL}})

	f := startFollower(t, gts.URL, true)
	waitCaughtUp(t, f.fo, leader.st)
	p1, f1 := leader.st.Planner().Counts()
	p2, f2 := f.fo.Planner().Counts()
	if p1 != p2 || f1 != f2 {
		t.Fatalf("follower via gateway diverged: %d/%d vs %d/%d", p2, f2, p1, f1)
	}
}

// --- unit tests over fake backends ----------------------------------------

// fakeBackend is a scripted /status + handler pair.
func fakeBackend(t *testing.T, status service.StatusResponse, handler http.HandlerFunc) *httptest.Server {
	t.Helper()
	return fakeBackendDyn(t, func() service.StatusResponse { return status }, handler)
}

// fakeBackendDyn is fakeBackend with a per-probe status callback.
func fakeBackendDyn(t *testing.T, status func() service.StatusResponse, handler http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(status()) //nolint:errcheck
	})
	if handler != nil {
		mux.HandleFunc("/", handler)
	}
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestGatewayFollowsLeaderHint covers the leader-moved path: the pool's
// self-proclaimed leader rejects the mutation with 403 + X-STGQ-Leader,
// and the gateway transparently re-sends to the hinted URL — which is not
// even in the configured pool — and adopts it.
func TestGatewayFollowsLeaderHint(t *testing.T) {
	var gotMutation bool
	realLeader := fakeBackend(t,
		service.StatusResponse{Role: "leader", Healthy: true, DurableSeq: 9},
		func(w http.ResponseWriter, r *http.Request) {
			gotMutation = true
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, `{"id":7}`)
		})
	exLeader := fakeBackend(t,
		service.StatusResponse{Role: "leader", Healthy: true, DurableSeq: 5},
		func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-STGQ-Leader", realLeader.URL)
			w.WriteHeader(http.StatusForbidden)
			fmt.Fprint(w, `{"error":"read-only follower","leader":"`+realLeader.URL+`"}`)
		})

	gw, err := gateway.New(gateway.Config{Backends: []string{exLeader.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gw.ProbeOnce(context.Background())
	gts := httptest.NewServer(gw)
	defer gts.Close()

	resp, body := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/people", map[string]any{"name": "eve"}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutation after redirect: status %d: %s", resp.StatusCode, body)
	}
	if !gotMutation {
		t.Fatal("hinted leader never saw the mutation")
	}
	if got := resp.Header.Get(gateway.BackendHeader); got != realLeader.URL {
		t.Fatalf("served by %s, want hinted leader %s", got, realLeader.URL)
	}
	if got := gw.Status().Leader; got != realLeader.URL {
		t.Fatalf("gateway did not adopt the hinted leader: %s", got)
	}
}

// TestGatewaySkipsUnhealthyFollower pins the satellite contract: a
// follower whose /status says healthy=false (snapshot re-bootstrap in
// progress) receives no reads even when it is the only follower.
func TestGatewaySkipsUnhealthyFollower(t *testing.T) {
	leader := fakeBackend(t,
		service.StatusResponse{Role: "leader", Healthy: true, DurableSeq: 3},
		func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, `{"from":"leader"}`)
		})
	var followerHits int
	bootstrapping := fakeBackend(t,
		service.StatusResponse{Role: "follower", Healthy: false, DurableSeq: 3},
		func(w http.ResponseWriter, r *http.Request) {
			followerHits++
			w.WriteHeader(http.StatusOK)
		})

	gw, err := gateway.New(gateway.Config{Backends: []string{leader.URL, bootstrapping.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gw.ProbeOnce(context.Background())
	gts := httptest.NewServer(gw)
	defer gts.Close()

	for i := 0; i < 5; i++ {
		resp, body := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/group",
			map[string]any{"initiator": 0, "p": 2, "s": 1, "k": 1}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query: status %d: %s", resp.StatusCode, body)
		}
		if got := resp.Header.Get(gateway.BackendHeader); got != leader.URL {
			t.Fatalf("query served by %s, want leader fallback", got)
		}
	}
	if followerHits != 0 {
		t.Fatalf("bootstrapping follower served %d requests", followerHits)
	}
}

// TestGatewayBoundedReadNeverFallsBelowBound: when an explicit staleness
// bound is unsatisfiable — the only follower is over the bound and the
// leader is down — the gateway answers 503 instead of silently serving
// stale data; the same read without a bound is served degraded.
func TestGatewayBoundedReadNeverFallsBelowBound(t *testing.T) {
	leader := fakeBackend(t,
		service.StatusResponse{Role: "leader", Healthy: true, DurableSeq: 9}, nil)
	stale := fakeBackend(t,
		service.StatusResponse{Role: "follower", Healthy: true, DurableSeq: 1},
		func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, `{"from":"stale follower"}`)
		})

	gw, err := gateway.New(gateway.Config{Backends: []string{leader.URL, stale.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gw.ProbeOnce(context.Background()) // records the seq-9 watermark
	leader.Close()                     // leader gone
	gw.ProbeOnce(context.Background()) // prober notices
	gts := httptest.NewServer(gw)
	defer gts.Close()
	time.Sleep(20 * time.Millisecond) // the follower is now measurably stale

	resp, body := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/group",
		map[string]any{"initiator": 0, "p": 2, "s": 1, "k": 1},
		map[string]string{gateway.MaxLagHeader: "0.001"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unsatisfiable bound: status %d (%s), want 503", resp.StatusCode, body)
	}
	resp, body = doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/group",
		map[string]any{"initiator": 0, "p": 2, "s": 1, "k": 1}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unbounded degraded read: status %d (%s), want 200", resp.StatusCode, body)
	}
	if got := resp.Header.Get(gateway.BackendHeader); got != stale.URL {
		t.Fatalf("unbounded read served by %s, want the stale follower", got)
	}
}

// TestGatewayLeastPending checks the load signal: with two equally fresh
// followers, a slow in-flight request on one steers the next request to
// the other.
func TestGatewayLeastPending(t *testing.T) {
	release := make(chan struct{})
	slowStarted := make(chan struct{}, 1)
	slow := fakeBackend(t,
		service.StatusResponse{Role: "follower", Healthy: true, DurableSeq: 3},
		func(w http.ResponseWriter, r *http.Request) {
			slowStarted <- struct{}{}
			<-release
			w.WriteHeader(http.StatusOK)
		})
	var fastHits int
	fast := fakeBackend(t,
		service.StatusResponse{Role: "follower", Healthy: true, DurableSeq: 3},
		func(w http.ResponseWriter, r *http.Request) {
			fastHits++
			w.WriteHeader(http.StatusOK)
		})
	leader := fakeBackend(t, service.StatusResponse{Role: "leader", Healthy: true, DurableSeq: 3}, nil)

	gw, err := gateway.New(gateway.Config{Backends: []string{leader.URL, slow.URL, fast.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gw.ProbeOnce(context.Background())
	gts := httptest.NewServer(gw)
	defer gts.Close()

	// Occupy one follower, then drive more reads: all of them must land
	// on the idle one. (Which follower gets the first request is
	// selection-order dependent; pin it by sending until slow is busy.)
	// Every request uses a distinct initiator: identical in-flight
	// queries would be collapsed onto the occupied follower's fetch by
	// the result cache instead of routing.
	bg := make(chan error, 1)
	go func() {
		resp, err := http.Post(gts.URL+"/query/group", "application/json",
			bytes.NewReader([]byte(`{"initiator":9,"p":2,"s":1,"k":1}`)))
		if err == nil {
			resp.Body.Close()
		}
		bg <- err
	}()
	select {
	case <-slowStarted:
	case <-time.After(10 * time.Second):
		// The background request landed on fast instead; force the
		// pending imbalance the other way round and continue.
	}
	before := fastHits
	for i := 0; i < 4; i++ {
		resp, body := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/group",
			map[string]any{"initiator": i, "p": 2, "s": 1, "k": 1}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query: status %d: %s", resp.StatusCode, body)
		}
	}
	close(release)
	if err := <-bg; err != nil {
		t.Fatalf("background request failed: %v", err)
	}
	if fastHits-before < 4 {
		t.Fatalf("idle follower served %d of 4 requests while the other was busy", fastHits-before)
	}
}

// TestGatewayClientCancelDoesNotPoisonPool: a read that fails because the
// CLIENT gave up (disconnect or deadline) says nothing about backend
// health — the gateway must not mark backends down for it, or one
// impatient client could blind the whole pool until the next probe.
func TestGatewayClientCancelDoesNotPoisonPool(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	slow := fakeBackend(t,
		service.StatusResponse{Role: "follower", Healthy: true, DurableSeq: 3},
		func(w http.ResponseWriter, r *http.Request) {
			select { // a long NP-hard query, as far as the client knows
			case <-release:
			case <-r.Context().Done():
			}
			w.WriteHeader(http.StatusOK)
		})
	leader := fakeBackend(t, service.StatusResponse{Role: "leader", Healthy: true, DurableSeq: 3}, nil)

	gw, err := gateway.New(gateway.Config{Backends: []string{leader.URL, slow.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gw.ProbeOnce(context.Background())
	gts := httptest.NewServer(gw)
	defer gts.Close()

	impatient := &http.Client{Timeout: 50 * time.Millisecond}
	resp, err := impatient.Post(gts.URL+"/query/group", "application/json",
		bytes.NewReader([]byte(`{"initiator":0,"p":2,"s":1,"k":1}`)))
	if err == nil {
		resp.Body.Close()
		t.Fatal("impatient client unexpectedly got an answer")
	}
	for _, b := range gw.Status().Backends {
		if !b.Healthy {
			t.Fatalf("client cancellation marked %s down: %+v", b.URL, b)
		}
	}
}

// TestGatewayStalenessClockSurvivesLeaderRegression: after a failover to
// a promoted follower that had NOT applied the old leader's tail, the
// watermark clock must reset to the new history — otherwise every
// follower's staleness estimate grows forever and bounded reads are
// permanently pinned off the followers.
func TestGatewayStalenessClockSurvivesLeaderRegression(t *testing.T) {
	promoted := false
	newLeader := fakeBackendDyn(t, func() service.StatusResponse {
		if promoted {
			return service.StatusResponse{Role: "leader", Healthy: true, DurableSeq: 4}
		}
		return service.StatusResponse{Role: "follower", Healthy: true, DurableSeq: 4}
	}, nil)
	follower := fakeBackend(t,
		service.StatusResponse{Role: "follower", Healthy: true, DurableSeq: 4},
		func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, `{}`)
		})
	oldLeader := fakeBackend(t, service.StatusResponse{Role: "leader", Healthy: true, DurableSeq: 9}, nil)

	gw, err := gateway.New(gateway.Config{Backends: []string{oldLeader.URL, newLeader.URL, follower.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gw.ProbeOnce(context.Background()) // watermark at seq 9
	time.Sleep(20 * time.Millisecond)  // followers at seq 4 age against it

	// Failover: the seq-9 leader dies un-replicated; a seq-4 follower is
	// promoted. The seq-9 watermark describes history that no longer
	// exists.
	oldLeader.Close()
	promoted = true
	gw.ProbeOnce(context.Background())
	gts := httptest.NewServer(gw)
	defer gts.Close()

	resp, body := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/group",
		map[string]any{"initiator": 0, "p": 2, "s": 1, "k": 1},
		map[string]string{gateway.MaxLagHeader: "0"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bounded read after failover: status %d (%s)", resp.StatusCode, body)
	}
	if got := resp.Header.Get(gateway.BackendHeader); got != follower.URL {
		t.Fatalf("bounded read served by %s, want the caught-up follower %s (staleness clock not reset)",
			got, follower.URL)
	}
}

// --- benchmark -------------------------------------------------------------

// BenchmarkGatewayProxyOverhead measures the gateway's per-request cost on
// the read path against hitting the backend directly. CI runs it for one
// iteration (make bench-smoke) so a regression that breaks the proxy path
// fails the build.
func BenchmarkGatewayProxyOverhead(b *testing.B) {
	reply := []byte(`{"members":[{"id":0,"distance":0}],"totalDistance":0}`)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(service.StatusResponse{Role: "leader", Healthy: true, DurableSeq: 1}) //nolint:errcheck
	})
	mux.HandleFunc("POST /query/group", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		w.Header().Set("Content-Type", "application/json")
		w.Write(reply) //nolint:errcheck
	})
	backend := httptest.NewServer(mux)
	defer backend.Close()

	gw, err := gateway.New(gateway.Config{Backends: []string{backend.URL}})
	if err != nil {
		b.Fatal(err)
	}
	gw.ProbeOnce(context.Background())
	gts := httptest.NewServer(gw)
	defer gts.Close()

	body := []byte(`{"initiator":0,"p":2,"s":1,"k":1}`)
	run := func(b *testing.B, url string) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			resp, err := http.Post(url+"/query/group", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
	}
	b.Run("direct", func(b *testing.B) { run(b, backend.URL) })
	b.Run("proxied", func(b *testing.B) { run(b, gts.URL) })
}

// TestGatewayClearsDeadLeader is the dead-leader routing regression test:
// once the adopted leader has been unhealthy for a full probe round (and
// no replacement claims leadership), the gateway must forget it and fail
// mutations fast with 503 + Retry-After — not keep dialing the dead URL
// until the connection error surfaces as a 502.
func TestGatewayClearsDeadLeader(t *testing.T) {
	leader := fakeBackend(t,
		service.StatusResponse{Role: "leader", Healthy: true, DurableSeq: 5, Epoch: 1}, nil)
	follower := fakeBackend(t,
		service.StatusResponse{Role: "follower", Healthy: true, DurableSeq: 5, Epoch: 1},
		func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, `{}`)
		})

	gw, err := gateway.New(gateway.Config{Backends: []string{leader.URL, follower.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gw.ProbeOnce(context.Background())
	if gw.Status().Leader != leader.URL {
		t.Fatalf("gateway never adopted the leader: %+v", gw.Status())
	}
	gts := httptest.NewServer(gw)
	defer gts.Close()

	leader.Close()                     // leader dies
	gw.ProbeOnce(context.Background()) // one full round observes it unhealthy

	if got := gw.Status().Leader; got != "" {
		t.Fatalf("dead leader still adopted after a full probe round: %q", got)
	}
	start := time.Now()
	resp, body := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/people",
		map[string]any{"name": "eve"}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mutation against a dead leader: status %d (%s), want fast 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 carries no Retry-After hint")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("dead-leader 503 took %v, want a fast failure", elapsed)
	}
	// Reads keep working off the follower throughout.
	resp, body = doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/group",
		map[string]any{"initiator": 0, "p": 2, "s": 1, "k": 1}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read during leader outage: status %d (%s)", resp.StatusCode, body)
	}
}

// TestGatewayPrefersHigherEpochLeader pins the split-brain fix: with two
// leader claimants, the higher epoch must win even when the lower-epoch
// claimant (a revived dead leader) has the longer — orphaned — history.
// The old comparison by bare durableSeq would adopt the wrong one.
func TestGatewayPrefersHigherEpochLeader(t *testing.T) {
	revived := fakeBackend(t,
		service.StatusResponse{Role: "leader", Healthy: true, DurableSeq: 100, Epoch: 1}, nil)
	promoted := fakeBackend(t,
		service.StatusResponse{Role: "leader", Healthy: true, DurableSeq: 50, Epoch: 2},
		func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, `{"id":1}`)
		})

	gw, err := gateway.New(gateway.Config{Backends: []string{revived.URL, promoted.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gw.ProbeOnce(context.Background())
	if got := gw.Status().Leader; got != promoted.URL {
		t.Fatalf("adopted %q, want the epoch-2 leader %q (split brain)", got, promoted.URL)
	}
	gts := httptest.NewServer(gw)
	defer gts.Close()
	resp, _ := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/people",
		map[string]any{"name": "eve"}, nil)
	if got := resp.Header.Get(gateway.BackendHeader); got != promoted.URL {
		t.Fatalf("mutation went to %q, want the promoted leader", got)
	}

	// Even with the promoted leader gone, the stale claimant must stay
	// fenced — the gateway remembers the highest epoch it has seen and
	// reports no leader rather than handing writes to a dead timeline.
	promoted.Close()
	gw.ProbeOnce(context.Background())
	if got := gw.Status().Leader; got != "" {
		t.Fatalf("fenced epoch-1 leader re-adopted after the epoch-2 leader died: %q", got)
	}
}

// TestGatewayAutoFailoverSkipsFencedFollower: a follower whose epoch is
// below the gateway's fencing floor (it never re-homed after an earlier
// failover) must not be auto-promoted — its bump would land exactly ON
// the floor and resurrect the fenced timeline, losing every write the
// real current epoch acknowledged.
func TestGatewayAutoFailoverSkipsFencedFollower(t *testing.T) {
	leader := fakeBackend(t,
		service.StatusResponse{Role: "leader", Healthy: true, DurableSeq: 50, Epoch: 2}, nil)
	promoteCalls := 0
	stale := fakeBackendDyn(t, func() service.StatusResponse {
		return service.StatusResponse{Role: "follower", Healthy: true, DurableSeq: 100, Epoch: 1}
	}, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/promote" {
			promoteCalls++
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"role":"leader","epoch":2,"durableSeq":100}`)
	})

	gw, err := gateway.New(gateway.Config{
		Backends:     []string{leader.URL, stale.URL},
		AutoFailover: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.ProbeOnce(context.Background()) // floor reaches epoch 2
	leader.Close()                     // the epoch-2 leader dies
	for i := 0; i < 3; i++ {
		time.Sleep(5 * time.Millisecond) // comfortably past the grace
		gw.ProbeOnce(context.Background())
	}
	if promoteCalls != 0 {
		t.Fatalf("gateway promoted a fenced epoch-1 follower %d time(s)", promoteCalls)
	}
	if got := gw.Status().Leader; got != "" {
		t.Fatalf("gateway adopted a leader with none eligible: %q", got)
	}
}

// TestGatewayReadsSkipFencedFollower: a follower left behind on a fenced
// timeline (epoch below the floor) must receive no reads — the watermark
// clock was truncated to the new history, so its orphaned seq 100 would
// otherwise read as "fully caught up" and even zero-staleness requests
// would be served lost writes.
func TestGatewayReadsSkipFencedFollower(t *testing.T) {
	var fencedHits int
	fenced := fakeBackend(t,
		service.StatusResponse{Role: "follower", Healthy: true, DurableSeq: 100, Epoch: 1},
		func(w http.ResponseWriter, r *http.Request) {
			fencedHits++
			w.WriteHeader(http.StatusOK)
		})
	leader := fakeBackend(t,
		service.StatusResponse{Role: "leader", Healthy: true, DurableSeq: 50, Epoch: 2},
		func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, `{}`)
		})

	gw, err := gateway.New(gateway.Config{Backends: []string{fenced.URL, leader.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gw.ProbeOnce(context.Background())
	gts := httptest.NewServer(gw)
	defer gts.Close()

	for _, hdr := range []map[string]string{nil, {gateway.MaxLagHeader: "0"}} {
		resp, body := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/group",
			map[string]any{"initiator": 0, "p": 2, "s": 1, "k": 1}, hdr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("read (hdr %v): status %d (%s)", hdr, resp.StatusCode, body)
		}
		if got := resp.Header.Get(gateway.BackendHeader); got != leader.URL {
			t.Fatalf("read (hdr %v) served by %s, want the epoch-2 leader", hdr, got)
		}
	}
	if fencedHits != 0 {
		t.Fatalf("fenced follower served %d reads", fencedHits)
	}
}

// TestGatewayClearsDeadHintLeader: a 403-hint-adopted leader that is not
// in the configured pool must still be forgotten when it dies — the
// clearing logic probes it directly instead of skipping URLs without a
// pool entry.
func TestGatewayClearsDeadHintLeader(t *testing.T) {
	hinted := fakeBackend(t,
		service.StatusResponse{Role: "leader", Healthy: true, DurableSeq: 9, Epoch: 1},
		func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, `{"id":7}`)
		})
	// The pool backend claims leadership until the hint is adopted, then
	// settles as a follower (it was demoted; the real leader moved to an
	// -advertise URL the pool does not list).
	role := "leader"
	exLeader := fakeBackendDyn(t, func() service.StatusResponse {
		return service.StatusResponse{Role: role, Healthy: true, DurableSeq: 9, Epoch: 1}
	}, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-STGQ-Leader", hinted.URL)
		w.WriteHeader(http.StatusForbidden)
		fmt.Fprint(w, `{"error":"read-only follower"}`)
	})

	gw, err := gateway.New(gateway.Config{Backends: []string{exLeader.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gw.ProbeOnce(context.Background())
	gts := httptest.NewServer(gw)
	defer gts.Close()
	// Adopt the out-of-pool leader through the redirect.
	if resp, body := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/people",
		map[string]any{"name": "eve"}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("mutation via hint: status %d (%s)", resp.StatusCode, body)
	}
	if gw.Status().Leader != hinted.URL {
		t.Fatalf("hint leader not adopted: %+v", gw.Status())
	}
	role = "follower"

	hinted.Close()
	gw.ProbeOnce(context.Background()) // probes the out-of-pool URL directly
	if got := gw.Status().Leader; got != "" {
		t.Fatalf("dead out-of-pool hint leader still adopted: %q", got)
	}
	resp, _ := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/people",
		map[string]any{"name": "eve"}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("mutation after hint-leader death: status %d, want fast 503 + Retry-After", resp.StatusCode)
	}
}

package gateway_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/service"
)

// --- the read-your-writes acceptance e2e ------------------------------------

// TestGatewayReadYourWrites is the acceptance e2e (make e2e-ryw): behind
// one gateway sit a durable leader, a healthy follower and a follower
// that is deliberately, hopelessly lagging — and listed FIRST among the
// followers, so ordinary reads genuinely prefer it (the control phase
// proves they observe pre-write state). A session's read after its own
// write must never observe pre-write state: it is routed to a caught-up
// follower, held at the forwarded read barrier, or served by the leader
// — including across a leader kill and auto-promotion, after which the
// lagging follower is additionally fenced (old epoch) and the session's
// pre-failover floor is still honored by the promoted history.
func TestGatewayReadYourWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("read-your-writes e2e skipped in -short mode")
	}

	leader := startLeader(t, t.TempDir())
	buildPopulation(t, leader.st.Planner(), 30)

	// The lagging follower never starts its replication loop: stuck at
	// seq 0 forever, the deterministic stand-in for unbounded lag.
	lagging := startFollower(t, leader.ts.URL, false)
	healthy := startFollower(t, leader.ts.URL, true)
	waitCaughtUp(t, healthy.fo, leader.st)

	// Unbounded staleness, lagging follower listed before the healthy
	// one: absent a floor, the least-pending tie goes to the laggard.
	gw, gts := startGateway(t, gateway.Config{
		Backends:     []string{leader.ts.URL, lagging.ts.URL, healthy.ts.URL},
		AutoFailover: 300 * time.Millisecond,
	})

	addPerson := func(session, name string) (id int, writeSeq uint64) {
		t.Helper()
		resp, body := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/people",
			map[string]any{"name": name}, map[string]string{gateway.SessionHeader: session})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("add %s: status %d: %s", name, resp.StatusCode, body)
		}
		if rid := resp.Header.Get(service.RequestIDHeader); rid == "" {
			t.Fatalf("add %s: mutation response carries no %s (gateway must generate one)",
				name, service.RequestIDHeader)
		}
		var r service.AddPersonResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		seq, err := strconv.ParseUint(resp.Header.Get(service.WriteSeqHeader), 10, 64)
		if err != nil || seq == 0 {
			t.Fatalf("mutation response carries no usable %s: %q (%v)",
				service.WriteSeqHeader, resp.Header.Get(service.WriteSeqHeader), err)
		}
		return r.ID, seq
	}
	connect := func(session string, a, b int) {
		t.Helper()
		resp, body := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/friendships",
			map[string]any{"a": a, "b": b, "distance": 1.0},
			map[string]string{gateway.SessionHeader: session})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("connect %d-%d: status %d: %s", a, b, resp.StatusCode, body)
		}
	}
	// groupQuery plans around the given initiator; hdr carries the
	// session or echoed-write-seq floor (nil: an ordinary floorless read).
	groupQuery := func(id int, hdr map[string]string) (*http.Response, service.GroupResponse, []byte) {
		t.Helper()
		resp, body := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/group",
			map[string]any{"initiator": id, "p": 4, "s": 1, "k": 1}, hdr)
		if rid := resp.Header.Get(service.RequestIDHeader); rid == "" {
			t.Fatalf("read response carries no %s (gateway must generate one)", service.RequestIDHeader)
		}
		var g service.GroupResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, &g); err != nil {
				t.Fatal(err)
			}
		}
		return resp, g, body
	}
	assertSees := func(resp *http.Response, g service.GroupResponse, body []byte, id int, phase string) {
		t.Helper()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: session read observed pre-write state: status %d (%s), served by %s",
				phase, resp.StatusCode, body, resp.Header.Get(gateway.BackendHeader))
		}
		for _, m := range g.Members {
			if m.ID == id {
				return
			}
		}
		t.Fatalf("%s: session read answered without the session's own person %d: %s", phase, id, body)
	}

	// Control: a floorless read after a write prefers the lagging
	// follower and genuinely observes pre-write state — the staleness the
	// sessions below must never see.
	ctrlID, _ := addPerson("", "control")
	connect("", ctrlID, 0)
	resp, _, _ := groupQuery(ctrlID, nil)
	if got := resp.Header.Get(gateway.BackendHeader); got != lagging.ts.URL {
		t.Fatalf("control read served by %s, want the lagging follower %s (test premise broken)", got, lagging.ts.URL)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("control read: status %d, want 404 from the lagging follower (person not replicated there)", resp.StatusCode)
	}

	// Phase 1: sticky sessions. Each session adds a person, befriends
	// them, and immediately re-plans around them; the gateway must route
	// every such read to post-write state.
	for i := 0; i < 8; i++ {
		session := fmt.Sprintf("session-%d", i)
		id, _ := addPerson(session, fmt.Sprintf("ryw-%d", i))
		for _, friend := range []int{0, 1, 2} {
			connect(session, id, friend)
		}
		resp, g, body := groupQuery(id, map[string]string{gateway.SessionHeader: session})
		assertSees(resp, g, body, id, "phase 1 (session)")
		if got := resp.Header.Get(gateway.BackendHeader); got == lagging.ts.URL {
			t.Fatalf("phase 1: session read served by the lagging follower")
		}
	}

	// Phase 2: sessionless clients echoing X-STGQ-Write-Seq get the same
	// guarantee without gateway-side state.
	echoID, echoSeq := addPerson("", "echo")
	for _, friend := range []int{0, 1, 2} {
		connect("", echoID, friend)
	}
	// The friendship writes advanced the seq past echoSeq; echoing the
	// person-write's seq alone must already make the person visible.
	resp, g, body := groupQuery(echoID, map[string]string{service.WriteSeqHeader: strconv.FormatUint(echoSeq+3, 10)})
	assertSees(resp, g, body, echoID, "phase 2 (write-seq echo)")

	// Sanity before the failover: session state is being tracked.
	if st := gw.Status(); st.Sessions == 0 || st.RYWReads == 0 {
		t.Fatalf("gateway tracked no RYW state: %+v", st)
	}

	// Phase 3: leader kill + auto-promotion. Quiesce first so every
	// acknowledged write is on the healthy follower (the promotion
	// candidate); the session floors must survive onto the new epoch.
	waitCaughtUp(t, healthy.fo, leader.st)
	leader.st.Close()
	leader.ts.Close()

	promoted := false
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, _ := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/people",
			map[string]any{"name": "after-failover"}, map[string]string{gateway.SessionHeader: "session-post"})
		if resp.StatusCode == http.StatusOK {
			if resp.Header.Get(service.WriteSeqHeader) == "" {
				t.Fatalf("post-failover mutation carries no %s", service.WriteSeqHeader)
			}
			promoted = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !promoted {
		t.Fatalf("writes never resumed after leader kill: %+v", gw.Status())
	}
	if got := gw.Status().Leader; got != healthy.ts.URL {
		t.Fatalf("promoted leader is %q, want the healthy follower %q", got, healthy.ts.URL)
	}

	// The post-failover session loop: its writes and reads run against
	// the promoted leader (the lagging follower is now fenced at epoch 1
	// below the floor — eligible for nothing).
	for i := 0; i < 4; i++ {
		session := fmt.Sprintf("post-session-%d", i)
		id, _ := addPerson(session, fmt.Sprintf("post-ryw-%d", i))
		for _, friend := range []int{0, 1, 2} {
			connect(session, id, friend)
		}
		resp, g, body := groupQuery(id, map[string]string{gateway.SessionHeader: session})
		assertSees(resp, g, body, id, "phase 3 (post-failover session)")
		if got := resp.Header.Get(gateway.BackendHeader); got != healthy.ts.URL {
			t.Fatalf("phase 3: session read served by %s, want the promoted leader", got)
		}
	}

	// A pre-failover session's floor is still honored by the promoted
	// history (its acknowledged writes all replicated before the kill).
	resp, g, body = groupQuery(echoID, map[string]string{gateway.SessionHeader: "session-0"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-failover session read after failover: status %d (%s)", resp.StatusCode, body)
	}
	_ = g
}

// --- header precedence and interplay unit tests -----------------------------

// rywLeader builds a fake leader whose mutations acknowledge with the
// given write seq and whose reads reply 200.
func rywLeader(t *testing.T, seq uint64) *httptest.Server {
	return fakeBackend(t,
		service.StatusResponse{Role: "leader", Healthy: true, DurableSeq: seq, Epoch: 1},
		func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/people" {
				service.SetSeq(w.Header(), service.WriteSeqHeader, seq)
			}
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, `{"from":"leader"}`)
		})
}

// TestGatewayWriteSeqRoutesPastStaleFollower: a read echoing a write seq
// above a follower's probed position must not be served by that follower
// without the barrier — and when the follower answers 412 (it could not
// catch up), the gateway retries on the leader instead of surfacing the
// miss.
func TestGatewayWriteSeqRoutesPastStaleFollower(t *testing.T) {
	leader := rywLeader(t, 9)
	var sawMinSeq string
	stale := fakeBackend(t,
		service.StatusResponse{Role: "follower", Healthy: true, DurableSeq: 4, Epoch: 1},
		func(w http.ResponseWriter, r *http.Request) {
			sawMinSeq = r.Header.Get(service.MinSeqHeader)
			// The follower's honest barrier miss.
			w.WriteHeader(http.StatusPreconditionFailed)
			fmt.Fprint(w, `{"error":"read barrier"}`)
		})

	gw, err := gateway.New(gateway.Config{Backends: []string{stale.URL, leader.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gw.ProbeOnce(context.Background())
	gts := httptest.NewServer(gw)
	defer gts.Close()

	resp, body := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/group",
		map[string]any{"initiator": 0, "p": 2, "s": 1, "k": 1},
		map[string]string{service.WriteSeqHeader: "9"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("floored read: status %d (%s), want leader retry to succeed", resp.StatusCode, body)
	}
	if got := resp.Header.Get(gateway.BackendHeader); got != leader.URL {
		t.Fatalf("floored read served by %s, want the leader after the barrier miss", got)
	}
	if sawMinSeq != "9" {
		t.Fatalf("follower saw %s=%q, want the echoed floor 9 forwarded as the barrier", service.MinSeqHeader, sawMinSeq)
	}
	if st := gw.Status(); st.RYWReads == 0 || st.RYWLeaderRetries == 0 {
		t.Fatalf("RYW counters not maintained: %+v", st)
	}
}

// TestGatewayFloorHeaderPrecedence: the gateway combines every supplied
// floor — echoed X-STGQ-Write-Seq, explicit X-STGQ-Min-Seq, and the
// session's remembered write — by taking the maximum, and forwards
// exactly one X-STGQ-Min-Seq barrier.
func TestGatewayFloorHeaderPrecedence(t *testing.T) {
	leader := rywLeader(t, 20)
	var sawMinSeq string
	follower := fakeBackend(t,
		service.StatusResponse{Role: "follower", Healthy: true, DurableSeq: 50, Epoch: 1},
		func(w http.ResponseWriter, r *http.Request) {
			sawMinSeq = r.Header.Get(service.MinSeqHeader)
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, `{}`)
		})

	gw, err := gateway.New(gateway.Config{Backends: []string{leader.URL, follower.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gw.ProbeOnce(context.Background())
	gts := httptest.NewServer(gw)
	defer gts.Close()

	// Seed the session's floor at 20 through a mutation.
	resp, body := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/people",
		map[string]any{"name": "eve"}, map[string]string{gateway.SessionHeader: "s1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutation: status %d (%s)", resp.StatusCode, body)
	}
	if st := gw.Status(); st.Sessions != 1 {
		t.Fatalf("session not tracked after mutation: %+v", st)
	}

	// All three floors supplied: session says 20, write-seq echo says 7,
	// explicit min-seq says 31. The barrier must carry the max.
	resp, body = doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/group",
		map[string]any{"initiator": 0, "p": 2, "s": 1, "k": 1},
		map[string]string{
			gateway.SessionHeader:  "s1",
			service.WriteSeqHeader: "7",
			service.MinSeqHeader:   "31",
		})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("combined-floor read: status %d (%s)", resp.StatusCode, body)
	}
	if sawMinSeq != "31" {
		t.Fatalf("forwarded barrier %q, want the max of all floors (31)", sawMinSeq)
	}

	// Session floor alone: the read carries no headers beyond the session
	// id, yet the barrier still names the remembered write.
	resp, _ = doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/group",
		map[string]any{"initiator": 0, "p": 2, "s": 1, "k": 1},
		map[string]string{gateway.SessionHeader: "s1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session-floor read: status %d", resp.StatusCode)
	}
	if sawMinSeq != "20" {
		t.Fatalf("forwarded barrier %q, want the session's remembered floor (20)", sawMinSeq)
	}
}

// TestGatewayMalformedFloorHeaders: a malformed or negative floor is a
// 400 before any backend sees the request — silently dropping it would
// serve the read without the consistency the client asked for.
func TestGatewayMalformedFloorHeaders(t *testing.T) {
	var backendHits int
	leader := fakeBackend(t,
		service.StatusResponse{Role: "leader", Healthy: true, DurableSeq: 5, Epoch: 1},
		func(w http.ResponseWriter, r *http.Request) {
			backendHits++
			w.WriteHeader(http.StatusOK)
		})

	gw, err := gateway.New(gateway.Config{Backends: []string{leader.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gw.ProbeOnce(context.Background())
	gts := httptest.NewServer(gw)
	defer gts.Close()

	for _, tc := range []struct{ header, value string }{
		{service.WriteSeqHeader, "banana"},
		{service.WriteSeqHeader, "-3"},
		{service.WriteSeqHeader, "1.5"},
		{service.MinSeqHeader, "banana"},
		{service.MinSeqHeader, "-1"},
	} {
		resp, _ := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/group",
			map[string]any{"initiator": 0, "p": 2, "s": 1, "k": 1},
			map[string]string{tc.header: tc.value})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s=%q: status %d, want 400", tc.header, tc.value, resp.StatusCode)
		}
	}
	if backendHits != 0 {
		t.Fatalf("malformed floors reached the backend %d time(s)", backendHits)
	}
}

// TestGatewayMaxLagHeaderPrecedence: the per-request
// X-STGQ-Max-Lag-Seconds header overrides the -max-lag default in both
// directions — a loose default tightened per request steers to the
// leader, and a tight default loosened per request re-admits the stale
// follower.
func TestGatewayMaxLagHeaderPrecedence(t *testing.T) {
	mk := func(maxLag time.Duration) (*gateway.Gateway, *httptest.Server, *httptest.Server, *httptest.Server) {
		leader := fakeBackend(t,
			service.StatusResponse{Role: "leader", Healthy: true, DurableSeq: 9, Epoch: 1},
			func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusOK)
				fmt.Fprint(w, `{"from":"leader"}`)
			})
		stale := fakeBackend(t,
			service.StatusResponse{Role: "follower", Healthy: true, DurableSeq: 1, Epoch: 1},
			func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusOK)
				fmt.Fprint(w, `{"from":"stale"}`)
			})
		gw, err := gateway.New(gateway.Config{Backends: []string{leader.URL, stale.URL}, MaxLag: maxLag})
		if err != nil {
			t.Fatal(err)
		}
		gw.ProbeOnce(context.Background()) // watermark at seq 9; the follower ages against it
		time.Sleep(30 * time.Millisecond)
		gts := httptest.NewServer(gw)
		t.Cleanup(gts.Close)
		return gw, gts, leader, stale
	}
	read := func(gts *httptest.Server, hdr map[string]string) *http.Response {
		resp, _ := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/group",
			map[string]any{"initiator": 0, "p": 2, "s": 1, "k": 1}, hdr)
		return resp
	}

	// Loose default (1h): the stale follower serves — until a request
	// tightens the bound, which steers it to the leader.
	_, gts, leader, stale := mk(time.Hour)
	if got := read(gts, nil).Header.Get(gateway.BackendHeader); got != stale.URL {
		t.Fatalf("loose default: read served by %s, want the follower", got)
	}
	if got := read(gts, map[string]string{gateway.MaxLagHeader: "0.001"}).Header.Get(gateway.BackendHeader); got != leader.URL {
		t.Fatalf("tightened per request: read not steered to the leader")
	}

	// Tight default (1ms): the leader serves — until a request loosens
	// the bound, which re-admits the stale follower.
	_, gts2, leader2, stale2 := mk(time.Millisecond)
	if got := read(gts2, nil).Header.Get(gateway.BackendHeader); got != leader2.URL {
		t.Fatalf("tight default: read served by %s, want the leader", got)
	}
	if got := read(gts2, map[string]string{gateway.MaxLagHeader: "3600"}).Header.Get(gateway.BackendHeader); got != stale2.URL {
		t.Fatalf("loosened per request: read not re-admitted to the follower")
	}
}

// TestGatewaySessionEviction: the session table is bounded; an evicted
// session degrades to floorless routing (no error), and a re-write
// re-tracks it.
func TestGatewaySessionEviction(t *testing.T) {
	leader := rywLeader(t, 5)
	gw, err := gateway.New(gateway.Config{Backends: []string{leader.URL}, SessionCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	gw.ProbeOnce(context.Background())
	gts := httptest.NewServer(gw)
	defer gts.Close()

	for _, s := range []string{"a", "b", "c"} { // "a" is evicted at "c"
		resp, _ := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/people",
			map[string]any{"name": s}, map[string]string{gateway.SessionHeader: s})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mutation %s: status %d", s, resp.StatusCode)
		}
	}
	if got := gw.Status().Sessions; got != 2 {
		t.Fatalf("session table holds %d entries, want the cap (2)", got)
	}
	// The evicted session still reads fine — just without a floor.
	resp, _ := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/group",
		map[string]any{"initiator": 0, "p": 2, "s": 1, "k": 1},
		map[string]string{gateway.SessionHeader: "a"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evicted session read: status %d", resp.StatusCode)
	}
}

// TestGatewaySessionTrackingDisabled: SessionCap < 0 turns the table
// off; sessions get no floor, but explicit write-seq echoes still work.
func TestGatewaySessionTrackingDisabled(t *testing.T) {
	leader := rywLeader(t, 9)
	var sawMinSeq string
	follower := fakeBackend(t,
		service.StatusResponse{Role: "follower", Healthy: true, DurableSeq: 9, Epoch: 1},
		func(w http.ResponseWriter, r *http.Request) {
			sawMinSeq = r.Header.Get(service.MinSeqHeader)
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, `{}`)
		})
	gw, err := gateway.New(gateway.Config{Backends: []string{leader.URL, follower.URL}, SessionCap: -1})
	if err != nil {
		t.Fatal(err)
	}
	gw.ProbeOnce(context.Background())
	gts := httptest.NewServer(gw)
	defer gts.Close()

	resp, _ := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/people",
		map[string]any{"name": "eve"}, map[string]string{gateway.SessionHeader: "s"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutation: status %d", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/group",
		map[string]any{"initiator": 0, "p": 2, "s": 1, "k": 1},
		map[string]string{gateway.SessionHeader: "s"})
	if resp.StatusCode != http.StatusOK || sawMinSeq != "" {
		t.Fatalf("disabled tracking still floored the read (barrier %q, status %d)", sawMinSeq, resp.StatusCode)
	}
	resp, _ = doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/group",
		map[string]any{"initiator": 0, "p": 2, "s": 1, "k": 1},
		map[string]string{service.WriteSeqHeader: "9"})
	if resp.StatusCode != http.StatusOK || sawMinSeq != "9" {
		t.Fatalf("write-seq echo inert with tracking disabled (barrier %q, status %d)", sawMinSeq, resp.StatusCode)
	}
}

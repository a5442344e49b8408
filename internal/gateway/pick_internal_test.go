package gateway

// White-box ranking checks. A probe round publishes each backend's
// health before it raises the fencing floor, so a router running in that
// window (or a second probe round) can see followers at different
// epochs, all at or above the floor. Every ranking among candidates
// must then order whole positions, never bare seqs.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
)

func setFollower(b *Backend, pos journal.Pos) {
	b.setHealth(health{Probed: true, Healthy: true, Role: "follower", Pos: pos})
}

// TestPickFollowerRanksByPos: the barrier tier prefers the follower at
// the newer epoch over one with a longer history at an older epoch.
func TestPickFollowerRanksByPos(t *testing.T) {
	g, err := New(Config{Backends: []string{"http://a", "http://b"}})
	if err != nil {
		t.Fatal(err)
	}
	older, newer := g.backends[0], g.backends[1]
	setFollower(older, journal.Pos{Epoch: 1, Seq: 100})
	setFollower(newer, journal.Pos{Epoch: 2, Seq: 5})
	if got := g.pickFollower(-1, journal.Pos{Epoch: 1}, nil, "", true); got != newer {
		t.Fatalf("barrier tier picked %v, want the epoch-2 follower %s", got, newer.URL)
	}
}

// TestFailoverCandidateRanksByPos: auto-failover promotes the follower
// at the newer epoch, not the one with the higher seq on an older epoch.
func TestFailoverCandidateRanksByPos(t *testing.T) {
	var mu sync.Mutex
	var promoted []string
	backend := func() *httptest.Server {
		var ts *httptest.Server
		ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/promote" {
				mu.Lock()
				promoted = append(promoted, ts.URL)
				mu.Unlock()
			}
			w.WriteHeader(http.StatusOK)
			w.Write([]byte(`{}`)) //nolint:errcheck
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	older, newer := backend(), backend()
	g, err := New(Config{Backends: []string{older.URL, newer.URL}, AutoFailover: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	setFollower(g.backends[0], journal.Pos{Epoch: 1, Seq: 100})
	setFollower(g.backends[1], journal.Pos{Epoch: 2, Seq: 5})
	g.mu.Lock()
	g.maxEpoch = 1
	g.leaderSeenAt = time.Now().Add(-time.Second)
	g.mu.Unlock()
	g.maybeFailover(context.Background(), time.Now())
	mu.Lock()
	defer mu.Unlock()
	if len(promoted) != 1 || promoted[0] != newer.URL {
		t.Fatalf("promoted %v, want only the epoch-2 follower %s", promoted, newer.URL)
	}
}

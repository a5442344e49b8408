package gateway

// White-box admission tables for the result cache: every boundary of
// cacheAdmissible against the G1–G5 contract of docs/consistency.md.
// The predicate reuses journal.Pos.Compare exactly as pickFollower does
// for live backends, so these tables pin the cache to the same ordering
// the router is proven against.

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/journal"
)

// testGateway builds a minimal gateway with a result cache and a chosen
// fencing floor and watermark timeline, without any probing.
func testGateway(t *testing.T, maxEpoch uint64, marks []watermark) *Gateway {
	t.Helper()
	g, err := New(Config{Backends: []string{"http://stub"}, CacheTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	g.maxEpoch = maxEpoch
	g.marks = marks
	g.mu.Unlock()
	return g
}

func entryAt(epoch, seq uint64, age time.Duration) *cacheEntry {
	return &cacheEntry{
		pos:  journal.Pos{Epoch: epoch, Seq: seq},
		at:   time.Now().Add(-age),
		resp: &proxied{status: http.StatusOK, header: http.Header{}},
	}
}

// TestCacheAdmissionFloorBoundaries: G4 — a read carrying a
// read-your-writes floor must never be served an entry older than the
// floor. The boundary is exact: seq == floor admits, seq == floor-1
// refuses.
func TestCacheAdmissionFloorBoundaries(t *testing.T) {
	g := testGateway(t, 3, nil)
	cases := []struct {
		name       string
		epoch, seq uint64
		minSeq     uint64
		want       bool
	}{
		{"no floor, entry at fence epoch", 3, 5, 0, true},
		{"entry exactly at floor", 3, 10, 10, true},
		{"entry one past floor", 3, 11, 10, true},
		{"entry one below floor", 3, 9, 10, false},
		{"entry far below floor", 3, 1, 10, false},
		{"zero-seq entry, zero floor", 3, 0, 0, true},
		{"higher-epoch entry beats any floor (Pos.Compare order)", 4, 1, 10, true},
	}
	for _, c := range cases {
		if got := g.cacheAdmissible(entryAt(c.epoch, c.seq, 0), c.minSeq, -1); got != c.want {
			t.Errorf("%s: admissible=%v, want %v", c.name, got, c.want)
		}
	}
}

// TestCacheAdmissionFencing: G5 — after a failover bumps the observed
// epoch, entries computed on the orphaned pre-failover timeline must
// never be served again, no matter how high their seq or how fresh
// their wall-clock age.
func TestCacheAdmissionFencing(t *testing.T) {
	g := testGateway(t, 2, nil)
	e := entryAt(1, 1_000_000, 0) // old epoch, enormous orphaned seq
	if g.cacheAdmissible(e, 0, -1) {
		t.Fatal("fenced-epoch entry admitted for a floorless read")
	}
	if g.cacheAdmissible(e, 1, -1) {
		t.Fatal("fenced-epoch entry admitted for a floored read")
	}
	if got := g.cacheAdmissible(entryAt(2, 3, 0), 0, -1); !got {
		t.Fatal("current-epoch entry refused")
	}

	// The fencing floor can rise between store and lookup (that is the
	// failover); the same entry flips from admissible to refused.
	e2 := entryAt(2, 50, 0)
	if !g.cacheAdmissible(e2, 0, -1) {
		t.Fatal("entry at current epoch refused before failover")
	}
	g.mu.Lock()
	g.maxEpoch = 3
	g.mu.Unlock()
	if g.cacheAdmissible(e2, 0, -1) {
		t.Fatal("entry at the dead epoch still admissible after failover")
	}
}

// TestCacheAdmissionStalenessBound: G3 — a bounded read may only be
// served an entry whose stamped seq the watermark clock can attest is
// within the bound; unknown staleness (no marks) refuses, exactly as
// pickFollower refuses a follower it cannot vouch for.
func TestCacheAdmissionStalenessBound(t *testing.T) {
	now := time.Now()
	g := testGateway(t, 1, []watermark{
		{seq: 10, at: now.Add(-5 * time.Second)},
		{seq: 20, at: now.Add(-2 * time.Second)},
	})
	e := entryAt(1, 15, 0) // behind the seq-20 watermark: stale ~2s

	if !g.cacheAdmissible(e, 0, -1) {
		t.Fatal("unbounded read refused a valid entry")
	}
	if !g.cacheAdmissible(e, 0, 10) {
		t.Fatal("2s-stale entry refused under a 10s bound")
	}
	if g.cacheAdmissible(e, 0, 1) {
		t.Fatal("2s-stale entry admitted under a 1s bound")
	}
	if !g.cacheAdmissible(entryAt(1, 25, 0), 0, 0) {
		t.Fatal("entry past every watermark (staleness 0) refused under a zero bound")
	}

	// No watermark timeline at all: bounded reads must refuse (unknown
	// staleness is not zero staleness), unbounded reads may proceed.
	g2 := testGateway(t, 1, nil)
	if g2.cacheAdmissible(entryAt(1, 5, 0), 0, 5) {
		t.Fatal("entry of unknown staleness admitted under a bound")
	}
	if !g2.cacheAdmissible(entryAt(1, 5, 0), 0, -1) {
		t.Fatal("entry of unknown staleness refused without a bound")
	}
}

// TestCacheAdmissionTTL: the wall-clock backstop refuses entries older
// than the configured TTL even when every seq-based check passes.
func TestCacheAdmissionTTL(t *testing.T) {
	g := testGateway(t, 1, nil) // TTL one minute
	if !g.cacheAdmissible(entryAt(1, 5, 30*time.Second), 0, -1) {
		t.Fatal("half-TTL entry refused")
	}
	if g.cacheAdmissible(entryAt(1, 5, 2*time.Minute), 0, -1) {
		t.Fatal("expired entry admitted")
	}
}

// TestResultCacheFIFOAndFlights pins the container semantics: capacity
// eviction is FIFO by first insertion, re-storing a key does not
// resurrect its slot, and flights hand exactly one caller the leader
// role until complete.
func TestResultCacheFIFOAndFlights(t *testing.T) {
	c := newResultCache(2, time.Minute)
	c.put("a", entryAt(1, 1, 0))
	c.put("b", entryAt(1, 2, 0))
	c.put("a", entryAt(1, 3, 0)) // refresh, not re-insert
	c.put("c", entryAt(1, 4, 0)) // evicts "a" (oldest insertion)
	if c.get("a") != nil {
		t.Fatal(`"a" survived FIFO eviction despite refresh`)
	}
	if c.get("b") == nil || c.get("c") == nil {
		t.Fatal("newer entries evicted")
	}

	fl, leader := c.join("k")
	if !leader {
		t.Fatal("first join is not the leader")
	}
	fl2, leader2 := c.join("k")
	if leader2 || fl2 != fl {
		t.Fatalf("second join: leader=%v, same flight=%v", leader2, fl2 == fl)
	}
	e := entryAt(1, 9, 0)
	c.complete("k", fl, e)
	select {
	case <-fl.done:
	default:
		t.Fatal("complete did not release waiters")
	}
	if fl.entry != e {
		t.Fatal("waiters do not see the completed entry")
	}
	if _, leader3 := c.join("k"); !leader3 {
		t.Fatal("join after complete should start a fresh flight")
	}
}

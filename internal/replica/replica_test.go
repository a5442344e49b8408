package replica_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	stgq "repro"
	"repro/internal/journal"
	"repro/internal/replica"
	"repro/internal/service"
)

// leaderHarness bundles a durable leader and its HTTP server.
type leaderHarness struct {
	st *journal.Store
	ts *httptest.Server
}

func startLeader(t *testing.T, dir string, opts journal.Options) *leaderHarness {
	t.Helper()
	st, err := journal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.NewWithStore(st))
	t.Cleanup(func() {
		// Store first: closing it ends any in-flight replication
		// long-poll, which ts.Close would otherwise wait out (up to the
		// streamer's MaxConnected) regardless of cleanup ordering.
		st.Close()
		ts.Close()
	})
	return &leaderHarness{st: st, ts: ts}
}

// followerHarness bundles a follower, its HTTP server and its lifecycle.
type followerHarness struct {
	fo   *replica.Follower
	ts   *httptest.Server
	stop func() // cancels Run, waits for it, closes the follower
}

func startFollower(t *testing.T, dir, leaderURL string) *followerHarness {
	t.Helper()
	fo, err := replica.NewFollower(replica.Config{
		LeaderURL:  leaderURL,
		Dir:        dir,
		MinBackoff: 5 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.NewFollower(fo, leaderURL))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		fo.Run(ctx)
		close(done)
	}()
	stopped := false
	h := &followerHarness{fo: fo, ts: ts, stop: nil}
	h.stop = func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		<-done
		ts.Close()
		if err := fo.Close(); err != nil {
			t.Errorf("follower close: %v", err)
		}
	}
	t.Cleanup(h.stop)
	return h
}

// waitCaughtUp blocks until the follower has applied every record the
// leader assigned.
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
	t.Fatalf("follower stuck at seq %d, leader at %d (status %+v)",
		fo.Status().AppliedSeq, target, fo.Status())
}

func post(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// buildPopulation drives n people with a well-connected core onto the
// leader's planner (journaled through the store's mutation hook).
func buildPopulation(t *testing.T, pl *stgq.Planner, n int) {
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

// planOn runs the same STGQ on a server and returns the raw response body.
func planOn(t *testing.T, ts *httptest.Server, initiator int) []byte {
	t.Helper()
	resp, body := post(t, ts, "/query/activity", map[string]any{
		"initiator": initiator, "p": 4, "s": 2, "k": 1, "m": 3,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("activity query: status %d: %s", resp.StatusCode, body)
	}
	return body
}

// TestLeaderFollowerEndToEnd is the acceptance scenario: mutations driven
// on the leader (over HTTP and through the durable planner) become
// visible on the follower, which answers PlanActivity identically once
// lag reaches zero — including after a follower restart from its own
// data dir.
func TestLeaderFollowerEndToEnd(t *testing.T) {
	leader := startLeader(t, t.TempDir(), journal.Options{HorizonSlots: 14})
	fdir := t.TempDir()
	f := startFollower(t, fdir, leader.ts.URL)

	// Mutations over the leader's HTTP API...
	for i, name := range []string{"ana", "bo", "cy", "di"} {
		if resp, body := post(t, leader.ts, "/people", map[string]any{"name": name}); resp.StatusCode != http.StatusOK {
			t.Fatalf("add %s: %d %s", name, resp.StatusCode, body)
		}
		if i > 0 {
			if resp, body := post(t, leader.ts, "/friendships", map[string]any{"a": i - 1, "b": i, "distance": 2.5}); resp.StatusCode != http.StatusOK {
				t.Fatalf("connect: %d %s", resp.StatusCode, body)
			}
		}
	}
	// ...and in bulk through the journaled planner.
	buildPopulation(t, leader.st.Planner(), 40)

	waitCaughtUp(t, f.fo, leader.st)
	if got, want := planOn(t, f.ts, 10), planOn(t, leader.ts, 10); !bytes.Equal(got, want) {
		t.Fatalf("follower plan diverged:\n  follower %s\n  leader   %s", got, want)
	}

	// The follower rejects mutations with 403 and a leader hint.
	resp, body := post(t, f.ts, "/people", map[string]any{"name": "eve"})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("follower accepted a mutation: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-STGQ-Leader"); got != leader.ts.URL {
		t.Fatalf("X-STGQ-Leader = %q, want %q", got, leader.ts.URL)
	}
	var errBody struct {
		Error  string `json:"error"`
		Leader string `json:"leader"`
	}
	if err := json.Unmarshal(body, &errBody); err != nil || errBody.Leader != leader.ts.URL {
		t.Fatalf("403 body lacks leader hint: %s (%v)", body, err)
	}

	// Status reports the replica role and zero lag.
	st, stBody := get(t, f.ts, "/status")
	if st.StatusCode != http.StatusOK {
		t.Fatalf("status: %d", st.StatusCode)
	}
	var status struct {
		Role        string          `json:"role"`
		Leader      string          `json:"leader"`
		Replication *replica.Status `json:"replication"`
	}
	if err := json.Unmarshal(stBody, &status); err != nil {
		t.Fatal(err)
	}
	if status.Role != "follower" || status.Leader != leader.ts.URL || status.Replication == nil {
		t.Fatalf("follower status incomplete: %s", stBody)
	}
	if status.Replication.LagRecords != 0 || status.Replication.AppliedSeq != leader.st.LastSeq() {
		t.Fatalf("follower should be caught up: %+v", *status.Replication)
	}

	// More leader mutations keep flowing — privacy policies included,
	// which replicate as MutSetPolicy records like any other mutation.
	if err := leader.st.Planner().SetBusy(10, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := leader.st.Planner().SetSchedulePolicy(11, stgq.ShareNone); err != nil {
		t.Fatal(err)
	}
	// Location mutations replicate too, and the follower surfaces its
	// applied-location coverage in Status — a move relocates an already-
	// located person, so it must not double count.
	if err := leader.st.Planner().SetLocation(10, 120, -45); err != nil {
		t.Fatal(err)
	}
	if err := leader.st.Planner().SetLocation(11, 300, 900); err != nil {
		t.Fatal(err)
	}
	if err := leader.st.Planner().SetLocation(10, 121, -46); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, f.fo, leader.st)
	if got := f.fo.Planner().SchedulePolicy(11); got != stgq.ShareNone {
		t.Fatalf("policy did not replicate: person 11 = %v, want none", got)
	}
	if got := f.fo.Status().LocatedPeople; got != 2 {
		t.Fatalf("follower LocatedPeople = %d, want 2", got)
	}
	if x, y, ok := f.fo.Planner().Location(10); !ok || x != 121 || y != -46 {
		t.Fatalf("location move did not replicate: (%v,%v,%v)", x, y, ok)
	}
	// Replication is bit-exact: a location posted at x = -0 keeps its
	// sign on the follower, as it does on the leader and in its journal.
	if resp, body := post(t, leader.ts, "/people/11/location", json.RawMessage(`{"x":-0,"y":5}`)); resp.StatusCode != http.StatusOK {
		t.Fatalf("set location -0: %d %s", resp.StatusCode, body)
	}
	waitCaughtUp(t, f.fo, leader.st)
	if x, y, ok := f.fo.Planner().Location(11); !ok || x != 0 || !math.Signbit(x) || y != 5 {
		t.Fatalf("follower location of 11 = (%v,%v,%v), want (-0,5) with the sign bit set", x, y, ok)
	}
	if got, want := planOn(t, f.ts, 10), planOn(t, leader.ts, 10); !bytes.Equal(got, want) {
		t.Fatalf("follower plan diverged after update:\n  follower %s\n  leader   %s", got, want)
	}

	// Restart the follower from its own data dir: it must resume at its
	// applied position (not re-bootstrap) and keep replicating.
	applied := f.fo.Status().AppliedSeq
	f.stop()
	buildPopulation(t, leader.st.Planner(), 10) // leader moves on while the follower is down

	f2 := startFollower(t, fdir, leader.ts.URL)
	if got := f2.fo.Status().AppliedSeq; got != applied {
		t.Fatalf("restarted follower recovered seq %d from disk, want %d", got, applied)
	}
	if got := f2.fo.Status().LocatedPeople; got != 2 {
		t.Fatalf("restarted follower recovered LocatedPeople = %d from disk, want 2", got)
	}
	waitCaughtUp(t, f2.fo, leader.st)
	if f2.fo.Status().Bootstraps != 0 {
		t.Fatalf("restart should resume from disk, not bootstrap: %+v", f2.fo.Status())
	}
	if got, want := planOn(t, f2.ts, 10), planOn(t, leader.ts, 10); !bytes.Equal(got, want) {
		t.Fatalf("restarted follower diverged:\n  follower %s\n  leader   %s", got, want)
	}
	// The records that arrived while the follower was down are applied:
	// both sides agree on the population.
	wantPeople, wantFriends := leader.st.Planner().Counts()
	gotPeople, gotFriends := f2.fo.Planner().Counts()
	if gotPeople != wantPeople || gotFriends != wantFriends {
		t.Fatalf("follower population %d/%d, leader %d/%d", gotPeople, gotFriends, wantPeople, wantFriends)
	}
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestFollowerCatchUpAcrossCompaction disconnects a follower, lets the
// leader snapshot + compact past the follower's position, and checks the
// reconnecting follower bootstraps from the snapshot and converges to
// query-equivalence.
func TestFollowerCatchUpAcrossCompaction(t *testing.T) {
	// Automatic snapshots off: the test controls compaction precisely.
	leader := startLeader(t, t.TempDir(), journal.Options{HorizonSlots: 14, SnapshotEvery: -1})
	buildPopulation(t, leader.st.Planner(), 20)

	fdir := t.TempDir()
	f := startFollower(t, fdir, leader.ts.URL)
	waitCaughtUp(t, f.fo, leader.st)
	stale := f.fo.Status().AppliedSeq
	f.stop() // follower disconnects

	// Leader moves on and compacts its journal past the follower's
	// position: records ≤ the snapshot seq no longer exist as records.
	buildPopulation(t, leader.st.Planner(), 20)
	if err := leader.st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if snap := leader.st.Stats().LastSnapshotSeq; snap <= stale {
		t.Fatalf("test setup: snapshot seq %d does not cover follower position %d", snap, stale)
	}
	if _, err := leader.st.TailFrom(stale).Read(16); !errors.Is(err, journal.ErrCompacted) {
		t.Fatalf("leader should have compacted past seq %d, TailFrom(stale).Read err = %v", stale, err)
	}

	// The reconnecting follower must bootstrap from the snapshot and
	// then stream the tail.
	f2 := startFollower(t, fdir, leader.ts.URL)
	waitCaughtUp(t, f2.fo, leader.st)
	if f2.fo.Status().Bootstraps == 0 {
		t.Fatalf("follower crossed a compaction without bootstrapping: %+v", f2.fo.Status())
	}
	if got, want := planOn(t, f2.ts, 25), planOn(t, leader.ts, 25); !bytes.Equal(got, want) {
		t.Fatalf("post-bootstrap follower diverged:\n  follower %s\n  leader   %s", got, want)
	}

	// And the bootstrap is durable: a restart recovers from the
	// follower's own disk at the caught-up position.
	applied := f2.fo.Status().AppliedSeq
	f2.stop()
	f3 := startFollower(t, fdir, leader.ts.URL)
	if got := f3.fo.Status().AppliedSeq; got != applied {
		t.Fatalf("restart after bootstrap recovered seq %d, want %d", got, applied)
	}
	waitCaughtUp(t, f3.fo, leader.st)
	if got, want := planOn(t, f3.ts, 25), planOn(t, leader.ts, 25); !bytes.Equal(got, want) {
		t.Fatalf("restarted follower diverged:\n  follower %s\n  leader   %s", got, want)
	}
}

// TestFollowerJoinsAfterLeaderRecoveredFromSnapshot covers the fresh
// follower whose after=0 position predates the leader's whole journal
// (the leader itself booted from a snapshot): the very first stream must
// be a bootstrap.
func TestFollowerJoinsAfterLeaderRecoveredFromSnapshot(t *testing.T) {
	ldir := t.TempDir()
	leader := startLeader(t, ldir, journal.Options{HorizonSlots: 14, SnapshotEvery: -1})
	buildPopulation(t, leader.st.Planner(), 15)
	if err := leader.st.Snapshot(); err != nil {
		t.Fatal(err)
	}

	f := startFollower(t, t.TempDir(), leader.ts.URL)
	waitCaughtUp(t, f.fo, leader.st)
	if f.fo.Status().Bootstraps == 0 {
		t.Fatalf("fresh follower behind a compacted journal must bootstrap: %+v", f.fo.Status())
	}
	if got, want := planOn(t, f.ts, 8), planOn(t, leader.ts, 8); !bytes.Equal(got, want) {
		t.Fatalf("follower diverged:\n  follower %s\n  leader   %s", got, want)
	}
}

// TestCutShortSnapshotLeavesFollowerUntouched: a snapshot stream that
// ends after its header, or partway through its frames, changes neither
// the follower's store nor its applied position, and the follower
// re-bootstraps on its next connect.
func TestCutShortSnapshotLeavesFollowerUntouched(t *testing.T) {
	for name, keep := range map[string]int64{"after header": 0, "mid-frames": 100} {
		t.Run(name, func(t *testing.T) {
			leader := startLeader(t, t.TempDir(), journal.Options{HorizonSlots: 14, SnapshotEvery: -1})
			buildPopulation(t, leader.st.Planner(), 10)

			// A frontdoor that, while cutting, forwards a snapshot
			// stream's header and the first keep bytes of its section,
			// then hangs up.
			var cutting atomic.Bool
			var cuts atomic.Int32
			proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, leader.ts.URL+r.URL.Path+"?"+r.URL.RawQuery, nil)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadGateway)
					return
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadGateway)
					return
				}
				defer resp.Body.Close()
				w.WriteHeader(resp.StatusCode)
				br := bufio.NewReader(resp.Body)
				snapshot, sent := false, 0
				for {
					if snapshot && cutting.Load() {
						io.CopyN(w, br, keep) //nolint:errcheck // the cut is the point
						cuts.Add(1)
						return
					}
					line, err := br.ReadBytes('\n')
					if sent == 0 {
						snapshot = bytes.Contains(line, []byte(`"k":"snapshot"`))
					}
					if _, werr := w.Write(line); werr != nil || err != nil {
						return
					}
					w.(http.Flusher).Flush()
					sent++
				}
			}))
			t.Cleanup(proxy.Close)

			fdir := t.TempDir()
			f := startFollower(t, fdir, proxy.URL)
			waitCaughtUp(t, f.fo, leader.st)
			stale, people := f.fo.Status().AppliedSeq, f.fo.Planner().NumPeople()
			f.stop()

			// The leader compacts past the follower, so its next
			// connect is answered with a snapshot.
			buildPopulation(t, leader.st.Planner(), 10)
			if err := leader.st.Snapshot(); err != nil {
				t.Fatal(err)
			}
			cutting.Store(true)
			f2 := startFollower(t, fdir, proxy.URL)
			deadline := time.Now().Add(15 * time.Second)
			for cuts.Load() < 2 { // the second cut proves the first was handled
				if time.Now().After(deadline) {
					t.Fatalf("no snapshot stream was cut: %+v", f2.fo.Status())
				}
				time.Sleep(2 * time.Millisecond)
			}
			st := f2.fo.Status()
			if st.AppliedSeq != stale || st.Bootstraps != 0 || f2.fo.Planner().NumPeople() != people {
				t.Fatalf("a cut-short snapshot touched the follower: %+v, %d people (want seq %d, %d people)",
					st, f2.fo.Planner().NumPeople(), stale, people)
			}
			waitForError(t, f2.fo, "cut short")

			cutting.Store(false)
			waitCaughtUp(t, f2.fo, leader.st)
			if f2.fo.Status().Bootstraps == 0 {
				t.Fatalf("follower caught up without a bootstrap: %+v", f2.fo.Status())
			}
			if got, want := planOn(t, f2.ts, 15), planOn(t, leader.ts, 15); !bytes.Equal(got, want) {
				t.Fatalf("follower diverged:\n  follower %s\n  leader   %s", got, want)
			}
		})
	}
}

// TestUnreplayableSnapshotLeavesFollowerUntouched: a snapshot section
// whose frames are CRC-valid but cannot be replayed (an edge between
// people who do not exist) is refused before the follower closes its
// store or touches its dir: it keeps its applied seq and its people,
// counts no bootstrap, names the frame in lastError, restarts from its
// dir in the same state, and bootstraps normally once the leader's own
// snapshot gets through.
func TestUnreplayableSnapshotLeavesFollowerUntouched(t *testing.T) {
	leader := startLeader(t, t.TempDir(), journal.Options{HorizonSlots: 14, SnapshotEvery: -1})
	buildPopulation(t, leader.st.Planner(), 10)

	var bad []byte
	for i, m := range []stgq.Mutation{
		{Op: stgq.MutAddPerson, Person: 0, Name: "ana"},
		{Op: stgq.MutConnect, A: 5, B: 6, Distance: 1},
	} {
		frame, err := journal.EncodeFrame(journal.Record{Seq: uint64(i + 1), Mut: m})
		if err != nil {
			t.Fatal(err)
		}
		bad = append(bad, frame...)
	}
	// A frontdoor that, while swapping, answers a snapshot stream with
	// the leader's header announcing bad's length, then bad.
	var swapping atomic.Bool
	var swaps atomic.Int32
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, leader.ts.URL+r.URL.Path+"?"+r.URL.RawQuery, nil)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		br := bufio.NewReader(resp.Body)
		line, err := br.ReadBytes('\n')
		if swapping.Load() && bytes.Contains(line, []byte(`"k":"snapshot"`)) {
			var hdr map[string]any
			if err := json.Unmarshal(line, &hdr); err != nil {
				return
			}
			hdr["bytes"] = len(bad)
			json.NewEncoder(w).Encode(hdr) //nolint:errcheck // the follower reports what it got
			w.Write(bad)                   //nolint:errcheck
			swaps.Add(1)
			return
		}
		for {
			if _, werr := w.Write(line); werr != nil || err != nil {
				return
			}
			w.(http.Flusher).Flush()
			line, err = br.ReadBytes('\n')
		}
	}))
	t.Cleanup(proxy.Close)

	fdir := t.TempDir()
	f := startFollower(t, fdir, proxy.URL)
	waitCaughtUp(t, f.fo, leader.st)
	stale, people := f.fo.Status().AppliedSeq, f.fo.Planner().NumPeople()
	f.stop()

	buildPopulation(t, leader.st.Planner(), 10)
	if err := leader.st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	swapping.Store(true)
	f2 := startFollower(t, fdir, proxy.URL)
	waitForError(t, f2.fo, "snapshot frame 2")
	deadline := time.Now().Add(15 * time.Second)
	for swaps.Load() < 2 { // the second swap proves the first was handled
		if time.Now().After(deadline) {
			t.Fatalf("no second snapshot was swapped: %+v", f2.fo.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := f2.fo.Status()
	if st.AppliedSeq != stale || st.Bootstraps != 0 || f2.fo.Planner().NumPeople() != people {
		t.Fatalf("an unreplayable snapshot touched the follower: %+v, %d people (want seq %d, %d people)",
			st, f2.fo.Planner().NumPeople(), stale, people)
	}
	// Its dir is untouched too: a restart recovers the same state.
	f2.stop()
	f3 := startFollower(t, fdir, proxy.URL)
	if st := f3.fo.Status(); st.AppliedSeq != stale || f3.fo.Planner().NumPeople() != people {
		t.Fatalf("restart after an unreplayable snapshot: %+v, %d people (want seq %d, %d people)",
			st, f3.fo.Planner().NumPeople(), stale, people)
	}

	swapping.Store(false)
	waitCaughtUp(t, f3.fo, leader.st)
	if f3.fo.Status().Bootstraps == 0 {
		t.Fatalf("follower caught up without a bootstrap: %+v", f3.fo.Status())
	}
	if got, want := planOn(t, f3.ts, 15), planOn(t, leader.ts, 15); !bytes.Equal(got, want) {
		t.Fatalf("follower diverged:\n  follower %s\n  leader   %s", got, want)
	}
}

// TestFollowerSurvivesLeaderRestart exercises reconnect-with-backoff: the
// leader goes away mid-replication and comes back on a new port; pointing
// a Follower at a stable URL is the operator's job, so the test uses a
// reverse proxy address that outlives the leader restart.
func TestFollowerSurvivesLeaderRestart(t *testing.T) {
	ldir := t.TempDir()
	leader1 := startLeader(t, ldir, journal.Options{HorizonSlots: 14})
	buildPopulation(t, leader1.st.Planner(), 10)

	// A trivial stable frontdoor for the leader's moving URL.
	var target atomic.Value // string: the current leader base URL
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, target.Load().(string)+r.URL.Path+"?"+r.URL.RawQuery, nil)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		fl, _ := w.(http.Flusher)
		buf := make([]byte, 4096)
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
	}))
	// Registered before startFollower so cleanup (LIFO) stops the
	// follower first — httptest's Close waits out in-flight long-polls.
	t.Cleanup(proxy.Close)
	target.Store(leader1.ts.URL)

	f := startFollower(t, t.TempDir(), proxy.URL)
	waitCaughtUp(t, f.fo, leader1.st)

	// Leader restarts: clean close, reopen on a fresh port. The store
	// closes first so the in-flight stream ends (httptest's Close waits
	// for outstanding requests).
	if err := leader1.st.Close(); err != nil {
		t.Fatal(err)
	}
	leader1.ts.Close()
	// With the frontdoor still pointing at the dead leader, the follower
	// must observe at least one failed connect before the new leader
	// appears — this makes the reconnect-with-backoff assertion
	// deterministic instead of racing the restart window.
	deadline := time.Now().Add(15 * time.Second)
	for f.fo.Status().Reconnects == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("follower never noticed the dead leader: %+v", f.fo.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	leader2 := startLeader(t, ldir, journal.Options{HorizonSlots: 14})
	target.Store(leader2.ts.URL)
	buildPopulation(t, leader2.st.Planner(), 5)

	waitCaughtUp(t, f.fo, leader2.st)
	if got, want := planOn(t, f.ts, 7), planOn(t, leader2.ts, 7); !bytes.Equal(got, want) {
		t.Fatalf("follower diverged after leader restart:\n  follower %s\n  leader   %s", got, want)
	}
}

// --- failover: epochs, fencing, promotion ----------------------------------

// waitForError blocks until the follower reports a LastError containing
// substr.
func waitForError(t *testing.T, fo *replica.Follower, substr string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if s := fo.Status().LastError; strings.Contains(s, substr) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("follower never reported %q: %+v", substr, fo.Status())
}

// TestFollowerRejectsLowerEpochLeader pins the fencing contract: a
// follower whose local history is at a higher epoch refuses a
// lower-epoch leader's stream — it neither applies records nor
// bootstraps, because rolling back onto a fenced timeline would undo a
// completed failover.
func TestFollowerRejectsLowerEpochLeader(t *testing.T) {
	leader := startLeader(t, t.TempDir(), journal.Options{HorizonSlots: 14})
	buildPopulation(t, leader.st.Planner(), 10)

	fdir := t.TempDir()
	f := startFollower(t, fdir, leader.ts.URL)
	waitCaughtUp(t, f.fo, leader.st)
	applied := f.fo.Status().AppliedSeq
	f.stop()

	// The cluster failed over elsewhere: this follower's history now
	// belongs to epoch 2, while the old leader — revived — still streams
	// epoch 1.
	if _, err := journal.BumpEpoch(fdir, applied); err != nil {
		t.Fatal(err)
	}
	buildPopulation(t, leader.st.Planner(), 5) // the fenced leader moves on

	f2 := startFollower(t, fdir, leader.ts.URL)
	waitForError(t, f2.fo, "fenced")
	st := f2.fo.Status()
	if st.AppliedSeq != applied {
		t.Fatalf("fenced follower applied records: seq %d, want %d", st.AppliedSeq, applied)
	}
	if st.Bootstraps != 0 {
		t.Fatalf("fenced follower bootstrapped from a stale leader: %+v", st)
	}
	if st.Epoch != 2 {
		t.Fatalf("follower epoch %d, want 2", st.Epoch)
	}
}

// TestFollowerBootstrapsAcrossFailoverDivergence: after a failover to a
// leader whose history is shorter than the follower's (the promoted
// replica had not applied the dead leader's tail), the follower must
// detect the epoch-with-divergence and rebuild from the new leader's
// snapshot rather than splicing two histories.
func TestFollowerBootstrapsAcrossFailoverDivergence(t *testing.T) {
	leaderA := startLeader(t, t.TempDir(), journal.Options{HorizonSlots: 14})
	buildPopulation(t, leaderA.st.Planner(), 30)

	fdir := t.TempDir()
	f := startFollower(t, fdir, leaderA.ts.URL)
	waitCaughtUp(t, f.fo, leaderA.st)
	f.stop()
	if err := leaderA.st.Close(); err != nil {
		t.Fatal(err)
	}
	leaderA.ts.Close()

	// Leader B: a shorter history at epoch 2 (the promoted survivor of a
	// failover the follower slept through).
	bdir := t.TempDir()
	seed, err := journal.Open(bdir, journal.Options{HorizonSlots: 14})
	if err != nil {
		t.Fatal(err)
	}
	buildPopulation(t, seed.Planner(), 12)
	forkB := seed.LastSeq()
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := journal.BumpEpoch(bdir, forkB); err != nil {
		t.Fatal(err)
	}
	leaderB := startLeader(t, bdir, journal.Options{HorizonSlots: 14})
	if f.fo.Status().AppliedSeq <= leaderB.st.LastSeq() {
		t.Fatalf("test setup: follower at %d must be ahead of leader B at %d",
			f.fo.Status().AppliedSeq, leaderB.st.LastSeq())
	}

	f2 := startFollower(t, fdir, leaderB.ts.URL)
	// waitCaughtUp would pass trivially here — the follower starts AHEAD
	// of leader B; wait for the re-bootstrap onto B's history instead.
	deadline := time.Now().Add(15 * time.Second)
	for f2.fo.Status().Bootstraps == 0 || f2.fo.Status().AppliedSeq != leaderB.st.LastSeq() {
		if time.Now().After(deadline) {
			t.Fatalf("divergent follower never re-bootstrapped onto epoch 2: %+v", f2.fo.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := f2.fo.Status()
	if st.Epoch != 2 {
		t.Fatalf("follower epoch %d after failover, want 2", st.Epoch)
	}
	if got, want := planOn(t, f2.ts, 5), planOn(t, leaderB.ts, 5); !bytes.Equal(got, want) {
		t.Fatalf("post-failover follower diverged:\n  follower %s\n  leader   %s", got, want)
	}
}

// TestPromote drives the promotion seam directly: the promoted store
// re-opens writable at epoch+1 with every applied record intact, the old
// follower handle becomes inert, and a fresh follower replicates from
// the promoted leader at the new epoch.
func TestPromote(t *testing.T) {
	leader := startLeader(t, t.TempDir(), journal.Options{HorizonSlots: 14})
	buildPopulation(t, leader.st.Planner(), 20)

	f := startFollower(t, t.TempDir(), leader.ts.URL)
	waitCaughtUp(t, f.fo, leader.st)
	applied := f.fo.Status().AppliedSeq

	st, err := f.fo.Promote()
	if err != nil {
		t.Fatal(err)
	}
	// Store before server (and after f2's harness, registered later, has
	// stopped): closing the store ends the replication long-poll that
	// would otherwise stall the server close for its full MaxConnected.
	var pts *httptest.Server
	t.Cleanup(func() {
		st.Close()
		if pts != nil {
			pts.Close()
		}
	})
	if got := st.Epoch(); got != 2 {
		t.Fatalf("promoted store at epoch %d, want 2", got)
	}
	if got := st.LastSeq(); got != applied {
		t.Fatalf("promoted store lost records: seq %d, want %d", got, applied)
	}
	// The promoted store accepts (and journals) new writes.
	if _, err := st.Planner().AddPerson("postfailover"); err != nil {
		t.Fatalf("promoted store rejected a write: %v", err)
	}
	if got := st.LastSeq(); got != applied+1 {
		t.Fatalf("write not journaled: seq %d, want %d", got, applied+1)
	}
	// Promote is terminal for the follower: a second call and Close are
	// rejected/no-ops, and the store stays open for its new owner.
	if _, err := f.fo.Promote(); err == nil {
		t.Fatal("second Promote succeeded")
	}
	if err := f.fo.Close(); err != nil {
		t.Fatalf("post-promotion Close: %v", err)
	}
	if _, err := st.Planner().AddPerson("stillopen"); err != nil {
		t.Fatalf("follower Close closed the promoted store: %v", err)
	}

	// A fresh follower replicates from the promoted leader and adopts
	// epoch 2.
	pts = httptest.NewServer(service.NewWithStore(st))
	f2 := startFollower(t, t.TempDir(), pts.URL)
	waitCaughtUp(t, f2.fo, st)
	if got := f2.fo.Status().Epoch; got != 2 {
		t.Fatalf("follower of promoted leader at epoch %d, want 2", got)
	}
	if got, want := planOn(t, f2.ts, 5), planOn(t, pts, 5); !bytes.Equal(got, want) {
		t.Fatalf("follower of promoted leader diverged:\n  follower %s\n  leader   %s", got, want)
	}
}

// TestFollowerBootstrapsWhenOrphanedTailBelowLeaderSeq pins the sharper
// divergence rule: the new leader's DURABLE seq may race past the
// follower's orphaned tail, so divergence must be judged against the
// epoch's fork point, not the durable position. Here the follower (seq
// 10) reconnects to an epoch-2 leader that forked at 8 but has already
// reached 13 — a durable-seq comparison would silently splice records
// 11..13 on top of the orphaned 9..10.
func TestFollowerBootstrapsWhenOrphanedTailBelowLeaderSeq(t *testing.T) {
	leaderA := startLeader(t, t.TempDir(), journal.Options{HorizonSlots: 14})
	for i := 0; i < 10; i++ {
		if _, err := leaderA.st.Planner().AddPerson(fmt.Sprintf("a%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	fdir := t.TempDir()
	f := startFollower(t, fdir, leaderA.ts.URL)
	waitCaughtUp(t, f.fo, leaderA.st)
	f.stop()
	if err := leaderA.st.Close(); err != nil {
		t.Fatal(err)
	}
	leaderA.ts.Close()

	// Leader B forked at seq 8 (epoch 2) and has moved on to seq 13.
	bdir := t.TempDir()
	seed, err := journal.Open(bdir, journal.Options{HorizonSlots: 14})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := seed.Planner().AddPerson(fmt.Sprintf("a%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := journal.BumpEpoch(bdir, 8); err != nil {
		t.Fatal(err)
	}
	leaderB := startLeader(t, bdir, journal.Options{HorizonSlots: 14})
	for i := 0; i < 5; i++ {
		if _, err := leaderB.st.Planner().AddPerson(fmt.Sprintf("b%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if leaderB.st.LastSeq() <= f.fo.Status().AppliedSeq {
		t.Fatalf("test setup: leader B at %d must be past the follower's %d",
			leaderB.st.LastSeq(), f.fo.Status().AppliedSeq)
	}

	f2 := startFollower(t, fdir, leaderB.ts.URL)
	deadline := time.Now().Add(15 * time.Second)
	for f2.fo.Status().Bootstraps == 0 || f2.fo.Status().AppliedSeq != leaderB.st.LastSeq() {
		if time.Now().After(deadline) {
			t.Fatalf("follower spliced instead of re-bootstrapping: %+v", f2.fo.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := f2.fo.Status().Epoch; got != 2 {
		t.Fatalf("follower epoch %d, want 2", got)
	}
	// The orphaned a8/a9 are gone; the population is exactly leader B's.
	wantPeople, wantFriends := leaderB.st.Planner().Counts()
	if gotPeople, gotFriends := f2.fo.Planner().Counts(); gotPeople != wantPeople || gotFriends != wantFriends {
		t.Fatalf("follower population %d/%d after re-bootstrap, leader B %d/%d",
			gotPeople, gotFriends, wantPeople, wantFriends)
	}
}

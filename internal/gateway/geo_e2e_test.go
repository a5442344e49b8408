package gateway_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/service"
)

// TestGatewayGeoSocial is the geo-social acceptance e2e (make e2e-geo):
// location mutations driven through the gateway must be visible to
// floored GSGSelect reads served from the replica tier. The premise
// mirrors the read-your-writes e2e — a hopelessly lagging follower is
// listed first among the read backends, so an ordinary floorless read
// genuinely observes pre-write state — and each session then registers a
// person, locates them at the activity point, and immediately runs a
// GSGSelect around that point: the answer must always include the
// just-located person, never the laggard's stale view.
func TestGatewayGeoSocial(t *testing.T) {
	if testing.Short() {
		t.Skip("geo-social e2e skipped in -short mode")
	}

	leader := startLeader(t, t.TempDir())
	buildPopulation(t, leader.st.Planner(), 30)

	// The lagging follower never starts replicating: stuck empty forever.
	lagging := startFollower(t, leader.ts.URL, false)
	healthy := startFollower(t, leader.ts.URL, true)
	waitCaughtUp(t, healthy.fo, leader.st)

	_, gts := startGateway(t, gateway.Config{
		Backends: []string{leader.ts.URL, lagging.ts.URL, healthy.ts.URL},
	})

	mutate := func(session, path string, body any) *http.Response {
		t.Helper()
		resp, b := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+path,
			body, map[string]string{gateway.SessionHeader: session})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, b)
		}
		if resp.Header.Get(service.WriteSeqHeader) == "" {
			t.Fatalf("%s: mutation response carries no %s", path, service.WriteSeqHeader)
		}
		return resp
	}
	gsgselect := func(initiator int, hdr map[string]string) (*http.Response, service.GeoPlanResponse, []byte) {
		t.Helper()
		resp, body := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/query/gsgselect",
			map[string]any{"initiator": initiator, "p": 4, "s": 1, "k": 1, "x": 0, "y": 0, "radius": 500}, hdr)
		var g service.GeoPlanResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, &g); err != nil {
				t.Fatal(err)
			}
		}
		return resp, g, body
	}

	// Locate a seed neighborhood at the activity point so session people
	// have co-located friends to form groups with.
	for _, id := range []int{0, 1, 2} {
		mutate("", fmt.Sprintf("/people/%d/location", id), map[string]any{"x": 0, "y": 0})
	}

	// Control: a floorless geo read prefers the lagging follower and
	// observes pre-write state — the staleness the sessions below must
	// never see.
	resp, _, _ := gsgselect(0, nil)
	if got := resp.Header.Get(gateway.BackendHeader); got != lagging.ts.URL {
		t.Fatalf("control read served by %s, want the lagging follower %s (test premise broken)", got, lagging.ts.URL)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("control read: status %d, want 404 from the empty lagging follower", resp.StatusCode)
	}

	// Sessions: register, befriend, locate, and immediately query around
	// the location — through the gateway end to end.
	for i := 0; i < 4; i++ {
		session := fmt.Sprintf("geo-session-%d", i)
		var added service.AddPersonResponse
		r, b := doJSON(t, http.DefaultClient, http.MethodPost, gts.URL+"/people",
			map[string]any{"name": fmt.Sprintf("geo-%d", i)}, map[string]string{gateway.SessionHeader: session})
		if r.StatusCode != http.StatusOK {
			t.Fatalf("add geo-%d: status %d: %s", i, r.StatusCode, b)
		}
		if err := json.Unmarshal(b, &added); err != nil {
			t.Fatal(err)
		}
		for _, friend := range []int{0, 1, 2} {
			mutate(session, "/friendships", map[string]any{"a": added.ID, "b": friend, "distance": 1.0})
		}
		mutate(session, fmt.Sprintf("/people/%d/location", added.ID), map[string]any{"x": 10, "y": -10})

		resp, g, body := gsgselect(added.ID, map[string]string{gateway.SessionHeader: session})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("session %s: floored GSGSelect observed pre-write state: status %d (%s), served by %s",
				session, resp.StatusCode, body, resp.Header.Get(gateway.BackendHeader))
		}
		if got := resp.Header.Get(gateway.BackendHeader); got == lagging.ts.URL {
			t.Fatalf("session %s: floored GSGSelect served by the lagging follower", session)
		}
		found := false
		for _, m := range g.Members {
			found = found || m.ID == added.ID
		}
		if !found {
			t.Fatalf("session %s: GSGSelect answered without the just-located person %d: %s", session, added.ID, body)
		}
	}

	// The replica tier converges on the full spatial coverage and reports
	// it in Status: 3 seed locations plus the 4 session people.
	waitCaughtUp(t, healthy.fo, leader.st)
	deadline := time.Now().Add(5 * time.Second)
	for healthy.fo.Status().LocatedPeople != 7 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := healthy.fo.Status().LocatedPeople; got != 7 {
		t.Fatalf("healthy follower LocatedPeople = %d, want 7", got)
	}

	// And a read floored at the replicated position answers identically to
	// the leader: the replicated locations feed the same grid-pruned
	// search on whichever non-stale backend serves it.
	floor := fmt.Sprintf("%d", healthy.fo.Status().AppliedSeq)
	respF, gF, bodyF := gsgselect(0, map[string]string{service.MinSeqHeader: floor})
	if respF.StatusCode != http.StatusOK {
		t.Fatalf("floored geo read: status %d (%s)", respF.StatusCode, bodyF)
	}
	if got := respF.Header.Get(gateway.BackendHeader); got == lagging.ts.URL {
		t.Fatalf("floored geo read served by the lagging follower")
	}
	respL, gL, _ := gsgselect(0, map[string]string{gateway.MaxLagHeader: "0.001"})
	if respL.StatusCode != http.StatusOK {
		t.Fatalf("leader geo read: status %d", respL.StatusCode)
	}
	if gF.TotalDistance != gL.TotalDistance || len(gF.Members) != len(gL.Members) {
		t.Fatalf("floored and leader geo answers diverged: %+v vs %+v", gF, gL)
	}
}

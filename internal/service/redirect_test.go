package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	stgq "repro"
	"repro/internal/replica"
)

// startDetachedFollower builds a follower service whose replication loop
// is never started: exactly the state a mutating client hits when it
// talks to a read replica, which is what the 403 + X-STGQ-Leader redirect
// contract protects.
func startDetachedFollower(t *testing.T, leaderHint string) *httptest.Server {
	t.Helper()
	fo, err := replica.NewFollower(replica.Config{
		LeaderURL: "http://leader.invalid:8080",
		Dir:       t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fo.Close() })
	ts := httptest.NewServer(NewFollower(fo, leaderHint))
	t.Cleanup(ts.Close)
	return ts
}

// TestFollowerRejectsEveryMutationWithLeaderHint drives every route of
// the service's mutation table against a follower directly (the body is
// never read: the role check comes first) and asserts the full redirect
// contract: 403, the X-STGQ-Leader header, and the leader hint in the
// body — the signal the cluster gateway keys its re-routing off.
func TestFollowerRejectsEveryMutationWithLeaderHint(t *testing.T) {
	const hint = "http://leader.example:8080"
	ts := startDetachedFollower(t, hint)

	for _, rt := range mutationRoutes {
		method, path, _ := strings.Cut(rt.pattern, " ")
		path = strings.ReplaceAll(path, "{id}", "0")
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusForbidden {
			t.Errorf("%s %s: status %d, want 403 (%s)", method, path, resp.StatusCode, body)
			continue
		}
		if got := resp.Header.Get("X-STGQ-Leader"); got != hint {
			t.Errorf("%s %s: X-STGQ-Leader = %q, want %q", method, path, got, hint)
		}
		var eb struct {
			Error  string `json:"error"`
			Leader string `json:"leader"`
		}
		if err := json.Unmarshal(body, &eb); err != nil || eb.Leader != hint || eb.Error == "" {
			t.Errorf("%s %s: 403 body lacks leader hint: %s (%v)", method, path, body, err)
		}
	}
}

// TestFollowerWithoutHintOmitsHeader covers the degenerate deployment
// where no advertised leader URL is configured: the 403 stands, but no
// empty header is sent.
func TestFollowerWithoutHintOmitsHeader(t *testing.T) {
	ts := startDetachedFollower(t, "")
	code := post(t, ts, "/people", AddPersonRequest{Name: "eve"}, nil)
	if code != http.StatusForbidden {
		t.Fatalf("status %d, want 403", code)
	}
	resp, err := http.Post(ts.URL+"/people", "application/json", bytes.NewReader([]byte(`{"name":"x"}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, present := resp.Header["X-Stgq-Leader"]; present {
		t.Fatalf("X-STGQ-Leader header present despite empty hint")
	}
}

// TestFollowerStatusReportsHealthAndSeq pins the fields the gateway's
// prober consumes from a follower: role, healthy, and the applied
// sequence number surfaced as durableSeq.
func TestFollowerStatusReportsHealthAndSeq(t *testing.T) {
	ts := startDetachedFollower(t, "http://leader.example:8080")
	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Role != "follower" || !st.Healthy || st.DurableSeq != 0 {
		t.Fatalf("follower status = role %q healthy %v durableSeq %d, want follower/true/0",
			st.Role, st.Healthy, st.DurableSeq)
	}
	if st.Replication == nil || st.Replication.Bootstrapping {
		t.Fatalf("replication status missing or mid-bootstrap: %+v", st.Replication)
	}
}

// TestSetPolicyEndpoint exercises POST /policies on a writable server:
// the policy takes effect (visible through SchedulePolicy) and validation
// errors map to the usual status codes.
func TestSetPolicyEndpoint(t *testing.T) {
	pl := stgq.NewPlanner(7)
	srv := NewWithPlanner(pl)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var added AddPersonResponse
	if code := post(t, ts, "/people", AddPersonRequest{Name: "ana"}, &added); code != http.StatusOK {
		t.Fatalf("add person: status %d", code)
	}
	if code := post(t, ts, "/policies", PolicyRequest{Person: added.ID, Policy: "none"}, nil); code != http.StatusOK {
		t.Fatalf("set policy: status %d", code)
	}
	if got := pl.SchedulePolicy(stgq.PersonID(added.ID)); got != stgq.ShareNone {
		t.Fatalf("policy = %v, want none", got)
	}
	if code := post(t, ts, "/policies", PolicyRequest{Person: 99, Policy: "none"}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown person: status %d, want 404", code)
	}
	if code := post(t, ts, "/policies", PolicyRequest{Person: added.ID, Policy: "everyone"}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown policy: status %d, want 400", code)
	}
}

package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/journal"
)

// queryWithMinSeq issues one group query carrying the given MinSeqHeader
// value ("" = none) and returns the status code.
func queryWithMinSeq(t *testing.T, ts *httptest.Server, minSeq string) int {
	t.Helper()
	body, _ := json.Marshal(QueryRequest{Initiator: 0, P: 2, S: 1, K: 1})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/query/group", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if minSeq != "" {
		req.Header.Set(MinSeqHeader, minSeq)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestWriteSeqHeaderOnMutations: a durable leader stamps every
// acknowledged mutation with its durable sequence number; an in-memory
// server (no replication coordinate) stamps nothing.
func TestWriteSeqHeaderOnMutations(t *testing.T) {
	st, err := journal.Open(t.TempDir(), journal.Options{HorizonSlots: 14})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	durable := httptest.NewServer(NewWithStore(st))
	defer durable.Close()
	inmem := httptest.NewServer(New(14))
	defer inmem.Close()

	// Every mutation route acknowledges with its exact body and the
	// write's own sequence number (one record per mutation).
	for i, tc := range []struct{ method, path, body, want string }{
		{"POST", "/people", `{"name":"ana"}`, `{"id":0}`},
		{"POST", "/people", `{"name":"bo"}`, `{"id":1}`},
		{"POST", "/friendships", `{"a":0,"b":1,"distance":2.5}`, `{}`},
		{"DELETE", "/friendships", `{"a":1,"b":0}`, `{}`},
		{"POST", "/availability", `{"person":1,"from":2,"to":9,"available":true}`, `{}`},
		{"POST", "/availability", `{"person":1,"from":3,"to":4}`, `{}`},
		{"POST", "/policies", `{"person":0,"policy":"none"}`, `{}`},
		{"POST", "/people/1/location", `{"x":-0,"y":5}`, `{}`},
	} {
		req, err := http.NewRequest(tc.method, durable.URL+tc.path, bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || string(got) != tc.want {
			t.Fatalf("%s %s: %d %s, want 200 %s", tc.method, tc.path, resp.StatusCode, got, tc.want)
		}
		if got, want := resp.Header.Get(WriteSeqHeader), strconv.Itoa(i+1); got != want {
			t.Fatalf("%s %s: %s = %q, want %q", tc.method, tc.path, WriteSeqHeader, got, want)
		}
	}
	body, _ := json.Marshal(AddPersonRequest{Name: "ana"})
	resp, err := http.Post(inmem.URL+"/people", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(WriteSeqHeader); got != "" {
		t.Fatalf("in-memory mutation %s = %q, want none", WriteSeqHeader, got)
	}
}

// TestMinSeqBarrierOnLeader: a leader answers a satisfied barrier
// immediately, 400s a malformed one, and 412s (with Retry-After) a floor
// naming a write this history never acknowledged.
func TestMinSeqBarrierOnLeader(t *testing.T) {
	st, err := journal.Open(t.TempDir(), journal.Options{HorizonSlots: 14})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Planner().AddPerson("ana"); err != nil { // seq 1
		t.Fatal(err)
	}
	srv := NewWithStore(st)
	srv.BarrierWait = 30 * time.Millisecond
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if code := queryWithMinSeq(t, ts, "1"); code == http.StatusPreconditionFailed || code == http.StatusBadRequest {
		t.Fatalf("satisfied barrier rejected with %d", code)
	}
	for _, bad := range []string{"banana", "-1", "1.5"} {
		if code := queryWithMinSeq(t, ts, bad); code != http.StatusBadRequest {
			t.Fatalf("min-seq %q: status %d, want 400", bad, code)
		}
	}
	start := time.Now()
	if code := queryWithMinSeq(t, ts, "999"); code != http.StatusPreconditionFailed {
		t.Fatalf("unreachable floor: status %d, want 412", code)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("unreachable floor answered in %v: the bounded wait never ran", elapsed)
	}
}

// TestMinSeqBarrierInMemory: an in-memory server has no sequence
// coordinate at all — any positive floor is a 412, a zero floor passes.
func TestMinSeqBarrierInMemory(t *testing.T) {
	srv := New(14)
	srv.BarrierWait = 10 * time.Millisecond
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if code := queryWithMinSeq(t, ts, "1"); code != http.StatusPreconditionFailed {
		t.Fatalf("in-memory floored read: status %d, want 412", code)
	}
	if code := queryWithMinSeq(t, ts, "0"); code == http.StatusPreconditionFailed {
		t.Fatalf("zero floor rejected with 412")
	}
}

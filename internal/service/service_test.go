package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	stgq "repro"
	"repro/internal/dataset"
	"repro/internal/journal"
)

func post(t *testing.T, ts *httptest.Server, path string, body, into any) int {
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
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil && resp.StatusCode == http.StatusOK {
			t.Fatalf("%s: decode: %v", path, err)
		}
	}
	return resp.StatusCode
}

// buildFigure3 populates the service with the Figure 3 instance over HTTP.
func buildFigure3(t *testing.T, ts *httptest.Server) map[string]int {
	t.Helper()
	ids := map[string]int{}
	for _, name := range []string{"v2", "v3", "v4", "v6", "v7", "v8"} {
		var resp AddPersonResponse
		if code := post(t, ts, "/people", AddPersonRequest{Name: name}, &resp); code != http.StatusOK {
			t.Fatalf("add %s: status %d", name, code)
		}
		ids[name] = resp.ID
	}
	edges := []struct {
		a, b string
		d    float64
	}{
		{"v7", "v2", 17}, {"v7", "v3", 18}, {"v7", "v6", 23}, {"v7", "v8", 25},
		{"v7", "v4", 27}, {"v2", "v4", 14}, {"v2", "v6", 19}, {"v3", "v4", 20},
		{"v4", "v6", 29},
	}
	for _, e := range edges {
		code := post(t, ts, "/friendships", FriendshipRequest{A: ids[e.a], B: ids[e.b], Distance: e.d}, nil)
		if code != http.StatusOK {
			t.Fatalf("edge %s-%s: status %d", e.a, e.b, code)
		}
	}
	avail := map[string][][2]int{
		"v2": {{0, 7}},
		"v3": {{1, 3}, {4, 6}},
		"v4": {{0, 5}, {6, 7}},
		"v6": {{1, 7}},
		"v7": {{0, 6}},
		"v8": {{0, 1}, {2, 3}, {4, 6}},
	}
	for name, ranges := range avail {
		for _, rg := range ranges {
			code := post(t, ts, "/availability",
				AvailabilityRequest{Person: ids[name], From: rg[0], To: rg[1], Available: true}, nil)
			if code != http.StatusOK {
				t.Fatalf("availability %s: status %d", name, code)
			}
		}
	}
	return ids
}

func TestEndToEndQueries(t *testing.T) {
	ts := httptest.NewServer(New(7))
	defer ts.Close()
	ids := buildFigure3(t, ts)

	// Status.
	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var status StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if status.People != 6 || status.Friendships != 9 || status.Horizon != 7 {
		t.Errorf("status = %+v", status)
	}

	// SGQ.
	var grp GroupResponse
	code := post(t, ts, "/query/group",
		QueryRequest{Initiator: ids["v7"], P: 4, S: 1, K: 1}, &grp)
	if code != http.StatusOK {
		t.Fatalf("group: status %d", code)
	}
	if grp.TotalDistance != 62 {
		t.Errorf("group: distance %v, want 62", grp.TotalDistance)
	}

	// STGQ.
	var plan PlanResponse
	code = post(t, ts, "/query/activity",
		QueryRequest{Initiator: ids["v7"], P: 4, S: 1, K: 1, M: 3}, &plan)
	if code != http.StatusOK {
		t.Fatalf("activity: status %d", code)
	}
	if plan.TotalDistance != 67 || plan.WindowStart != 1 || plan.WindowEnd != 5 {
		t.Errorf("activity = %+v", plan)
	}
	if plan.WindowHuman == "" {
		t.Error("missing human-readable window")
	}

	// Manual coordination.
	var manual ManualResponse
	code = post(t, ts, "/query/manual",
		QueryRequest{Initiator: ids["v7"], P: 4, S: 1, M: 3}, &manual)
	if code != http.StatusOK {
		t.Fatalf("manual: status %d", code)
	}
	if len(manual.Members) != 4 {
		t.Errorf("manual = %+v", manual)
	}
}

func TestErrorMapping(t *testing.T) {
	ts := httptest.NewServer(New(7))
	defer ts.Close()
	ids := buildFigure3(t, ts)

	// Infeasible → 422.
	code := post(t, ts, "/query/group", QueryRequest{Initiator: ids["v7"], P: 6, S: 1, K: 0}, nil)
	if code != http.StatusUnprocessableEntity {
		t.Errorf("infeasible: status %d, want 422", code)
	}
	// Unknown person → 404.
	code = post(t, ts, "/query/group", QueryRequest{Initiator: 99, P: 3, S: 1, K: 1}, nil)
	if code != http.StatusNotFound {
		t.Errorf("unknown person: status %d, want 404", code)
	}
	// Bad parameters → 400.
	code = post(t, ts, "/query/group", QueryRequest{Initiator: ids["v7"], P: 3, S: 0, K: 1}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("s=0: status %d, want 400", code)
	}
	// Unknown algorithm → 400.
	code = post(t, ts, "/query/group", json.RawMessage(fmt.Sprintf(`{"initiator":%d,"p":3,"s":1,"k":1,"algorithm":"magic"}`, ids["v7"])), nil)
	if code != http.StatusBadRequest {
		t.Errorf("bad algorithm: status %d, want 400", code)
	}
	// Each query endpoint runs one engine, so a request naming any
	// algorithm, the default's name included, has an unknown field → 400,
	// while the same body without it is answered.
	for _, q := range []struct {
		path, fields string
		status       int
	}{
		{"/query/group", `"p":4,"s":1,"k":1`, http.StatusOK},
		{"/query/activity", `"p":4,"s":1,"k":1,"m":3`, http.StatusOK},
		{"/query/gsgselect", `"p":4,"s":1,"k":1,"x":0,"y":0,"radius":500`, http.StatusUnprocessableEntity},
	} {
		plain := fmt.Sprintf(`{"initiator":%d,%s}`, ids["v7"], q.fields)
		if code := post(t, ts, q.path, json.RawMessage(plain), nil); code != q.status {
			t.Errorf("%s %s: status %d, want %d", q.path, plain, code, q.status)
		}
		for _, alg := range []string{"baseline", "ip", "select"} {
			named := fmt.Sprintf(`{"initiator":%d,%s,"algorithm":%q}`, ids["v7"], q.fields, alg)
			if code := post(t, ts, q.path, json.RawMessage(named), nil); code != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400", q.path, named, code)
			}
		}
	}
	// Malformed JSON → 400.
	resp, err := http.Post(ts.URL+"/query/group", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed: status %d, want 400", resp.StatusCode)
	}
	// Unknown fields rejected → 400.
	resp, err = http.Post(ts.URL+"/people", "application/json", bytes.NewReader([]byte(`{"name":"x","bogus":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
	// Every mutation route, in order against the Figure 3 state: the
	// exact status and body of a success, a malformed body, an unknown
	// person and an invalid field.
	for _, tc := range []struct {
		method, path, body string
		status             int
		want               string
	}{
		{"POST", "/people", `{"name":"zed"}`, http.StatusOK, `{"id":6}`},
		{"POST", "/people", `{nope`, http.StatusBadRequest, `{"error":"bad request: invalid character 'n' looking for beginning of object key string"}`},
		{"POST", "/people", `{"name":7}`, http.StatusBadRequest, `{"error":"bad request: json: cannot unmarshal number into Go struct field AddPersonRequest.name of type string"}`},
		{"POST", "/friendships", `{"a":0,"b":6,"distance":3}`, http.StatusOK, `{}`},
		{"POST", "/friendships", `{nope`, http.StatusBadRequest, `{"error":"bad request: invalid character 'n' looking for beginning of object key string"}`},
		{"POST", "/friendships", `{"a":0,"b":99,"distance":3}`, http.StatusNotFound, `{"error":"stgq: person not found: socialgraph: vertex not found: id 99"}`},
		{"POST", "/friendships", `{"a":2,"b":2,"distance":3}`, http.StatusBadRequest, `{"error":"socialgraph: self loops are not allowed"}`},
		{"POST", "/friendships", `{"a":0,"b":6,"distance":-1}`, http.StatusBadRequest, `{"error":"socialgraph: social distance must be positive: -1"}`},
		{"DELETE", "/friendships", `{"a":0,"b":6}`, http.StatusOK, `{}`},
		{"DELETE", "/friendships", `{nope`, http.StatusBadRequest, `{"error":"bad request: invalid character 'n' looking for beginning of object key string"}`},
		{"DELETE", "/friendships", `{"a":99,"b":0}`, http.StatusNotFound, `{"error":"stgq: person not found: socialgraph: vertex not found: id 99"}`},
		{"DELETE", "/friendships", `{"a":2,"b":2}`, http.StatusNotFound, `{"error":"stgq: not friends: socialgraph: edge not found: (2,2)"}`},
		{"POST", "/availability", `{"person":6,"from":1,"to":5,"available":true}`, http.StatusOK, `{}`},
		{"POST", "/availability", `{"person":6,"from":2,"to":3}`, http.StatusOK, `{}`},
		{"POST", "/availability", `{nope`, http.StatusBadRequest, `{"error":"bad request: invalid character 'n' looking for beginning of object key string"}`},
		{"POST", "/availability", `{"person":99,"from":1,"to":5,"available":true}`, http.StatusNotFound, `{"error":"stgq: person not found: person 99"}`},
		{"POST", "/availability", `{"person":6,"from":5,"to":1,"available":true}`, http.StatusBadRequest, `{"error":"core: bad query parameters: slot range [5,1) outside horizon 7"}`},
		{"POST", "/availability", `{"person":6,"from":0,"to":8}`, http.StatusBadRequest, `{"error":"core: bad query parameters: slot range [0,8) outside horizon 7"}`},
		{"POST", "/policies", `{"person":6,"policy":"friends"}`, http.StatusOK, `{}`},
		{"POST", "/policies", `{nope`, http.StatusBadRequest, `{"error":"bad request: invalid character 'n' looking for beginning of object key string"}`},
		{"POST", "/policies", `{"person":99,"policy":"none"}`, http.StatusNotFound, `{"error":"stgq: person not found: person 99"}`},
		{"POST", "/policies", `{"person":6,"policy":"everyone"}`, http.StatusBadRequest, `{"error":"core: bad query parameters: unknown policy \"everyone\""}`},
		{"POST", "/people/6/location", `{"x":-0,"y":5}`, http.StatusOK, `{}`},
		{"POST", "/people/6/location", `{nope`, http.StatusBadRequest, `{"error":"bad request: invalid character 'n' looking for beginning of object key string"}`},
		{"POST", "/people/99/location", `{"x":1,"y":2}`, http.StatusNotFound, `{"error":"stgq: person not found: person 99"}`},
		{"POST", "/people/6/location", `{"x":1e999,"y":2}`, http.StatusBadRequest, `{"error":"bad request: json: cannot unmarshal number 1e999 into Go struct field LocationRequest.x of type float64"}`},
		{"POST", "/people/six/location", `{"x":1,"y":2}`, http.StatusBadRequest, `{"error":"bad request: person id: strconv.Atoi: parsing \"six\": invalid syntax"}`},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.TrimSuffix(string(body), "\n"); resp.StatusCode != tc.status || got != tc.want {
			t.Errorf("%s %s %s: %d %s, want %d %s", tc.method, tc.path, tc.body, resp.StatusCode, got, tc.status, tc.want)
		}
	}

	// Wrong method → 405 from ServeMux.
	resp, err = http.Get(ts.URL + "/people")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /people: status %d, want 405", resp.StatusCode)
	}
}

func del(t *testing.T, ts *httptest.Server, path string, body any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+path, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestRemoveFriendship(t *testing.T) {
	ts := httptest.NewServer(New(7))
	defer ts.Close()
	ids := buildFigure3(t, ts)

	var before GroupResponse
	if code := post(t, ts, "/query/group", QueryRequest{Initiator: ids["v7"], P: 4, S: 1, K: 1}, &before); code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	// Cut the cheapest edge of the optimal group; the answer must change.
	if code := del(t, ts, "/friendships", FriendshipRequest{A: ids["v2"], B: ids["v4"]}); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	var after GroupResponse
	if code := post(t, ts, "/query/group", QueryRequest{Initiator: ids["v7"], P: 4, S: 1, K: 1}, &after); code != http.StatusOK {
		t.Fatalf("query after delete: status %d", code)
	}
	if after.TotalDistance <= before.TotalDistance {
		t.Errorf("distance %v after removing an optimal edge, want > %v", after.TotalDistance, before.TotalDistance)
	}
	// Removing it again is 404: the friendship no longer exists.
	if code := del(t, ts, "/friendships", FriendshipRequest{A: ids["v2"], B: ids["v4"]}); code != http.StatusNotFound {
		t.Errorf("double delete: status %d, want 404", code)
	}
}

// TestDurableServiceRestart drives the journaled deployment end to end:
// populate over HTTP, stop, restart from the same directory, and check
// /status and /query/activity answer identically.
func TestDurableServiceRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := journal.Open(dir, journal.Options{HorizonSlots: 7})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewWithStore(st))
	ids := buildFigure3(t, ts)

	var plan1 PlanResponse
	if code := post(t, ts, "/query/activity",
		QueryRequest{Initiator: ids["v7"], P: 4, S: 1, K: 1, M: 3}, &plan1); code != http.StatusOK {
		t.Fatalf("activity: status %d", code)
	}
	var status1 StatusResponse
	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&status1); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if status1.Journal == nil {
		t.Fatal("durable server must report journal stats")
	}
	if status1.Journal.LastSeq == 0 || status1.Journal.DurableSeq != status1.Journal.LastSeq {
		t.Fatalf("journal stats implausible: %+v", *status1.Journal)
	}
	ts.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := journal.Open(dir, journal.Options{HorizonSlots: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ts2 := httptest.NewServer(NewWithStore(st2))
	defer ts2.Close()

	var status2 StatusResponse
	resp, err = http.Get(ts2.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&status2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if status2.People != status1.People || status2.Friendships != status1.Friendships {
		t.Fatalf("restart lost population: %+v vs %+v", status2, status1)
	}
	var plan2 PlanResponse
	if code := post(t, ts2, "/query/activity",
		QueryRequest{Initiator: ids["v7"], P: 4, S: 1, K: 1, M: 3}, &plan2); code != http.StatusOK {
		t.Fatalf("activity after restart: status %d", code)
	}
	if plan2.TotalDistance != plan1.TotalDistance || plan2.WindowStart != plan1.WindowStart || plan2.WindowEnd != plan1.WindowEnd {
		t.Fatalf("restart changed the plan: %+v vs %+v", plan2, plan1)
	}
	// And the restarted service still accepts durable writes.
	var add AddPersonResponse
	if code := post(t, ts2, "/people", AddPersonRequest{Name: "newcomer"}, &add); code != http.StatusOK {
		t.Fatalf("post-restart add: status %d", code)
	}
}

func TestConcurrentQueries(t *testing.T) {
	// Concurrent read-queries against a dataset-backed service must be
	// race-free (run under -race in CI).
	d := dataset.Real194(7, 2)
	srv := NewWithPlanner(stgq.FromDataset(d))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	q := d.PickInitiator(75)

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(QueryRequest{Initiator: q, P: 3 + i%3, S: 1, K: 2, M: 2 + i%3})
			resp, err := http.Post(ts.URL+"/query/activity", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusUnprocessableEntity {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

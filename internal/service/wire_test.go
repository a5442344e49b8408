package service

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestQueryRoutesWire pins the exact status and body of every query
// endpoint over the Figure 3 population with known locations: a success,
// an infeasible query (422), an unknown initiator (404), an unknown field
// and a malformed body (400), and the purely geo-social answer, whose
// window fields are omitted.
func TestQueryRoutesWire(t *testing.T) {
	ts := httptest.NewServer(New(7))
	defer ts.Close()
	ids := buildFigure3(t, ts)
	// v7 stands at the activity point; v6 and v8 stand outside a 500 m
	// radius, so the geo answers differ from the social ones.
	for name, at := range map[string][2]float64{
		"v2": {3, 4}, "v3": {0, 10}, "v4": {6, 8}, "v6": {900, 0}, "v7": {0, 0}, "v8": {0, -700},
	} {
		path := fmt.Sprintf("/people/%d/location", ids[name])
		if code := post(t, ts, path, LocationRequest{X: at[0], Y: at[1]}, nil); code != http.StatusOK {
			t.Fatalf("locate %s: status %d", name, code)
		}
	}
	const (
		malformed  = `{"error":"bad request: invalid character 'n' looking for beginning of object key string"}`
		unknown    = `{"error":"bad request: json: unknown field \"bogus\""}`
		notFound   = `{"error":"stgq: person not found: person 99"}`
		infeasible = `{"error":"core: no feasible group"}`
		group62    = `{"members":[{"id":4,"name":"v7","distance":0},{"id":0,"name":"v2","distance":17},{"id":1,"name":"v3","distance":18},{"id":2,"name":"v4","distance":27}],"totalDistance":62}`
	)
	for _, tc := range []struct {
		path, body string
		status     int
		want       string
	}{
		{"/query/group", `{"initiator":4,"p":4,"s":1,"k":1}`, http.StatusOK, group62},
		{"/query/group", `{"initiator":4,"p":6,"s":1,"k":0}`, http.StatusUnprocessableEntity, infeasible},
		{"/query/group", `{"initiator":99,"p":4,"s":1,"k":1}`, http.StatusNotFound, notFound},
		{"/query/group", `{"initiator":4,"p":4,"s":1,"k":1,"bogus":1}`, http.StatusBadRequest, unknown},
		{"/query/group", `{nope`, http.StatusBadRequest, malformed},

		{"/query/activity", `{"initiator":4,"p":4,"s":1,"k":1,"m":3}`, http.StatusOK, `{"members":[{"id":4,"name":"v7","distance":0},{"id":0,"name":"v2","distance":17},{"id":3,"name":"v6","distance":23},{"id":2,"name":"v4","distance":27}],"totalDistance":67,"windowStart":1,"windowEnd":5,"window":"day1 00:30 – day1 02:00"}`},
		{"/query/activity", `{"initiator":4,"p":6,"s":1,"k":0,"m":3}`, http.StatusUnprocessableEntity, infeasible},
		{"/query/activity", `{"initiator":99,"p":4,"s":1,"k":1,"m":3}`, http.StatusNotFound, notFound},
		{"/query/activity", `{"initiator":4,"p":4,"s":1,"k":1,"m":3,"bogus":1}`, http.StatusBadRequest, unknown},
		{"/query/activity", `{nope`, http.StatusBadRequest, malformed},

		{"/query/gsgselect", `{"initiator":4,"p":4,"s":1,"k":1,"x":0,"y":0,"radius":500}`, http.StatusOK, `{"members":[{"id":4,"name":"v7","distance":0},{"id":0,"name":"v2","distance":17},{"id":1,"name":"v3","distance":18},{"id":2,"name":"v4","distance":27}],"totalDistance":87}`},
		{"/query/gsgselect", `{"initiator":4,"p":4,"s":1,"k":2,"m":2,"x":0,"y":0,"radius":500}`, http.StatusOK, `{"members":[{"id":4,"name":"v7","distance":0},{"id":0,"name":"v2","distance":17},{"id":1,"name":"v3","distance":18},{"id":2,"name":"v4","distance":27}],"totalDistance":87,"windowStart":1,"windowEnd":3,"window":"day1 00:30 – day1 01:00"}`},
		{"/query/gsgselect", `{"initiator":4,"p":5,"s":1,"k":1,"x":0,"y":0,"radius":500}`, http.StatusUnprocessableEntity, infeasible},
		{"/query/gsgselect", `{"initiator":99,"p":4,"s":1,"k":1,"x":0,"y":0,"radius":500}`, http.StatusNotFound, notFound},
		{"/query/gsgselect", `{"initiator":4,"p":4,"s":1,"k":1,"x":0,"y":0,"radius":500,"bogus":1}`, http.StatusBadRequest, unknown},
		{"/query/gsgselect", `{nope`, http.StatusBadRequest, malformed},

		{"/query/manual", `{"initiator":4,"p":4,"s":1,"m":3}`, http.StatusOK, `{"members":[{"id":4,"name":"v7","distance":0},{"id":0,"name":"v2","distance":17},{"id":3,"name":"v6","distance":23},{"id":2,"name":"v4","distance":27}],"totalDistance":67,"windowStart":1,"windowEnd":4,"observedK":0}`},
		{"/query/manual", `{"initiator":4,"p":6,"s":1,"m":3}`, http.StatusUnprocessableEntity, `{"error":"coordinate: manual coordination failed to assemble a group"}`},
		{"/query/manual", `{"initiator":99,"p":4,"s":1,"m":3}`, http.StatusNotFound, notFound},
		{"/query/manual", `{"initiator":4,"p":4,"s":1,"m":3,"bogus":1}`, http.StatusBadRequest, unknown},
		{"/query/manual", `{nope`, http.StatusBadRequest, malformed},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		// Error bodies are written by a json.Encoder, which ends them with
		// a newline; answers are not.
		want := tc.want
		if tc.status != http.StatusOK {
			want += "\n"
		}
		if got := string(body); resp.StatusCode != tc.status || got != want {
			t.Errorf("%s %s: %d %q, want %d %q", tc.path, tc.body, resp.StatusCode, got, tc.status, want)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q", tc.path, tc.body, ct)
		}
	}
}

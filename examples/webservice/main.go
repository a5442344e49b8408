// Webservice demonstrates the HTTP deployment of the planner — the
// "value-added service" the paper's conclusion describes.
//
// Part 1 starts the service in-process on a loopback listener,
// provisions a small social network over the REST API, and plans an
// activity as a client would.
//
// Part 2 spins up a replicated cluster — a durable leader, a follower,
// and the stgqgw gateway in front — and walks the read-your-writes flow
// from docs/consistency.md: mutate through the gateway, capture the
// X-STGQ-Write-Seq floor from the response, and query with it (and with
// a sticky X-STGQ-Session) so the answer is guaranteed to reflect the
// write even when a follower would otherwise serve stale state.
//
// Run with:
//
//	go run ./examples/webservice
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/gateway"
	"repro/internal/journal"
	"repro/internal/replica"
	"repro/internal/service"
)

// serve mounts a handler on an ephemeral loopback port and returns its
// base URL plus the server for shutdown.
func serve(h http.Handler) (string, *http.Server) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln) //nolint:errcheck
	return "http://" + ln.Addr().String(), srv
}

// request issues one JSON request with optional headers, decodes into
// `into` when non-nil, and returns the response for header inspection.
func request(method, url string, body, into any, hdr map[string]string) *http.Response {
	var buf []byte
	if body != nil {
		var err error
		if buf, err = json.Marshal(body); err != nil {
			log.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(buf))
	if err != nil {
		log.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e map[string]any
		json.NewDecoder(resp.Body).Decode(&e) //nolint:errcheck
		log.Fatalf("%s %s: %d %v", method, url, resp.StatusCode, e)
	}
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			log.Fatal(err)
		}
	}
	return resp
}

func main() {
	singleNode()
	replicatedCluster()
}

// singleNode is part 1: the plain HTTP service, one in-memory server.
func singleNode() {
	fmt.Println("== Part 1: single planner service ==")
	base, srv := serve(service.New(48))
	defer srv.Close()
	fmt.Println("planner service listening on", base)

	post := func(path string, body, into any) { request(http.MethodPost, base+path, body, into, nil) }

	// Provision a small team.
	names := []string{"maya", "noor", "oscar", "priya", "quinn"}
	ids := map[string]int{}
	for _, n := range names {
		var resp service.AddPersonResponse
		post("/people", service.AddPersonRequest{Name: n}, &resp)
		ids[n] = resp.ID
	}
	friendships := []struct {
		a, b string
		d    float64
	}{
		{"maya", "noor", 3}, {"maya", "oscar", 5}, {"maya", "priya", 8},
		{"noor", "oscar", 2}, {"noor", "priya", 6}, {"oscar", "priya", 4},
		{"priya", "quinn", 3},
	}
	for _, f := range friendships {
		post("/friendships", service.FriendshipRequest{A: ids[f.a], B: ids[f.b], Distance: f.d}, nil)
	}
	// Everyone free in the evening, with a few conflicts.
	for _, n := range names {
		post("/availability", service.AvailabilityRequest{Person: ids[n], From: 36, To: 46, Available: true}, nil)
	}
	post("/availability", service.AvailabilityRequest{Person: ids["oscar"], From: 36, To: 40, Available: false}, nil)
	post("/availability", service.AvailabilityRequest{Person: ids["quinn"], From: 42, To: 46, Available: false}, nil)

	// Plan a two-hour get-together for four.
	var plan service.PlanResponse
	post("/query/activity", service.QueryRequest{
		Initiator: ids["maya"], P: 4, S: 2, K: 1, M: 4,
	}, &plan)

	fmt.Printf("plan: total distance %g, window %s\n", plan.TotalDistance, plan.WindowHuman)
	for _, m := range plan.Members {
		fmt.Printf("  %-8s distance %g\n", m.Name, m.Distance)
	}

	// Compare with manual coordination.
	var manual service.ManualResponse
	post("/query/manual", service.QueryRequest{Initiator: ids["maya"], P: 4, S: 2, M: 4}, &manual)
	fmt.Printf("manual coordination: distance %g with observed k=%d\n\n",
		manual.TotalDistance, manual.ObservedK)
}

// replicatedCluster is part 2: leader + follower + gateway, and the
// read-your-writes flow a real interactive client uses.
func replicatedCluster() {
	fmt.Println("== Part 2: replicated cluster with read-your-writes ==")

	// Leader: a durable store in a scratch dir.
	ldir, err := os.MkdirTemp("", "stgq-leader-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(ldir)
	st, err := journal.Open(ldir, journal.Options{HorizonSlots: 48})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	leaderURL, leaderSrv := serve(service.NewWithStore(st))
	defer leaderSrv.Close()

	// Follower: replicates the leader's journal into its own dir.
	fdir, err := os.MkdirTemp("", "stgq-follower-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(fdir)
	fo, err := replica.NewFollower(replica.Config{LeaderURL: leaderURL, Dir: fdir})
	if err != nil {
		log.Fatal(err)
	}
	defer fo.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go fo.Run(ctx)
	followerURL, followerSrv := serve(service.NewFollower(fo, leaderURL))
	defer followerSrv.Close()

	// The gateway fronts both; clients only ever see this URL.
	gw, err := gateway.New(gateway.Config{
		Backends:      []string{leaderURL, followerURL},
		ProbeInterval: 50 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	go gw.Run(ctx)
	gwURL, gwSrv := serve(gw)
	defer gwSrv.Close()
	for gw.Status().Leader == "" {
		time.Sleep(10 * time.Millisecond) // wait for the first probe round
	}
	fmt.Println("gateway fronting", leaderURL, "and", followerURL, "on", gwURL)

	// An interactive planning session: one stable session id on every
	// request is all a client needs for read-your-writes.
	session := map[string]string{gateway.SessionHeader: "demo-session"}

	var ana, ben, cam service.AddPersonResponse
	request(http.MethodPost, gwURL+"/people", service.AddPersonRequest{Name: "ana"}, &ana, session)
	request(http.MethodPost, gwURL+"/people", service.AddPersonRequest{Name: "ben"}, &ben, session)
	resp := request(http.MethodPost, gwURL+"/people", service.AddPersonRequest{Name: "cam"}, &cam, session)
	for _, f := range []struct{ a, b int }{{ana.ID, ben.ID}, {ana.ID, cam.ID}, {ben.ID, cam.ID}} {
		resp = request(http.MethodPost, gwURL+"/friendships",
			service.FriendshipRequest{A: f.a, B: f.b, Distance: 2}, nil, session)
	}

	// Every mutation ack carries the durable sequence number of the write.
	writeSeq := resp.Header.Get(service.WriteSeqHeader)
	fmt.Printf("last write acknowledged at %s: %s\n", service.WriteSeqHeader, writeSeq)

	// Read right back — the follower may not have applied the writes yet,
	// but the session floor routes/barriers the query so it MUST see them.
	var group service.GroupResponse
	resp = request(http.MethodPost, gwURL+"/query/group",
		service.QueryRequest{Initiator: ana.ID, P: 3, S: 1, K: 0}, &group, session)
	fmt.Printf("session read served by %s: group of %d, total distance %g\n",
		resp.Header.Get(gateway.BackendHeader), len(group.Members), group.TotalDistance)

	// The stateless variant: echo the captured write seq instead of a
	// session — works across gateway restarts and multiple gateways.
	resp = request(http.MethodPost, gwURL+"/query/group",
		service.QueryRequest{Initiator: ana.ID, P: 3, S: 1, K: 0}, &group,
		map[string]string{service.WriteSeqHeader: writeSeq})
	fmt.Printf("write-seq echo read served by %s: group of %d\n",
		resp.Header.Get(gateway.BackendHeader), len(group.Members))

	// The pool view, as an operator would see it.
	var status gateway.StatusResponse
	request(http.MethodGet, gwURL+"/gateway/status", nil, &status, nil)
	fmt.Printf("gateway status: leader=%s sessions=%d rywReads=%d\n",
		status.Leader, status.Sessions, status.RYWReads)
}

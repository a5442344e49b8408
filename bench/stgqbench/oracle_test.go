package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	stgq "repro"
	"repro/internal/dataset"
)

// fakePop is a hand-built population: undirected weighted edges, busy
// (person, slot) pairs on an otherwise free calendar, and locations.
type fakePop struct {
	edges map[[2]int]float64
	busy  map[[2]int]bool
	loc   map[int][2]float64
}

func (p *fakePop) hasEdge(u, v int) bool {
	_, ok := p.edges[[2]int{min(u, v), max(u, v)}]
	return ok
}

func (p *fakePop) neighbors(v int, fn func(u int, dist float64)) {
	for e, d := range p.edges {
		switch v {
		case e[0]:
			fn(e[1], d)
		case e[1]:
			fn(e[0], d)
		}
	}
}

func (p *fakePop) free(u, slot int) bool { return slot >= 0 && slot < 48 && !p.busy[[2]int{u, slot}] }

func (p *fakePop) location(u int) (float64, float64, bool) {
	xy, ok := p.loc[u]
	return xy[0], xy[1], ok
}

// A path 0–2–3–4 with a triangle 0–1–2 on its head: from 0, vertex 3 is
// two edges away (distance 3) and vertex 4 three.
func pathWithTriangle() *fakePop {
	return &fakePop{
		edges: map[[2]int]float64{{0, 1}: 1, {0, 2}: 2, {1, 2}: 1, {2, 3}: 1, {3, 4}: 1},
		busy:  map[[2]int]bool{{2, 9}: true},
		loc:   map[int][2]float64{0: {0, 0}, 1: {300, 400}, 2: {0, 1000}, 3: {5000, 0}},
	}
}

type member struct {
	id   int
	dist float64
}

func body(total float64, ws, we int, ms ...member) []byte {
	var parts []string
	for _, m := range ms {
		parts = append(parts, fmt.Sprintf(`{"id":%d,"distance":%g}`, m.id, m.dist))
	}
	return []byte(fmt.Sprintf(`{"members":[%s],"totalDistance":%g,"windowStart":%d,"windowEnd":%d}`, strings.Join(parts, ","), total, ws, we))
}

func TestValidatorCatchesEachViolatedConstraint(t *testing.T) {
	pop := pathWithTriangle()
	stg := &op{Class: clsSTG, Initiator: 0, Shape: shape{P: 3, K: 1, M: 2}}
	gsg := &op{Class: clsGSG, Initiator: 0, Shape: shape{P: 3, K: 1}, X: 0, Y: 0, R: 1200}
	m0, m1, m2, m3 := member{0, 0}, member{1, 1}, member{2, 2}, member{3, 3}
	for _, tc := range []struct {
		name string
		o    *op
		body []byte
		want string // substring of the error; "" means valid
	}{
		{"valid temporal answer", stg, body(3, 4, 6, m0, m1, m2), ""},
		{"valid with k strangers", stg, body(5, 4, 6, m0, m2, m3), ""}, // 0 and 3 are strangers: one each, k=1
		{"valid geo answer", gsg, body(3+500+1000, 0, 0, m0, m1, m2), ""},
		{"size: one member short", stg, body(1, 4, 6, m0, m1), "size"},
		{"size: a member twice", stg, body(2, 4, 6, m0, m1, m1), "size"},
		{"size: initiator left out", stg, body(6, 4, 6, m1, m2, m3), "size"},
		{"acquaintance: two strangers with k=1", stg, body(4, 4, 6, m0, m1, m3), "acquaintance"},
		{"radius: three edges away", stg, body(6, 4, 6, m0, m2, member{4, 4}), "radius"},
		{"radius: distance understated", stg, body(2.5, 4, 6, m0, m1, member{2, 1.5}), "radius"},
		{"window: shorter than m", stg, body(3, 4, 5, m0, m1, m2), "window"},
		{"window: a member is busy in it", stg, body(3, 8, 10, m0, m1, m2), "window"},
		{"window: beyond the horizon", stg, body(3, 47, 49, m0, m1, m2), "window"},
		{"spatial: member outside the radius", gsg, body(5+1000+5000, 0, 0, m0, m2, m3), "spatial"},
		{"spatial: member without a location", &op{Class: clsGSG, Initiator: 3, Shape: shape{P: 2, K: 1}, X: 5000, Y: 0, R: 100}, body(1, 0, 0, member{3, 0}, member{4, 1}), "spatial"},
		{"total: not the sum of its parts", stg, body(2.9, 4, 6, m0, m1, m2), "total"},
		{"total: geo answer without the spatial term", gsg, body(3, 0, 0, m0, m1, m2), "total"},
		{"body: not JSON", stg, []byte("<html>"), "body"},
	} {
		err := validateAnswer(pop, tc.o, tc.body)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.want != "" && !strings.HasPrefix(err.Error(), tc.want):
			t.Errorf("%s: rejected for the wrong reason: %v", tc.name, err)
		}
	}
}

func TestHopDistancesAreBoundedByEdgesNotByDistance(t *testing.T) {
	// 0–1–2 costs 2 in two edges; the direct edge 0–2 costs 5. With s=1
	// only the direct edge counts.
	pop := &fakePop{edges: map[[2]int]float64{{0, 1}: 1, {1, 2}: 1, {0, 2}: 5, {2, 3}: 1}}
	if d := hopDistances(pop, 0, 1); d[2] != 5 || len(d) != 3 {
		t.Errorf("s=1: %v", d)
	}
	if d := hopDistances(pop, 0, 2); d[2] != 2 || d[3] != 6 {
		t.Errorf("s=2: %v, want 2 at distance 2 and 3 at distance 6 (5+1; 1+1+1 needs three edges)", d)
	}
}

// planJSON renders a planner result the way the service does.
func planJSON(members []stgq.Member, total float64, w stgq.TimeWindow) []byte {
	var g groupDoc
	for _, m := range members {
		g.Members = append(g.Members, struct {
			ID       int     `json:"id"`
			Distance float64 `json:"distance"`
		}{int(m.ID), m.Distance})
	}
	g.TotalDistance, g.WindowStart, g.WindowEnd = total, w.Start, w.End
	b, _ := json.Marshal(g)
	return b
}

// On a generated 200-person population: every answer of an indexed
// planner (what the servers run) passes the structural validator and
// agrees with the plain mirror; a tampered verdict or optimum does not.
func TestMirrorComparisonOn200People(t *testing.T) {
	w := smallWorkload("read_cold_100k", 200)
	d := dataset.Synthetic(w.People, 3, w.Days)
	server := stgq.FromDataset(dataset.Synthetic(w.People, 3, w.Days))
	server.EnableIndex()
	mir := newMirror(d, false)
	ops := flatten(generate(w, 1, 20, d.Locations)) // 120 distinct initiators of the 200
	feasible, infeasible := 0, 0
	for i := range ops {
		o := &ops[i]
		sg := stgq.SGQuery{Initiator: stgq.PersonID(o.Initiator), P: o.Shape.P, S: socialRadius, K: o.Shape.K}
		var (
			r   result
			err error
		)
		switch o.Class {
		case clsSG:
			var res *stgq.GroupResult
			if res, err = server.FindGroup(sg); err == nil {
				r.Body = planJSON(res.Members, res.TotalDistance, stgq.TimeWindow{})
			}
		case clsSTG:
			var res *stgq.PlanResult
			if res, err = server.PlanActivity(stgq.STGQuery{SGQuery: sg, M: o.Shape.M}); err == nil {
				r.Body = planJSON(res.Members, res.TotalDistance, res.Window)
			}
		case clsGSG:
			var res *stgq.GeoPlanResult
			if res, err = server.PlanGeoActivity(stgq.GSGQuery{SGQuery: sg, X: o.X, Y: o.Y, Radius: o.R}); err == nil {
				r.Body = planJSON(res.Members, res.TotalDistance, stgq.TimeWindow{})
			}
		}
		r.Status = http.StatusOK
		if err != nil {
			if !isInfeasible(err) {
				t.Fatalf("op %d: %v", i, err)
			}
			r.Status, r.Body = http.StatusUnprocessableEntity, []byte(`{"error":"no feasible group"}`)
		}
		if err := compareWithMirror(mir, o, &r); err != nil {
			t.Errorf("op %d (%s initiator %d): honest answer rejected: %v", i, o.Class, o.Initiator, err)
		}
		if r.Status != http.StatusOK {
			infeasible++
			lie := result{Status: http.StatusOK, Body: body(1, 0, 0)}
			if compareWithMirror(mir, o, &lie) == nil {
				t.Errorf("op %d: a 200 for an infeasible query was accepted", i)
			}
			continue
		}
		feasible++
		if err := validateAnswer(world{d}, o, r.Body); err != nil {
			t.Errorf("op %d (%s initiator %d): real answer fails the validator: %v\n%s", i, o.Class, o.Initiator, err, r.Body)
		}
		var g groupDoc
		_ = json.Unmarshal(r.Body, &g)
		g.TotalDistance += 0.5
		worse, _ := json.Marshal(g)
		if compareWithMirror(mir, o, &result{Status: http.StatusOK, Body: worse}) == nil {
			t.Errorf("op %d: a worse optimum was accepted", i)
		}
		if compareWithMirror(mir, o, &result{Status: http.StatusUnprocessableEntity}) == nil {
			t.Errorf("op %d: a 422 for a feasible query was accepted", i)
		}
	}
	if feasible < 10 || infeasible < 1 {
		t.Errorf("the sample is one-sided: %d feasible, %d infeasible", feasible, infeasible)
	}
	if err := compareWithMirror(mir, &ops[0], &result{Status: http.StatusNotFound}); err == nil {
		t.Error("a 404 was accepted as an answer")
	}
}

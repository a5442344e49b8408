package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
)

// groupDoc is the JSON body of a 200 from any query endpoint.
type groupDoc struct {
	Members []struct {
		ID       int     `json:"id"`
		Distance float64 `json:"distance"`
	} `json:"members"`
	TotalDistance float64 `json:"totalDistance"`
	WindowStart   int     `json:"windowStart"`
	WindowEnd     int     `json:"windowEnd"`
}

// population is what the structural validator needs to know about the
// people a query ran over. world implements it for a generated dataset;
// the tests implement it by hand.
type population interface {
	hasEdge(u, v int) bool
	neighbors(v int, fn func(u int, dist float64))
	free(u, slot int) bool
	location(u int) (x, y float64, ok bool)
}

// distTolerance absorbs the difference between summing distances in the
// search's order and in the validator's.
const distTolerance = 1e-6

func closeEnough(a, b float64) bool {
	return math.Abs(a-b) <= distTolerance*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// hopDistances returns, for every vertex within s edges of q, the least
// total distance over paths of at most s edges (the paper's s-bounded
// social distance).
func hopDistances(pop population, q, s int) map[int]float64 {
	best := map[int]float64{q: 0}
	frontier := map[int]float64{q: 0}
	for hop := 0; hop < s; hop++ {
		next := map[int]float64{}
		for v, dv := range frontier {
			pop.neighbors(v, func(u int, d float64) {
				nd := dv + d
				if old, ok := best[u]; ok && old <= nd {
					return
				}
				if old, ok := next[u]; ok && old <= nd {
					return
				}
				next[u] = nd
			})
		}
		for u, d := range next {
			best[u] = d
		}
		frontier = next
	}
	return best
}

// validateAnswer checks a 200 body against the constraints of the query
// that produced it: size p with the initiator, every member within s
// edges and at its s-bounded distance, at most k unacquainted co-members
// each, a common free window of at least m slots, every member inside
// the spatial radius, and a total that is the sum of its parts.
func validateAnswer(pop population, o *op, body []byte) error {
	var g groupDoc
	if err := json.Unmarshal(body, &g); err != nil {
		return fmt.Errorf("body: %w", err)
	}
	if len(g.Members) != o.Shape.P {
		return fmt.Errorf("size: %d members, p=%d", len(g.Members), o.Shape.P)
	}
	seen := map[int]bool{}
	for _, m := range g.Members {
		if seen[m.ID] {
			return fmt.Errorf("size: member %d listed twice", m.ID)
		}
		seen[m.ID] = true
	}
	if !seen[o.Initiator] {
		return fmt.Errorf("size: initiator %d is not a member", o.Initiator)
	}
	reach := hopDistances(pop, o.Initiator, socialRadius)
	total := 0.0
	for _, m := range g.Members {
		d, ok := reach[m.ID]
		if !ok {
			return fmt.Errorf("radius: member %d is more than s=%d edges from initiator %d", m.ID, socialRadius, o.Initiator)
		}
		if !closeEnough(d, m.Distance) {
			return fmt.Errorf("radius: member %d reported at distance %g, its %d-edge distance is %g", m.ID, m.Distance, socialRadius, d)
		}
		total += d
	}
	for _, m := range g.Members {
		strangers := 0
		for _, other := range g.Members {
			if other.ID != m.ID && !pop.hasEdge(m.ID, other.ID) {
				strangers++
			}
		}
		if strangers > o.Shape.K {
			return fmt.Errorf("acquaintance: member %d does not know %d co-members, k=%d", m.ID, strangers, o.Shape.K)
		}
	}
	if o.Shape.M > 0 {
		if g.WindowEnd-g.WindowStart < o.Shape.M {
			return fmt.Errorf("window: [%d,%d) is shorter than m=%d", g.WindowStart, g.WindowEnd, o.Shape.M)
		}
		for _, m := range g.Members {
			for t := g.WindowStart; t < g.WindowEnd; t++ {
				if !pop.free(m.ID, t) {
					return fmt.Errorf("window: member %d is busy at slot %d of [%d,%d)", m.ID, t, g.WindowStart, g.WindowEnd)
				}
			}
		}
	}
	if o.Class == clsGSG {
		for _, m := range g.Members {
			x, y, ok := pop.location(m.ID)
			if !ok {
				return fmt.Errorf("spatial: member %d has no location", m.ID)
			}
			d := math.Hypot(x-o.X, y-o.Y)
			if d > o.R*(1+distTolerance) {
				return fmt.Errorf("spatial: member %d is %.1f m from the activity point, radius %g", m.ID, d, o.R)
			}
			if m.ID != o.Initiator {
				total += d // the initiator's own spatial term is excluded from the objective
			}
		}
	}
	if !closeEnough(total, g.TotalDistance) {
		return fmt.Errorf("total: reported %g, members sum to %g", g.TotalDistance, total)
	}
	return nil
}

// verdictOf reads a query response as the oracle's answer type.
func verdictOf(r *result) (answer, error) {
	switch r.Status {
	case http.StatusUnprocessableEntity:
		return answer{}, nil
	case http.StatusOK:
		var g groupDoc
		if err := json.Unmarshal(r.Body, &g); err != nil {
			return answer{}, fmt.Errorf("body: %w", err)
		}
		return answer{Feasible: true, Total: g.TotalDistance}, nil
	}
	return answer{}, fmt.Errorf("status %d", r.Status)
}

// compareWithMirror checks one server response against the mirror
// planner: same feasibility verdict, same objective value.
func compareWithMirror(m *mirror, o *op, r *result) error {
	got, err := verdictOf(r)
	if err != nil {
		return err
	}
	want, err := m.query(o)
	if err != nil {
		return err
	}
	if got.Feasible != want.Feasible {
		return fmt.Errorf("verdict: server feasible=%t, mirror feasible=%t", got.Feasible, want.Feasible)
	}
	if got.Feasible && !closeEnough(got.Total, want.Total) {
		return fmt.Errorf("optimum: server totalDistance %g, mirror %g", got.Total, want.Total)
	}
	return nil
}

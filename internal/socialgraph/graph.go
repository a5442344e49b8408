// Package socialgraph implements the weighted social graph substrate of the
// paper: an undirected graph whose vertices are people and whose edge weights
// are social distances (smaller = closer), together with the radius graph
// extraction of Section 3.2.1 — the dynamic program for the i-edge minimum
// distance (Definition 1) that keeps exactly the candidate attendees
// reachable from the initiator within s edges.
//
// Definition 1 is hop-bounded: d^i(v,q) is the cheapest path of at most i
// edges, computed from the d^{i-1} values alone. Ball runs that recurrence
// over a frontier — each round relaxes only the edges of vertices improved
// in the round before, so a query pays for the few hundred vertices of its
// ball rather than for the population — and keeps the recurrence's round
// barrier: a round never reads a distance written in the same round. That
// is what separates it from Dijkstra's algorithm, which would find cheaper
// paths of more than s edges and admit people the query's social radius
// excludes. ExtractRadiusGraph runs Ball and builds the feasible graph
// over its result.
package socialgraph

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/bitset"
)

// Inf is the distance assigned to vertices unreachable within the radius.
var Inf = math.Inf(1)

var (
	// ErrVertexNotFound reports a lookup of an unknown vertex.
	ErrVertexNotFound = errors.New("socialgraph: vertex not found")
	// ErrEdgeNotFound reports removal of an edge that does not exist.
	ErrEdgeNotFound = errors.New("socialgraph: edge not found")
	// ErrSelfLoop reports an attempt to connect a vertex to itself.
	ErrSelfLoop = errors.New("socialgraph: self loops are not allowed")
	// ErrNegativeDistance reports a non-positive social distance.
	ErrNegativeDistance = errors.New("socialgraph: social distance must be positive")
)

type edge struct {
	to   int
	dist float64
}

// Graph is a mutable, undirected, weighted social graph. Vertices are
// addressed by dense integer ids assigned by AddVertex; an optional label per
// vertex supports name-based lookup.
type Graph struct {
	adj    [][]edge
	labels []string
	byName map[string]int
}

// New returns an empty Graph.
func New() *Graph {
	return &Graph{byName: make(map[string]int)}
}

// AddVertex adds a vertex with the given label (may be empty) and returns its
// id. Duplicate non-empty labels are rejected.
func (g *Graph) AddVertex(label string) (int, error) {
	if label != "" {
		if _, dup := g.byName[label]; dup {
			return 0, fmt.Errorf("socialgraph: duplicate vertex label %q", label)
		}
	}
	id := len(g.adj)
	g.adj = append(g.adj, nil)
	g.labels = append(g.labels, label)
	if label != "" {
		g.byName[label] = id
	}
	return id, nil
}

// MustAddVertex is AddVertex for construction code with known-good labels.
func (g *Graph) MustAddVertex(label string) int {
	id, err := g.AddVertex(label)
	if err != nil {
		panic(err)
	}
	return id
}

// AddVertices adds n unlabeled vertices and returns the id of the first.
func (g *Graph) AddVertices(n int) int {
	first := len(g.adj)
	for i := 0; i < n; i++ {
		g.adj = append(g.adj, nil)
		g.labels = append(g.labels, "")
	}
	return first
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.adj) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// Label returns the label of vertex v ("" if unlabeled).
func (g *Graph) Label(v int) string {
	if v < 0 || v >= len(g.labels) {
		return ""
	}
	return g.labels[v]
}

// VertexByLabel returns the id of the vertex with the given label.
func (g *Graph) VertexByLabel(label string) (int, error) {
	id, ok := g.byName[label]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrVertexNotFound, label)
	}
	return id, nil
}

// HasEdge reports whether u and v are adjacent.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) {
		return false
	}
	for _, e := range g.adj[u] {
		if e.to == v {
			return true
		}
	}
	return false
}

// EdgeDistance returns the social distance of edge (u,v), or ok=false when
// the edge does not exist.
func (g *Graph) EdgeDistance(u, v int) (float64, bool) {
	if u < 0 || u >= len(g.adj) {
		return 0, false
	}
	for _, e := range g.adj[u] {
		if e.to == v {
			return e.dist, true
		}
	}
	return 0, false
}

// AddEdge connects u and v with the given social distance. Adding an edge
// that already exists keeps the smaller distance.
func (g *Graph) AddEdge(u, v int, dist float64) error {
	if u < 0 || u >= len(g.adj) {
		return fmt.Errorf("%w: id %d", ErrVertexNotFound, u)
	}
	if v < 0 || v >= len(g.adj) {
		return fmt.Errorf("%w: id %d", ErrVertexNotFound, v)
	}
	if u == v {
		return ErrSelfLoop
	}
	if dist <= 0 || math.IsNaN(dist) || math.IsInf(dist, 0) {
		return fmt.Errorf("%w: %v", ErrNegativeDistance, dist)
	}
	// An existing edge is in both lists: look in the shorter.
	a, b := u, v
	if len(g.adj[v]) < len(g.adj[u]) {
		a, b = v, u
	}
	for i := range g.adj[a] {
		if g.adj[a][i].to == b {
			if dist < g.adj[a][i].dist {
				g.adj[a][i].dist = dist
				for j := range g.adj[b] {
					if g.adj[b][j].to == a {
						g.adj[b][j].dist = dist
					}
				}
			}
			return nil
		}
	}
	g.adj[u] = append(g.adj[u], edge{v, dist})
	g.adj[v] = append(g.adj[v], edge{u, dist})
	return nil
}

// RemoveEdge disconnects u and v. Removing an edge that does not exist
// returns ErrEdgeNotFound.
func (g *Graph) RemoveEdge(u, v int) error {
	if u < 0 || u >= len(g.adj) {
		return fmt.Errorf("%w: id %d", ErrVertexNotFound, u)
	}
	if v < 0 || v >= len(g.adj) {
		return fmt.Errorf("%w: id %d", ErrVertexNotFound, v)
	}
	if !g.dropHalfEdge(u, v) {
		return fmt.Errorf("%w: (%d,%d)", ErrEdgeNotFound, u, v)
	}
	g.dropHalfEdge(v, u)
	return nil
}

func (g *Graph) dropHalfEdge(u, v int) bool {
	for i := range g.adj[u] {
		if g.adj[u][i].to == v {
			g.adj[u] = append(g.adj[u][:i], g.adj[u][i+1:]...)
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the graph. Mutating the copy (or the
// original) does not affect the other; radius graphs extracted earlier
// remain valid since they do not reference the Graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		adj:    make([][]edge, len(g.adj)),
		labels: append([]string(nil), g.labels...),
		byName: make(map[string]int, len(g.byName)),
	}
	for v, a := range g.adj {
		c.adj[v] = append([]edge(nil), a...)
	}
	for name, id := range g.byName {
		c.byName[name] = id
	}
	return c
}

// MustAddEdge is AddEdge that panics on error, for construction code.
func (g *Graph) MustAddEdge(u, v int, dist float64) {
	if err := g.AddEdge(u, v, dist); err != nil {
		panic(err)
	}
}

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int {
	if v < 0 || v >= len(g.adj) {
		return 0
	}
	return len(g.adj[v])
}

// Neighbor returns the i-th neighbor of v, in the order Neighbors visits
// them; 0 ≤ i < Degree(v).
func (g *Graph) Neighbor(v, i int) int { return g.adj[v][i].to }

// Neighbors calls fn for every neighbor of v with the edge distance.
func (g *Graph) Neighbors(v int, fn func(u int, dist float64)) {
	for _, e := range g.adj[v] {
		fn(e.to, e.dist)
	}
}

// Ball is the sparse result of the distance pass of Definition 1: the
// vertices with d^s(v,q) < ∞ and their s-edge minimum distances, sorted by
// ascending (distance, id). Edge distances are positive, so the initiator
// (distance 0) is always entry 0. It takes 16 bytes per ball member,
// whatever the population.
type Ball struct {
	// IDs holds the original graph ids of the reached vertices.
	IDs []int
	// Dist[i] is the s-edge minimum distance from IDs[i] to the initiator.
	Dist []float64
}

// reach is one frontier entry: a vertex and the distance it held when the
// round that improved it ended.
type reach struct {
	v int
	d float64
}

// scratch is the N-sized working memory of one extraction. Between uses
// every dist entry is Inf and every mark entry is 0; an extraction writes
// only the entries of vertices it reaches and restores exactly those, so
// borrowing it costs the ball, not the population.
type scratch struct {
	dist []float64
	// mark is the round in which a vertex last joined the frontier during
	// the distance pass, and its feasible-graph index + 1 while a
	// RadiusGraph is being built.
	mark        []int32
	touched     []int // vertices whose dist was written
	front, next []reach
	adj         []int // the feasible graph's Adj lists, back to back
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// borrowScratch returns a clean scratch covering n vertices. One pooled
// from before the graph grew is too short: it is clean, so it is simply
// replaced.
func borrowScratch(n int) *scratch {
	sc := scratchPool.Get().(*scratch)
	if len(sc.dist) < n {
		sc.dist = make([]float64, n)
		for i := range sc.dist {
			sc.dist[i] = Inf
		}
		sc.mark = make([]int32, n)
	}
	return sc
}

// Ball runs the dynamic program of Definition 1 from initiator q and
// returns the vertices within s edges with their s-edge minimum distance
// d^s(v,q): the total distance of the minimum-distance path from q to v
// using at most s edges.
//
//	d^0(q,q) = 0, d^0(v,q) = ∞,
//	d^i(v,q) = min( d^{i-1}(v,q), min_{u ∈ N_v} d^{i-1}(u,q) + c(u,v) ).
//
// This is a bounded-hop Bellman-Ford run over a frontier: round i relaxes
// only the edges of the vertices whose distance improved in round i−1 (a
// vertex that did not improve already offered its neighbors the same sum
// in an earlier round), so the cost is the edges of the ball, not O(s·|E|).
// The round barrier of the recurrence stays: round i reads the distances
// as they stood when round i−1 ended (the frontier carries that snapshot),
// never one written in round i. Relaxing from a fresher value, as Dijkstra
// does, would extend a path by two edges in one round and admit vertices
// farther than s edges away.
func (g *Graph) Ball(q, s int) (Ball, error) {
	n := len(g.adj)
	if q < 0 || q >= n {
		return Ball{}, fmt.Errorf("%w: id %d", ErrVertexNotFound, q)
	}
	if s < 0 {
		return Ball{}, fmt.Errorf("socialgraph: negative radius %d", s)
	}
	sc := borrowScratch(n)
	sc.dist[q] = 0
	sc.touched = append(sc.touched[:0], q)
	front := append(sc.front[:0], reach{q, 0})
	next := sc.next[:0]
	// Distances converge within n−1 rounds, so the round counter fits mark.
	for round := int32(1); int(round) <= s && len(front) > 0; round++ {
		next = next[:0]
		for _, f := range front {
			for _, e := range g.adj[f.v] {
				d := f.d + e.dist
				if d >= sc.dist[e.to] {
					continue
				}
				if sc.mark[e.to] == 0 { // first reached (q, never improved, keeps 0)
					sc.touched = append(sc.touched, e.to)
				}
				if sc.mark[e.to] != round {
					sc.mark[e.to] = round
					next = append(next, reach{v: e.to})
				}
				sc.dist[e.to] = d
			}
		}
		for i := range next {
			next[i].d = sc.dist[next[i].v]
		}
		front, next = next, front
	}
	sc.front, sc.next = front, next

	b := Ball{IDs: append([]int(nil), sc.touched...), Dist: make([]float64, len(sc.touched))}
	slices.SortFunc(b.IDs, func(u, v int) int {
		if c := cmp.Compare(sc.dist[u], sc.dist[v]); c != 0 {
			return c
		}
		return cmp.Compare(u, v)
	})
	for i, v := range b.IDs {
		b.Dist[i] = sc.dist[v]
	}
	for _, v := range sc.touched {
		sc.dist[v], sc.mark[v] = Inf, 0
	}
	scratchPool.Put(sc)
	return b, nil
}

// RadiusGraph is the feasible graph G_F of Section 3.2.1: the subgraph
// induced by the vertices with d^s(v,q) < ∞, re-indexed densely with the
// initiator at index 0. It is the immutable, query-time representation used
// by every algorithm in this repository.
type RadiusGraph struct {
	// Orig maps feasible-graph index -> original graph id.
	Orig []int
	// Dist[i] is the s-edge minimum distance from vertex i to the initiator
	// (Dist[0] == 0).
	Dist []float64
	// Nbr[i] is the neighbor set of vertex i within the feasible graph.
	Nbr []*bitset.Set
	// Adj[i] lists the neighbors of vertex i (same content as Nbr[i]); the
	// search engine uses it for O(degree) incremental degree updates.
	Adj [][]int
	// Labels carries the original vertex labels for reporting.
	Labels []string
}

// ExtractRadiusGraph builds the feasible graph for initiator q and radius s.
// The initiator is always vertex 0 of the result. Vertices are ordered by
// ascending social distance (ties by original id), which is the access order
// SGSelect wants.
func (g *Graph) ExtractRadiusGraph(q, s int) (*RadiusGraph, error) {
	b, err := g.Ball(q, s)
	if err != nil {
		return nil, err
	}
	return g.radiusGraphOf(b), nil
}

// radiusGraphOf builds the feasible graph over a ball that Ball just
// computed against the same graph. It performs no shortest-path work of
// its own and shares b's slices as Orig and Dist.
func (g *Graph) radiusGraphOf(b Ball) *RadiusGraph {
	n := len(b.IDs)
	rg := &RadiusGraph{
		Orig:   b.IDs,
		Dist:   b.Dist,
		Nbr:    bitset.NewSlab(n, n),
		Adj:    make([][]int, n),
		Labels: make([]string, n),
	}
	sc := borrowScratch(len(g.adj))
	for i, v := range b.IDs {
		sc.mark[v] = int32(i + 1)
		rg.Labels[i] = g.labels[v]
	}
	// The Adj lists are gathered in pooled memory and then carved from one
	// exactly-sized array; until then Adj[i] only remembers its length.
	adj := sc.adj[:0]
	for i, v := range b.IDs {
		lo := len(adj)
		for _, e := range g.adj[v] {
			if j := int(sc.mark[e.to]) - 1; j >= 0 {
				rg.Nbr[i].Add(j)
				adj = append(adj, j)
			}
		}
		rg.Adj[i] = adj[lo:]
	}
	sc.adj = adj
	adj = slices.Clone(adj)
	lo := 0
	for i := range rg.Adj {
		hi := lo + len(rg.Adj[i])
		rg.Adj[i] = adj[lo:hi:hi]
		lo = hi
	}
	for _, v := range b.IDs {
		sc.mark[v] = 0
	}
	scratchPool.Put(sc)
	return rg
}

// N returns the number of vertices in the feasible graph (initiator
// included).
func (rg *RadiusGraph) N() int { return len(rg.Orig) }

// NonNeighborsWithin returns |within − {v} − N_v|: the number of vertices of
// the given set that v is unacquainted with (v itself excluded). This is the
// inner term of both Definition 2 (interior unfamiliarity) and the
// acquaintance constraint.
func (rg *RadiusGraph) NonNeighborsWithin(v int, within *bitset.Set) int {
	c := within.AndNotCount(rg.Nbr[v])
	if within.Contains(v) {
		c--
	}
	return c
}

// GroupFeasible reports whether the given member set satisfies the
// acquaintance constraint with parameter k: every member has at most k
// non-neighbors among the other members.
func (rg *RadiusGraph) GroupFeasible(members *bitset.Set, k int) bool {
	feasible := true
	members.ForEach(func(v int) bool {
		if rg.NonNeighborsWithin(v, members) > k {
			feasible = false
			return false
		}
		return true
	})
	return feasible
}

// TotalDistance sums the social distance of every member to the initiator.
func (rg *RadiusGraph) TotalDistance(members *bitset.Set) float64 {
	total := 0.0
	members.ForEach(func(v int) bool {
		total += rg.Dist[v]
		return true
	})
	return total
}

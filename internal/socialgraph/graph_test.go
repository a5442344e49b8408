package socialgraph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
)

// paperGraph builds the 8-vertex network of Figure 2(a) in the paper
// (Casey Affleck's ego network). Vertex names follow the paper's v1..v8.
//
// Edges (from the figure): v1-v2 28, v1-v3 14, v1-v4 18, v2-v3 12, v2-v4 10,
// v2-v6 19, v2-v7 17, v3-v4 8, v3-v7 18(*), v4-v6 23, v4-v7 27(*), v5-v3 26,
// v5-v8 30, v6-v7 23(*), v7-v8 25(*), v2-v5 39, v3-v6 24, v1-v5 20.
// The figure's exact layout is ambiguous in the text dump; what the tests
// depend on is documented per test, using the Figure 3 example weights where
// the paper states them explicitly.
func paperGraph(t testing.TB) (*Graph, map[string]int) {
	t.Helper()
	g := New()
	ids := map[string]int{}
	for _, name := range []string{"v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8"} {
		ids[name] = g.MustAddVertex(name)
	}
	add := func(a, b string, d float64) { g.MustAddEdge(ids[a], ids[b], d) }
	add("v1", "v2", 28)
	add("v1", "v3", 14)
	add("v1", "v4", 18)
	add("v2", "v3", 12)
	add("v2", "v4", 10)
	add("v2", "v6", 19)
	add("v2", "v7", 17)
	add("v3", "v4", 8)
	add("v3", "v7", 18)
	add("v4", "v6", 23)
	add("v4", "v7", 27)
	add("v5", "v3", 26)
	add("v5", "v8", 30)
	add("v6", "v7", 23)
	add("v7", "v8", 25)
	return g, ids
}

func TestAddVertexAndLookup(t *testing.T) {
	g := New()
	a := g.MustAddVertex("alice")
	b := g.MustAddVertex("bob")
	if a == b {
		t.Fatal("distinct vertices share an id")
	}
	if got, err := g.VertexByLabel("alice"); err != nil || got != a {
		t.Errorf("VertexByLabel(alice) = %d, %v", got, err)
	}
	if _, err := g.VertexByLabel("carol"); err == nil {
		t.Error("lookup of unknown label should fail")
	}
	if _, err := g.AddVertex("alice"); err == nil {
		t.Error("duplicate label should fail")
	}
	if g.Label(a) != "alice" || g.Label(99) != "" {
		t.Error("Label lookup wrong")
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New()
	a := g.MustAddVertex("a")
	b := g.MustAddVertex("b")
	if err := g.AddEdge(a, a, 1); err == nil {
		t.Error("self loop should be rejected")
	}
	if err := g.AddEdge(a, 42, 1); err == nil {
		t.Error("unknown endpoint should be rejected")
	}
	if err := g.AddEdge(a, b, 0); err == nil {
		t.Error("zero distance should be rejected")
	}
	if err := g.AddEdge(a, b, -3); err == nil {
		t.Error("negative distance should be rejected")
	}
	if err := g.AddEdge(a, b, math.NaN()); err == nil {
		t.Error("NaN distance should be rejected")
	}
	if err := g.AddEdge(a, b, 5); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if d, ok := g.EdgeDistance(a, b); !ok || d != 5 {
		t.Errorf("EdgeDistance = %v, %v; want 5, true", d, ok)
	}
	// Re-adding keeps the minimum, symmetrically.
	if err := g.AddEdge(b, a, 3); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if d, _ := g.EdgeDistance(a, b); d != 3 {
		t.Errorf("EdgeDistance after min-merge = %v, want 3", d)
	}
	if d, _ := g.EdgeDistance(b, a); d != 3 {
		t.Errorf("reverse EdgeDistance = %v, want 3", d)
	}
	if err := g.AddEdge(a, b, 9); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if d, _ := g.EdgeDistance(a, b); d != 3 {
		t.Errorf("EdgeDistance after larger re-add = %v, want 3", d)
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestEdgeMinDistancesChain(t *testing.T) {
	// q -1- a -1- b -1- c, plus a long direct shortcut q-c of distance 10.
	g := New()
	q := g.MustAddVertex("q")
	a := g.MustAddVertex("a")
	b := g.MustAddVertex("b")
	c := g.MustAddVertex("c")
	g.MustAddEdge(q, a, 1)
	g.MustAddEdge(a, b, 1)
	g.MustAddEdge(b, c, 1)
	g.MustAddEdge(q, c, 10)

	d1 := hopDistances(t, g, q, 1)
	if d1[a] != 1 || !math.IsInf(d1[b], 1) || d1[c] != 10 {
		t.Errorf("s=1: got a=%v b=%v c=%v", d1[a], d1[b], d1[c])
	}
	d2 := hopDistances(t, g, q, 2)
	if d2[b] != 2 || d2[c] != 10 {
		t.Errorf("s=2: got b=%v c=%v, want 2, 10", d2[b], d2[c])
	}
	// With 3 edges the chain beats the shortcut.
	d3 := hopDistances(t, g, q, 3)
	if d3[c] != 3 {
		t.Errorf("s=3: c=%v, want 3", d3[c])
	}
	d0 := hopDistances(t, g, q, 0)
	if d0[q] != 0 || !math.IsInf(d0[a], 1) {
		t.Errorf("s=0: q=%v a=%v", d0[q], d0[a])
	}
}

func TestEdgeMinDistancesErrors(t *testing.T) {
	g := New()
	g.MustAddVertex("q")
	if _, err := g.Ball(5, 1); !errors.Is(err, ErrVertexNotFound) {
		t.Errorf("unknown initiator: %v, want ErrVertexNotFound", err)
	}
	if _, err := g.Ball(0, -1); err == nil {
		t.Error("negative radius should fail")
	}
	if _, err := g.ExtractRadiusGraph(5, 1); !errors.Is(err, ErrVertexNotFound) {
		t.Errorf("extract from unknown initiator: %v, want ErrVertexNotFound", err)
	}
}

// TestHopConstrainedVsUnconstrained: the s-edge minimum distance may exceed
// the true shortest distance when the cheapest path is long in hops — the
// exact situation Section 3.2.1 warns about.
func TestHopConstrainedVsUnconstrained(t *testing.T) {
	g := New()
	q := g.MustAddVertex("q")
	x := g.MustAddVertex("x")
	m1 := g.MustAddVertex("m1")
	m2 := g.MustAddVertex("m2")
	g.MustAddEdge(q, x, 100) // 1 hop, expensive
	g.MustAddEdge(q, m1, 1)  // 3 cheap hops
	g.MustAddEdge(m1, m2, 1)
	g.MustAddEdge(m2, x, 1)

	d1 := hopDistances(t, g, q, 1)
	d3 := hopDistances(t, g, q, 3)
	if d1[x] != 100 {
		t.Errorf("s=1 distance to x = %v, want 100", d1[x])
	}
	if d3[x] != 3 {
		t.Errorf("s=3 distance to x = %v, want 3", d3[x])
	}
}

func TestExtractRadiusGraphPaperExample(t *testing.T) {
	// Example 2: initiator v7 with s=1 keeps exactly the direct neighbors
	// {v2, v3, v4, v6, v8}, ordered by distance 17, 18, 23, 25, 27.
	g, ids := paperGraph(t)
	rg, err := g.ExtractRadiusGraph(ids["v7"], 1)
	if err != nil {
		t.Fatal(err)
	}
	if rg.N() != 6 {
		t.Fatalf("feasible graph has %d vertices, want 6", rg.N())
	}
	if rg.Orig[0] != ids["v7"] || rg.Dist[0] != 0 {
		t.Fatal("initiator must be vertex 0 at distance 0")
	}
	wantOrder := []string{"v7", "v2", "v3", "v6", "v8", "v4"}
	wantDist := []float64{0, 17, 18, 23, 25, 27}
	for i := range wantOrder {
		if rg.Labels[i] != wantOrder[i] || rg.Dist[i] != wantDist[i] {
			t.Errorf("pos %d: got (%s, %v), want (%s, %v)",
				i, rg.Labels[i], rg.Dist[i], wantOrder[i], wantDist[i])
		}
	}
	// v5, v1 are outside radius 1.
	for _, v := range rg.Orig {
		if v == ids["v5"] || v == ids["v1"] {
			t.Errorf("vertex %s should not be in the radius-1 graph", g.Label(v))
		}
	}
}

func TestRadiusGraphNeighborSets(t *testing.T) {
	g, ids := paperGraph(t)
	rg, err := g.ExtractRadiusGraph(ids["v7"], 2)
	if err != nil {
		t.Fatal(err)
	}
	// All 8 vertices are reachable within 2 edges from v7.
	if rg.N() != 8 {
		t.Fatalf("radius-2 graph has %d vertices, want 8", rg.N())
	}
	// Neighbor sets must mirror the original adjacency, restricted to kept
	// vertices, and be symmetric.
	for i := 0; i < rg.N(); i++ {
		for j := 0; j < rg.N(); j++ {
			want := g.HasEdge(rg.Orig[i], rg.Orig[j])
			if got := rg.Nbr[i].Contains(j); got != want {
				t.Errorf("Nbr[%s][%s] = %v, want %v", rg.Labels[i], rg.Labels[j], got, want)
			}
		}
		if rg.Nbr[i].Contains(i) {
			t.Errorf("self adjacency at %d", i)
		}
	}
}

func TestRadiusTwoUsesTwoHopDistance(t *testing.T) {
	// v5 from v7: direct edge absent; via v8 25+30=55, via v3 18+26=44.
	g, ids := paperGraph(t)
	rg, _ := g.ExtractRadiusGraph(ids["v7"], 2)
	for i, o := range rg.Orig {
		if o == ids["v5"] {
			if rg.Dist[i] != 44 {
				t.Errorf("d(v5) = %v, want 44 (v7-v3-v5)", rg.Dist[i])
			}
			return
		}
	}
	t.Fatal("v5 missing from radius-2 graph")
}

func TestNonNeighborsWithinAndFeasibility(t *testing.T) {
	g, ids := paperGraph(t)
	rg, _ := g.ExtractRadiusGraph(ids["v7"], 1)
	at := func(name string) int {
		for i, l := range rg.Labels {
			if l == name {
				return i
			}
		}
		t.Fatalf("%s not in radius graph", name)
		return -1
	}
	// Group {v7, v2, v3}: edges v7-v2, v7-v3, v2-v3 all present -> clique.
	grp := bitset.FromIndices(rg.N(), at("v7"), at("v2"), at("v3"))
	if !rg.GroupFeasible(grp, 0) {
		t.Error("clique should be feasible at k=0")
	}
	if got := rg.NonNeighborsWithin(at("v2"), grp); got != 0 {
		t.Errorf("v2 non-neighbors in clique = %d, want 0", got)
	}
	// Group {v7, v2, v8}: v2-v8 absent -> each of v2,v8 has 1 non-neighbor.
	grp2 := bitset.FromIndices(rg.N(), at("v7"), at("v2"), at("v8"))
	if rg.GroupFeasible(grp2, 0) {
		t.Error("non-clique should be infeasible at k=0")
	}
	if !rg.GroupFeasible(grp2, 1) {
		t.Error("group should be feasible at k=1")
	}
	if got := rg.NonNeighborsWithin(at("v8"), grp2); got != 1 {
		t.Errorf("v8 non-neighbors = %d, want 1", got)
	}
	// NonNeighborsWithin with v outside the set counts all non-neighbors.
	solo := bitset.FromIndices(rg.N(), at("v2"), at("v3"))
	if got := rg.NonNeighborsWithin(at("v8"), solo); got != 2 {
		t.Errorf("v8 vs {v2,v3} = %d, want 2", got)
	}
}

func TestTotalDistance(t *testing.T) {
	g, ids := paperGraph(t)
	rg, _ := g.ExtractRadiusGraph(ids["v7"], 1)
	at := func(name string) int {
		for i, l := range rg.Labels {
			if l == name {
				return i
			}
		}
		return -1
	}
	// {v2, v3, v4, v7}: 17+18+27+0 = 62 — the optimal group of Example 2.
	grp := bitset.FromIndices(rg.N(), at("v7"), at("v2"), at("v3"), at("v4"))
	if got := rg.TotalDistance(grp); got != 62 {
		t.Errorf("TotalDistance = %v, want 62", got)
	}
}

// randomGraph builds a connected-ish random graph for property tests.
func randomGraph(r *rand.Rand, n int, pEdge float64) *Graph {
	g := New()
	g.AddVertices(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < pEdge {
				g.MustAddEdge(u, v, float64(1+r.Intn(50)))
			}
		}
	}
	return g
}

// bruteForceHopDistance enumerates all paths of at most s edges (DFS) — an
// exponential oracle for small graphs.
func bruteForceHopDistance(g *Graph, q, target, s int) float64 {
	best := Inf
	var dfs func(v int, hops int, dist float64, seen map[int]bool)
	dfs = func(v int, hops int, dist float64, seen map[int]bool) {
		if v == target && dist < best {
			best = dist
		}
		if hops == s {
			return
		}
		g.Neighbors(v, func(u int, d float64) {
			if !seen[u] {
				seen[u] = true
				dfs(u, hops+1, dist+d, seen)
				delete(seen, u)
			}
		})
	}
	dfs(q, 0, 0, map[int]bool{q: true})
	return best
}

// TestQuickEdgeMinDistances cross-checks the DP against path enumeration.
// Note the DP implicitly allows revisiting vertices, but with positive edge
// weights a walk is never shorter than its underlying simple path, so the two
// agree.
func TestQuickEdgeMinDistances(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(5)
		g := randomGraph(r, n, 0.4)
		q := r.Intn(n)
		s := 1 + r.Intn(3)
		dp := hopDistances(t, g, q, s)
		for v := 0; v < n; v++ {
			want := bruteForceHopDistance(g, q, v, s)
			if dp[v] != want && !(math.IsInf(dp[v], 1) && math.IsInf(want, 1)) {
				t.Logf("seed=%d v=%d s=%d dp=%v brute=%v", seed, v, s, dp[v], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickRadiusGraphInvariants checks structural invariants of extraction.
func TestQuickRadiusGraphInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(12)
		g := randomGraph(r, n, 0.3)
		q := r.Intn(n)
		s := 1 + r.Intn(3)
		rg, err := g.ExtractRadiusGraph(q, s)
		if err != nil {
			return false
		}
		if rg.Orig[0] != q || rg.Dist[0] != 0 {
			return false
		}
		for i := 1; i < rg.N(); i++ {
			if math.IsInf(rg.Dist[i], 1) || rg.Dist[i] <= 0 {
				return false
			}
			if rg.Dist[i] < rg.Dist[i-1] && i > 1 {
				return false // must be sorted ascending after the initiator
			}
			// Neighbor sets symmetric.
			syms := true
			rg.Nbr[i].ForEach(func(j int) bool {
				if !rg.Nbr[j].Contains(i) {
					syms = false
					return false
				}
				return true
			})
			if !syms {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New()
	g.AddVertices(3)
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(1, 2, 7)
	if err := g.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("edge survived removal")
	}
	if g.NumEdges() != 1 || g.Degree(1) != 1 {
		t.Fatalf("counts after removal: %d edges, degree(1)=%d", g.NumEdges(), g.Degree(1))
	}
	if err := g.RemoveEdge(0, 1); !errors.Is(err, ErrEdgeNotFound) {
		t.Fatalf("double removal: %v, want ErrEdgeNotFound", err)
	}
	if err := g.RemoveEdge(0, 9); !errors.Is(err, ErrVertexNotFound) {
		t.Fatalf("unknown vertex: %v, want ErrVertexNotFound", err)
	}
	// Re-adding after removal works and restores connectivity.
	g.MustAddEdge(0, 1, 3)
	if d, ok := g.EdgeDistance(0, 1); !ok || d != 3 {
		t.Fatalf("re-added edge: %v %v", d, ok)
	}
}

func TestClone(t *testing.T) {
	g := New()
	g.MustAddVertex("a")
	g.MustAddVertex("b")
	g.MustAddEdge(0, 1, 4)
	c := g.Clone()
	c.MustAddVertex("c")
	c.MustAddEdge(1, 2, 2)
	if err := c.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 2 || g.NumEdges() != 1 || !g.HasEdge(0, 1) {
		t.Fatal("mutating the clone changed the original")
	}
	if id, err := c.VertexByLabel("c"); err != nil || id != 2 {
		t.Fatalf("clone label index: %v %v", id, err)
	}
	if id, err := g.VertexByLabel("a"); err != nil || id != 0 {
		t.Fatalf("original label index: %v %v", id, err)
	}
}

// EdgeMinDistances is the dense dynamic program of Definition 1 exactly as
// Graph.ExtractRadiusGraph ran it before the frontier pass replaced it:
// two N-vectors, every vertex swept in every round. It is kept, verbatim,
// as the oracle the frontier pass is compared against.
func (g *Graph) EdgeMinDistances(q, s int) ([]float64, error) {
	n := len(g.adj)
	if q < 0 || q >= n {
		return nil, fmt.Errorf("%w: id %d", ErrVertexNotFound, q)
	}
	if s < 0 {
		return nil, fmt.Errorf("socialgraph: negative radius %d", s)
	}
	cur := make([]float64, n)
	next := make([]float64, n)
	for i := range cur {
		cur[i] = Inf
	}
	cur[q] = 0
	for i := 0; i < s; i++ {
		copy(next, cur)
		changed := false
		for v := 0; v < n; v++ {
			if math.IsInf(cur[v], 1) {
				continue
			}
			base := cur[v]
			for _, e := range g.adj[v] {
				if d := base + e.dist; d < next[e.to] {
					next[e.to] = d
					changed = true
				}
			}
		}
		cur, next = next, cur
		if !changed {
			break
		}
	}
	return cur, nil
}

// ExtractRadiusGraphWithDistances is the other half of the oracle: the
// feasible graph built from a dense distance vector by an N-scan and a map
// index, verbatim from before the change.
func (g *Graph) ExtractRadiusGraphWithDistances(q int, dist []float64) *RadiusGraph {
	type vd struct {
		id int
		d  float64
	}
	var keep []vd
	for v, d := range dist {
		if v != q && !math.IsInf(d, 1) {
			keep = append(keep, vd{v, d})
		}
	}
	sort.Slice(keep, func(i, j int) bool {
		if keep[i].d != keep[j].d {
			return keep[i].d < keep[j].d
		}
		return keep[i].id < keep[j].id
	})

	n := len(keep) + 1
	rg := &RadiusGraph{
		Orig:   make([]int, n),
		Dist:   make([]float64, n),
		Nbr:    make([]*bitset.Set, n),
		Adj:    make([][]int, n),
		Labels: make([]string, n),
	}
	index := make(map[int]int, n)
	rg.Orig[0], rg.Dist[0] = q, 0
	rg.Labels[0] = g.Label(q)
	index[q] = 0
	for i, kv := range keep {
		rg.Orig[i+1] = kv.id
		rg.Dist[i+1] = kv.d
		rg.Labels[i+1] = g.Label(kv.id)
		index[kv.id] = i + 1
	}
	for i := 0; i < n; i++ {
		rg.Nbr[i] = bitset.New(n)
	}
	for i := 0; i < n; i++ {
		for _, e := range g.adj[rg.Orig[i]] {
			if j, ok := index[e.to]; ok {
				rg.Nbr[i].Add(j)
				rg.Adj[i] = append(rg.Adj[i], j)
			}
		}
	}
	return rg
}

// hopDistances runs the production distance pass, spreads its sparse
// result over an N-vector (Inf = outside the ball) and holds it against
// the dense oracle before handing it to the caller's own assertions.
func hopDistances(t testing.TB, g *Graph, q, s int) []float64 {
	t.Helper()
	b, err := g.Ball(q, s)
	if err != nil {
		t.Fatalf("Ball(%d, %d): %v", q, s, err)
	}
	dense := make([]float64, g.NumVertices())
	for i := range dense {
		dense[i] = Inf
	}
	for i, v := range b.IDs {
		dense[v] = b.Dist[i]
	}
	want, err := g.EdgeMinDistances(q, s)
	if err != nil {
		t.Fatalf("oracle(%d, %d): %v", q, s, err)
	}
	for v := range want {
		if dense[v] != want[v] {
			t.Fatalf("q=%d s=%d: d(%d) = %v, dense oracle says %v", q, s, v, dense[v], want[v])
		}
	}
	return dense
}

// diffRadiusGraphs reports the first field in which two feasible graphs
// differ, or "" when they are identical.
func diffRadiusGraphs(got, want *RadiusGraph) string {
	if got.N() != want.N() {
		return fmt.Sprintf("%d vertices, want %d", got.N(), want.N())
	}
	for i := 0; i < want.N(); i++ {
		switch {
		case got.Orig[i] != want.Orig[i]:
			return fmt.Sprintf("Orig[%d] = %d, want %d", i, got.Orig[i], want.Orig[i])
		case got.Dist[i] != want.Dist[i]:
			return fmt.Sprintf("Dist[%d] = %v, want %v", i, got.Dist[i], want.Dist[i])
		case got.Labels[i] != want.Labels[i]:
			return fmt.Sprintf("Labels[%d] = %q, want %q", i, got.Labels[i], want.Labels[i])
		case !got.Nbr[i].Equal(want.Nbr[i]):
			return fmt.Sprintf("Nbr[%d] = %v, want %v", i, got.Nbr[i], want.Nbr[i])
		case fmt.Sprint(got.Adj[i]) != fmt.Sprint(want.Adj[i]):
			return fmt.Sprintf("Adj[%d] = %v, want %v", i, got.Adj[i], want.Adj[i])
		}
	}
	return ""
}

// oracleGraph is the feasible graph the dense path builds.
func oracleGraph(t testing.TB, g *Graph, q, s int) *RadiusGraph {
	t.Helper()
	dist, err := g.EdgeMinDistances(q, s)
	if err != nil {
		t.Fatalf("oracle(%d, %d): %v", q, s, err)
	}
	return g.ExtractRadiusGraphWithDistances(q, dist)
}

// messyGraph is a labeled random graph with the shapes the frontier pass
// could get wrong: isolated vertices, several components, equal distances
// (small integer weights, so the id tie-break decides the order) and
// edges re-added with a different weight (AddEdge keeps the minimum).
func messyGraph(r *rand.Rand, n int) *Graph {
	g := New()
	for v := 0; v < n; v++ {
		label := ""
		if r.Intn(3) > 0 {
			label = fmt.Sprintf("p%d", v)
		}
		g.MustAddVertex(label)
	}
	connected := n - r.Intn(n/4+1) // the tail stays isolated
	pEdge := 0.05 + 0.3*r.Float64()
	for u := 0; u < connected; u++ {
		for v := u + 1; v < connected; v++ {
			if r.Float64() < pEdge {
				g.MustAddEdge(u, v, float64(1+r.Intn(6)))
				if r.Intn(4) == 0 {
					g.MustAddEdge(v, u, float64(1+r.Intn(6)))
				}
			}
		}
	}
	return g
}

// TestExtractMatchesDenseOracle is the differential the frontier pass
// rests on: every field of the feasible graph equals the dense path's,
// for every initiator and s = 0…4 on seeded random graphs.
func TestExtractMatchesDenseOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := messyGraph(r, 2+r.Intn(40))
		for q := 0; q < g.NumVertices(); q++ {
			for s := 0; s <= 4; s++ {
				got, err := g.ExtractRadiusGraph(q, s)
				if err != nil {
					t.Fatalf("seed %d q=%d s=%d: %v", seed, q, s, err)
				}
				if d := diffRadiusGraphs(got, oracleGraph(t, g, q, s)); d != "" {
					t.Fatalf("seed %d q=%d s=%d: %s", seed, q, s, d)
				}
			}
		}
	}
}

// TestRoundBarrier pins the hop bound of Definition 1. On the chain
// q–a–b–c (1 each) with a direct q–b edge of 10, round 2 improves b to 2
// through a; c must still be offered b's round-1 value (10), because the
// path q–a–b–c has three edges. A pass that relaxed from the value written
// in the same round would report d(c) = 3 at s = 2 — and, with the q–b
// edge gone, would put c in a ball it is three hops away from.
func TestRoundBarrier(t *testing.T) {
	build := func(shortcut bool) (*Graph, [4]int) {
		g := New()
		var v [4]int
		for i, name := range []string{"q", "a", "b", "c"} {
			v[i] = g.MustAddVertex(name)
		}
		g.MustAddEdge(v[0], v[1], 1)
		g.MustAddEdge(v[1], v[2], 1)
		g.MustAddEdge(v[2], v[3], 1)
		if shortcut {
			g.MustAddEdge(v[0], v[2], 10)
		}
		return g, v
	}

	g, v := build(true)
	d := hopDistances(t, g, v[0], 2)
	if d[v[2]] != 2 || d[v[3]] != 11 {
		t.Fatalf("s=2 with the q–b edge: d(b)=%v d(c)=%v, want 2 and 11", d[v[2]], d[v[3]])
	}

	g, v = build(false)
	rg, err := g.ExtractRadiusGraph(v[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rg.Labels) != "[q a b]" {
		t.Fatalf("s=2 without the q–b edge: ball %v, want [q a b] (c is three edges away)", rg.Labels)
	}
}

// TestConcurrentExtraction runs 8 goroutines extracting different
// initiators from one graph (run it under -race): the pooled scratch is
// never shared between two extractions in flight and never comes back
// dirty — a leftover distance or mark from another initiator, or from the
// failed out-of-range calls in between, would break the oracle comparison.
func TestConcurrentExtraction(t *testing.T) {
	g := messyGraph(rand.New(rand.NewSource(99)), 120)
	n := g.NumVertices()
	var want [][3]*RadiusGraph
	for q := 0; q < n; q++ {
		want = append(want, [3]*RadiusGraph{oracleGraph(t, g, q, 1), oracleGraph(t, g, q, 2), oracleGraph(t, g, q, 3)})
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for q := w; q < n; q += 8 {
					s := 1 + (q+round)%3
					got, err := g.ExtractRadiusGraph(q, s)
					if err != nil {
						t.Errorf("worker %d q=%d s=%d: %v", w, q, s, err)
						return
					}
					if d := diffRadiusGraphs(got, want[q][s-1]); d != "" {
						t.Errorf("worker %d q=%d s=%d: %s", w, q, s, d)
						return
					}
					if _, err := g.ExtractRadiusGraph(n+q, s); err == nil {
						t.Errorf("worker %d: out-of-range initiator %d accepted", w, n+q)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestExtractionAfterGraphGrowth: a scratch pooled while the graph had
// fewer vertices is too short for the grown graph and must be replaced,
// not indexed past its end.
func TestExtractionAfterGraphGrowth(t *testing.T) {
	g := New()
	g.AddVertices(3)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 2, 2)
	for q := 0; q < 3; q++ { // leave 3-vertex scratch in the pool
		if _, err := g.ExtractRadiusGraph(q, 2); err != nil {
			t.Fatal(err)
		}
	}
	first := g.AddVertices(500)
	g.MustAddEdge(2, first+499, 1)
	g.MustAddEdge(first+499, first+250, 1)
	for _, q := range []int{0, 2, first + 250, first + 499, first + 7} {
		got, err := g.ExtractRadiusGraph(q, 3)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		if d := diffRadiusGraphs(got, oracleGraph(t, g, q, 3)); d != "" {
			t.Fatalf("q=%d after growth: %s", q, d)
		}
	}
}

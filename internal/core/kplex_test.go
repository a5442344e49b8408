package core

// The k-plex machinery the paper builds on, kept as the test oracle of
// Theorem 1. A k-plex (Seidman & Foster [19]) is a vertex set S in which
// every member is adjacent to at least |S|−k others of S — equivalently,
// each member may miss edges to at most k−1 others. The paper's
// NP-hardness proof (Theorem 1, Appendix B.1) reduces the k-plex decision
// problem to SGQ; this file provides:
//
//   - the k-plex predicate and maximality test;
//   - exact maximum k-plex search (branch and bound);
//   - enumeration of all maximal k-plexes (for small graphs);
//   - the Theorem-1 reduction, building an SGQ instance from a k-plex
//     decision instance, with the paper's parameter mapping s=1, k_SGQ=k−1,
//     p=c+1.
//
// Note the convention offset: a paper-style SGQ attendee may have at most
// k_SGQ strangers, while a k-plex member may have at most k−1; the
// reduction absorbs the difference.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/socialgraph"
)

// kplexGraph is the minimal adjacency view k-plex algorithms need.
type kplexGraph struct {
	n   int
	nbr []*bitset.Set
	adj [][]int
}

// newKPlexGraph creates an empty undirected graph on n vertices.
func newKPlexGraph(n int) *kplexGraph {
	g := &kplexGraph{n: n, nbr: make([]*bitset.Set, n), adj: make([][]int, n)}
	for i := range g.nbr {
		g.nbr[i] = bitset.New(n)
	}
	return g
}

// AddEdge connects u and v (idempotent, ignores self-loops).
func (g *kplexGraph) AddEdge(u, v int) {
	if u == v || u < 0 || v < 0 || u >= g.n || v >= g.n {
		return
	}
	if g.nbr[u].Contains(v) {
		return
	}
	g.nbr[u].Add(v)
	g.nbr[v].Add(u)
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
}

// N returns the number of vertices.
func (g *kplexGraph) N() int { return g.n }

// HasEdge reports adjacency.
func (g *kplexGraph) HasEdge(u, v int) bool { return g.nbr[u].Contains(v) }

// Degree returns the degree of v.
func (g *kplexGraph) Degree(v int) int { return len(g.adj[v]) }

// IsKPlex reports whether the vertex set is a k-plex: every member is
// adjacent to at least |S|−k members (itself included in the count, per the
// standard definition deg_S(v) ≥ |S|−k).
func (g *kplexGraph) IsKPlex(members *bitset.Set, k int) bool {
	size := members.Count()
	ok := true
	members.ForEach(func(v int) bool {
		// deg within S plus v itself must reach size−k.
		if g.nbr[v].AndCount(members)+k < size {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// IsMaximalKPlex reports whether members is a k-plex that cannot be
// extended by any outside vertex.
func (g *kplexGraph) IsMaximalKPlex(members *bitset.Set, k int) bool {
	if !g.IsKPlex(members, k) {
		return false
	}
	ext := members.Clone()
	for v := 0; v < g.n; v++ {
		if members.Contains(v) {
			continue
		}
		ext.Add(v)
		if g.IsKPlex(ext, k) {
			return false
		}
		ext.Remove(v)
	}
	return true
}

// MaximumKPlex returns a k-plex of maximum cardinality, found by
// branch-and-bound over the vertex order with a greedy incumbent and a
// size bound. Exponential in the worst case (the problem is NP-hard [11]);
// intended for the moderate graphs of this repository.
func (g *kplexGraph) MaximumKPlex(k int) *bitset.Set {
	if k < 1 || g.n == 0 {
		return bitset.New(g.n)
	}
	best := g.maximumKPlexFrom(bitset.New(g.n), 0, k)
	// The empty set bound: any single vertex is a k-plex for k ≥ 1.
	if best.Count() == 0 && g.n > 0 {
		best.Add(0)
	}
	return best
}

// maximumKPlexFrom returns a largest k-plex that extends the k-plex cur
// by vertices numbered next or higher (cur itself when none does), by the
// branch-and-bound of MaximumKPlex.
func (g *kplexGraph) maximumKPlexFrom(cur *bitset.Set, next, k int) *bitset.Set {
	best := cur.Clone()
	var rec func(next int)
	rec = func(next int) {
		if cur.Count()+(g.n-next) <= best.Count() {
			return // not enough vertices left to beat the incumbent
		}
		if next == g.n {
			if cur.Count() > best.Count() {
				best = cur.Clone()
			}
			return
		}
		// Include next when it keeps the k-plex property.
		cur.Add(next)
		if g.IsKPlex(cur, k) {
			rec(next + 1)
		}
		cur.Remove(next)
		// Exclude branch.
		rec(next + 1)
	}
	rec(next)
	return best
}

// Hold guards against pathological recursion in MaximalKPlexes.
const maxKPlexEnumeration = 1 << 20

// MaximalKPlexes enumerates all maximal k-plexes of size at least minSize.
// It uses a set-enumeration tree with the k-plex property as a pruning
// filter (a superset of a non-k-plex that contains its violating vertex...
// note that the k-plex property is NOT hereditary in general, but it is
// hereditary downward: every subset of a k-plex obtained by deleting
// vertices is again a k-plex, so enumeration by extension is sound).
func (g *kplexGraph) MaximalKPlexes(k, minSize int) []*bitset.Set {
	var out []*bitset.Set
	cur := bitset.New(g.n)
	steps := 0
	var rec func(next int)
	rec = func(next int) {
		steps++
		if steps > maxKPlexEnumeration {
			return
		}
		extended := false
		for v := next; v < g.n; v++ {
			cur.Add(v)
			if g.IsKPlex(cur, k) {
				extended = true
				rec(v + 1)
			}
			cur.Remove(v)
		}
		if !extended && cur.Count() >= minSize {
			// cur could still be extendable by a vertex with smaller index
			// than the branch position; verify full maximality.
			if g.IsMaximalKPlex(cur, k) {
				out = append(out, cur.Clone())
			}
		}
	}
	rec(0)
	return dedupeSets(out)
}

func dedupeSets(sets []*bitset.Set) []*bitset.Set {
	var out []*bitset.Set
	for _, s := range sets {
		dup := false
		for _, t := range out {
			if s.Equal(t) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, s)
		}
	}
	return out
}

// --- Theorem 1 reduction -------------------------------------------------

// kplexReduction is the SGQ instance produced from a k-plex decision instance
// per Appendix B.1: a new initiator q adjacent to every original vertex,
// all edge distances 1, and query parameters SGQ(p=c+1, s=1, k_SGQ=k−1).
type kplexReduction struct {
	// SocialGraph is the constructed weighted graph (original vertices keep
	// their ids; Q is the added initiator).
	SocialGraph *socialgraph.Graph
	Q           int
	P           int // c + 1
	S           int // always 1
	K           int // k − 1
}

// reduceKPlex builds the Theorem-1 reduction deciding "does g contain a k-plex
// with c vertices?".
func reduceKPlex(g *kplexGraph, k, c int) *kplexReduction {
	sg := socialgraph.New()
	sg.AddVertices(g.n)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if u < v {
				sg.MustAddEdge(u, v, 1)
			}
		}
	}
	q := sg.AddVertices(1)
	for v := 0; v < g.n; v++ {
		sg.MustAddEdge(q, v, 1)
	}
	return &kplexReduction{SocialGraph: sg, Q: q, P: c + 1, S: 1, K: k - 1}
}

// decideKPlex answers the k-plex decision problem through SGQ, as the proof
// prescribes: g has a k-plex of size c iff the reduced SGQ instance has a
// feasible group. It returns the witness vertex set (original ids) when one
// exists.
func decideKPlex(g *kplexGraph, k, c int) (*bitset.Set, bool) {
	if c <= 0 {
		return bitset.New(g.n), true
	}
	if c > g.n || k < 1 {
		return nil, false
	}
	red := reduceKPlex(g, k, c)
	rg, err := red.SocialGraph.ExtractRadiusGraph(red.Q, red.S)
	if err != nil {
		return nil, false
	}
	grp, _, err := SGSelect(rg, red.P, red.K, nil, DefaultOptions())
	if err != nil {
		return nil, false
	}
	witness := bitset.New(g.n)
	for _, idx := range grp.Members {
		if orig := rg.Orig[idx]; orig != red.Q {
			witness.Add(orig)
		}
	}
	return witness, true
}

// maximumKPlexViaSGQ finds the maximum k-plex size by binary search over
// the SGQ oracle — a demonstration that SGQ is at least as hard as maximum
// k-plex, which is the content of Theorem 1.
func maximumKPlexViaSGQ(g *kplexGraph, k int) int {
	lo, hi := 1, g.n
	best := 0
	for lo <= hi {
		mid := (lo + hi) / 2
		if _, ok := decideKPlex(g, k, mid); ok {
			best = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return best
}

// CohesionStats summarizes how k-plex-like a group is, used by analysis
// tooling: the minimum within-group degree and the smallest k for which the
// set is a k-plex.
func (g *kplexGraph) CohesionStats(members *bitset.Set) (minDegree, smallestK int) {
	size := members.Count()
	if size == 0 {
		return 0, 0
	}
	minDegree = math.MaxInt
	members.ForEach(func(v int) bool {
		d := g.nbr[v].AndCount(members)
		if d < minDegree {
			minDegree = d
		}
		return true
	})
	return minDegree, size - minDegree
}

// kplexPath builds a path graph 0-1-2-...-n-1.
func kplexPath(n int) *kplexGraph {
	g := newKPlexGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// kplexClique builds K_n.
func kplexClique(n int) *kplexGraph {
	g := newKPlexGraph(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

func TestIsKPlex(t *testing.T) {
	g := kplexClique(4)
	all := bitset.FromIndices(4, 0, 1, 2, 3)
	if !g.IsKPlex(all, 1) {
		t.Error("a clique must be a 1-plex")
	}
	// Remove one edge: no longer a 1-plex, still a 2-plex.
	g2 := newKPlexGraph(4)
	edges := [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}} // missing 2-3
	for _, e := range edges {
		g2.AddEdge(e[0], e[1])
	}
	if g2.IsKPlex(all, 1) {
		t.Error("missing edge must break the 1-plex property")
	}
	if !g2.IsKPlex(all, 2) {
		t.Error("one missing edge per vertex keeps the 2-plex property")
	}
	// A star on 4 vertices: leaves have degree 1, so within the whole set a
	// leaf has deg_S = 1 ≥ 4−k requires k ≥ 3.
	star := newKPlexGraph(4)
	star.AddEdge(0, 1)
	star.AddEdge(0, 2)
	star.AddEdge(0, 3)
	if star.IsKPlex(all, 2) {
		t.Error("star should not be a 2-plex")
	}
	if !star.IsKPlex(all, 3) {
		t.Error("star should be a 3-plex")
	}
}

func TestIsKPlexEdgeCases(t *testing.T) {
	g := kplexPath(3)
	empty := bitset.New(3)
	if !g.IsKPlex(empty, 1) {
		t.Error("the empty set is vacuously a k-plex")
	}
	single := bitset.FromIndices(3, 1)
	if !g.IsKPlex(single, 1) {
		t.Error("a singleton is a 1-plex")
	}
	g.AddEdge(0, 0)  // self loop ignored
	g.AddEdge(-1, 2) // out of range ignored
	g.AddEdge(0, 9)
	if g.Degree(0) != 1 {
		t.Errorf("degree(0) = %d after invalid AddEdge calls, want 1", g.Degree(0))
	}
	g.AddEdge(0, 1) // duplicate ignored
	if g.Degree(0) != 1 {
		t.Error("duplicate edge changed the degree")
	}
}

func TestIsMaximalKPlex(t *testing.T) {
	g := kplexClique(4)
	sub := bitset.FromIndices(4, 0, 1, 2)
	if g.IsMaximalKPlex(sub, 1) {
		t.Error("K3 inside K4 is not maximal")
	}
	all := bitset.FromIndices(4, 0, 1, 2, 3)
	if !g.IsMaximalKPlex(all, 1) {
		t.Error("K4 is a maximal 1-plex of itself")
	}
	if g.IsMaximalKPlex(bitset.FromIndices(4, 0), 1) {
		t.Error("a singleton in K4 is not maximal")
	}
}

func TestMaximumKPlexOnKnownGraphs(t *testing.T) {
	// K5: maximum 1-plex is the whole clique.
	if got := kplexClique(5).MaximumKPlex(1).Count(); got != 5 {
		t.Errorf("K5 maximum 1-plex size = %d, want 5", got)
	}
	// Path P4 (0-1-2-3): maximum 1-plex (clique) has size 2; maximum 2-plex
	// is {0,1,2} or {1,2,3} (each member misses at most one).
	p := kplexPath(4)
	if got := p.MaximumKPlex(1).Count(); got != 2 {
		t.Errorf("P4 maximum 1-plex size = %d, want 2", got)
	}
	if got := p.MaximumKPlex(2).Count(); got != 3 {
		t.Errorf("P4 maximum 2-plex size = %d, want 3", got)
	}
	// C5 (5-cycle): maximum 2-plex has size 4? Each vertex in a set of 4
	// must have deg_S ≥ 2. Take {0,1,2,3}: deg(0)={1,4∉S}=1 < 2. Size 3:
	// {0,1,2}: deg(1)=2, deg(0)=1 ≥ 3−2 ✓. So maximum 2-plex of C5 is 3.
	c5 := newKPlexGraph(5)
	for i := 0; i < 5; i++ {
		c5.AddEdge(i, (i+1)%5)
	}
	if got := c5.MaximumKPlex(2).Count(); got != 3 {
		t.Errorf("C5 maximum 2-plex size = %d, want 3", got)
	}
	// Degenerate inputs.
	if got := newKPlexGraph(0).MaximumKPlex(1).Count(); got != 0 {
		t.Errorf("empty graph k-plex size = %d", got)
	}
	if got := kplexPath(3).MaximumKPlex(0).Count(); got != 0 {
		t.Errorf("k=0 should yield the empty plex, got %d", got)
	}
}

func TestMaximalKPlexEnumeration(t *testing.T) {
	// Triangle plus pendant: 0-1-2 triangle, 3 attached to 2.
	g := newKPlexGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	plexes := g.MaximalKPlexes(1, 2)
	// Maximal cliques: {0,1,2} and {2,3}.
	if len(plexes) != 2 {
		t.Fatalf("found %d maximal 1-plexes, want 2: %v", len(plexes), plexes)
	}
	for _, p := range plexes {
		if !g.IsMaximalKPlex(p, 1) {
			t.Errorf("enumerated set %v is not a maximal 1-plex", p)
		}
	}
}

func TestReductionStructure(t *testing.T) {
	g := kplexPath(4)
	red := reduceKPlex(g, 2, 3)
	if red.P != 4 || red.S != 1 || red.K != 1 {
		t.Errorf("reduction parameters = p%d s%d k%d, want p4 s1 k1", red.P, red.S, red.K)
	}
	// q is adjacent to every original vertex with distance 1.
	for v := 0; v < 4; v++ {
		if d, ok := red.SocialGraph.EdgeDistance(red.Q, v); !ok || d != 1 {
			t.Errorf("q-%d distance = %v, %v; want 1", v, d, ok)
		}
	}
	// Original edges preserved.
	if _, ok := red.SocialGraph.EdgeDistance(0, 1); !ok {
		t.Error("original edge 0-1 missing")
	}
	if _, ok := red.SocialGraph.EdgeDistance(0, 2); ok {
		t.Error("non-edge 0-2 appeared")
	}
}

func TestDecideMatchesDirectSearch(t *testing.T) {
	// P4: has a 2-plex of size 3, not of size 4.
	g := kplexPath(4)
	if w, ok := decideKPlex(g, 2, 3); !ok {
		t.Error("P4 should contain a 2-plex of size 3")
	} else if !g.IsKPlex(w, 2) || w.Count() != 3 {
		t.Errorf("witness %v is not a size-3 2-plex", w)
	}
	if _, ok := decideKPlex(g, 2, 4); ok {
		t.Error("P4 should not contain a 2-plex of size 4")
	}
	// Degenerate parameters.
	if _, ok := decideKPlex(g, 2, 0); !ok {
		t.Error("c=0 is trivially satisfiable")
	}
	if _, ok := decideKPlex(g, 2, 9); ok {
		t.Error("c>n must be unsatisfiable")
	}
	if _, ok := decideKPlex(g, 0, 2); ok {
		t.Error("k=0 is rejected")
	}
}

func TestMaximumViaSGQEqualsDirect(t *testing.T) {
	g := newKPlexGraph(6)
	edges := [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {3, 5}, {1, 3}}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	for k := 1; k <= 3; k++ {
		direct := g.MaximumKPlex(k).Count()
		viaSGQ := maximumKPlexViaSGQ(g, k)
		if direct != viaSGQ {
			t.Errorf("k=%d: direct %d != via SGQ %d", k, direct, viaSGQ)
		}
	}
}

// TestQuickReductionEquivalence is the empirical Theorem 1: the SGQ oracle
// and direct maximum k-plex search agree on random graphs.
func TestQuickReductionEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(5)
		g := newKPlexGraph(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < 0.5 {
					g.AddEdge(u, v)
				}
			}
		}
		k := 1 + r.Intn(2)
		direct := g.MaximumKPlex(k).Count()
		via := maximumKPlexViaSGQ(g, k)
		if direct != via {
			t.Logf("seed %d: direct %d, via SGQ %d (n=%d k=%d)", seed, direct, via, n, k)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickMaximumIsKPlex: whatever MaximumKPlex returns must satisfy the
// predicate and no single-vertex extension may beat it.
func TestQuickMaximumIsKPlex(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(6)
		g := newKPlexGraph(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < 0.6 {
					g.AddEdge(u, v)
				}
			}
		}
		k := 1 + r.Intn(3)
		best := g.MaximumKPlex(k)
		if !g.IsKPlex(best, k) {
			return false
		}
		// No k-plex of size best+1 may exist (checked exhaustively for the
		// small n used here).
		target := best.Count() + 1
		members := bitset.New(n)
		var found bool
		var rec func(next, chosen int)
		rec = func(next, chosen int) {
			if found || chosen == target {
				found = found || g.IsKPlex(members, k)
				return
			}
			for v := next; v < n; v++ {
				members.Add(v)
				rec(v+1, chosen+1)
				members.Remove(v)
			}
		}
		rec(0, 0)
		return !found
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestCohesionStats(t *testing.T) {
	g := kplexClique(4)
	all := bitset.FromIndices(4, 0, 1, 2, 3)
	minDeg, k := g.CohesionStats(all)
	if minDeg != 3 || k != 1 {
		t.Errorf("K4 cohesion = (%d,%d), want (3,1)", minDeg, k)
	}
	p := kplexPath(4)
	minDeg, k = p.CohesionStats(all)
	if minDeg != 1 || k != 3 {
		t.Errorf("P4 cohesion = (%d,%d), want (1,3)", minDeg, k)
	}
	if d, kk := p.CohesionStats(bitset.New(4)); d != 0 || kk != 0 {
		t.Error("empty set cohesion should be zeros")
	}
}

// TestQuickPeelKeepsMaximumKPlex: the acquaintance-core peel keeps the
// optimum's vertices by the degree condition behind Theorem 1. A group of
// p in which each member has at most k strangers is a (k+1)-plex; over
// seeded graphs and every k from 0 to p − 1, whenever a maximum
// (k+1)-plex containing the initiator has at least p vertices, peeling
// the whole ball removes none of them.
func TestQuickPeelKeepsMaximumKPlex(t *testing.T) {
	checked := 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rg := randomRadiusGraph(r, 5+r.Intn(6), 0.3+r.Float64()*0.6, 1+r.Intn(2))
		n := rg.N()
		g := newKPlexGraph(n)
		for u, nbrs := range rg.Adj {
			for _, v := range nbrs {
				g.AddEdge(u, v)
			}
		}
		p := 2 + r.Intn(4)
		for k := 0; k < p; k++ {
			plex := g.maximumKPlexFrom(bitset.FromIndices(n, 0), 1, k+1)
			if plex.Count() < p {
				continue
			}
			checked++
			ball := bitset.New(n)
			for v := 0; v < n; v++ {
				ball.Add(v)
			}
			newEngine(rg, p, k, DefaultOptions()).peel(ball)
			if !plex.IsSubsetOf(ball) {
				t.Logf("seed %d p=%d k=%d: maximum %d-plex %v not inside the core %v", seed, p, k, k+1, plex, ball)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if checked == 0 {
		t.Error("no seed produced a maximum k-plex of p or more vertices")
	}
}

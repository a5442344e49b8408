package ipmodel

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/schedule"
	"repro/internal/socialgraph"
)

func figure3Graph(t testing.TB) (*socialgraph.Graph, map[string]int) {
	t.Helper()
	g := socialgraph.New()
	ids := map[string]int{}
	for _, name := range []string{"v2", "v3", "v4", "v6", "v7", "v8"} {
		ids[name] = g.MustAddVertex(name)
	}
	add := func(a, b string, d float64) { g.MustAddEdge(ids[a], ids[b], d) }
	add("v7", "v2", 17)
	add("v7", "v3", 18)
	add("v7", "v6", 23)
	add("v7", "v8", 25)
	add("v7", "v4", 27)
	add("v2", "v4", 14)
	add("v2", "v6", 19)
	add("v3", "v4", 20)
	add("v4", "v6", 29)
	return g, ids
}

func TestSGQReducedExample2(t *testing.T) {
	g, ids := figure3Graph(t)
	rg, _ := g.ExtractRadiusGraph(ids["v7"], 1)
	grp, err := SGQReduced(rg, 4, 1, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if grp.TotalDistance != 62 {
		t.Errorf("distance = %v, want 62", grp.TotalDistance)
	}
}

func TestSGQFullExample2(t *testing.T) {
	g, ids := figure3Graph(t)
	grp, obj, err := SGQFull(g, ids["v7"], 4, 1, 1, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(obj-62) > 1e-6 {
		t.Errorf("objective = %v, want 62", obj)
	}
	want := map[int]bool{ids["v7"]: true, ids["v2"]: true, ids["v3"]: true, ids["v4"]: true}
	for _, m := range grp.Members {
		if !want[m] {
			t.Errorf("unexpected member %s", g.Label(m))
		}
	}
}

// TestSGQFullUsesHopBoundedDistance: the full model must respect the radius
// constraint (8) — with s=1 it pays the expensive direct edge even when a
// cheaper 2-hop path exists.
func TestSGQFullUsesHopBoundedDistance(t *testing.T) {
	g := socialgraph.New()
	q := g.MustAddVertex("q")
	a := g.MustAddVertex("a")
	b := g.MustAddVertex("b")
	g.MustAddEdge(q, a, 1)
	g.MustAddEdge(a, b, 1)
	g.MustAddEdge(q, b, 10)

	// s=1, p=3, k=2: must take both a (1) and b (10 via the direct edge).
	_, obj, err := SGQFull(g, q, 3, 1, 2, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(obj-11) > 1e-6 {
		t.Errorf("s=1 objective = %v, want 11", obj)
	}
	// s=2: b reachable via a for 2.
	_, obj, err = SGQFull(g, q, 3, 2, 2, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(obj-3) > 1e-6 {
		t.Errorf("s=2 objective = %v, want 3", obj)
	}
}

func TestSGQReducedInfeasible(t *testing.T) {
	// Star graph, p=4, k=0: no clique exists.
	g := socialgraph.New()
	q := g.MustAddVertex("q")
	for i := 0; i < 4; i++ {
		v := g.AddVertices(1)
		g.MustAddEdge(q, v, float64(i+1))
	}
	rg, _ := g.ExtractRadiusGraph(q, 1)
	if _, err := SGQReduced(rg, 4, 0, SolveOptions{}); !errors.Is(err, core.ErrNoFeasibleGroup) {
		t.Errorf("err = %v, want ErrNoFeasibleGroup", err)
	}
}

func TestSTGQReducedExample3(t *testing.T) {
	g, ids := figure3Graph(t)
	cal := schedule.NewCalendar(g.NumVertices(), 7)
	avail := map[string][]int{
		"v2": {0, 1, 2, 3, 4, 5, 6},
		"v3": {1, 2, 4, 5},
		"v4": {0, 1, 2, 3, 4, 6},
		"v6": {1, 2, 3, 4, 5, 6},
		"v7": {0, 1, 2, 3, 4, 5},
		"v8": {0, 2, 4, 5},
	}
	for name, slots := range avail {
		for _, s := range slots {
			cal.SetAvailable(ids[name], s)
		}
	}
	rg, _ := g.ExtractRadiusGraph(ids["v7"], 1)
	calUser := make([]int, rg.N())
	for i, o := range rg.Orig {
		calUser[i] = o
	}
	got, err := STGQReduced(rg, cal, calUser, 4, 1, 3, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalDistance != 67 {
		t.Errorf("distance = %v, want 67", got.TotalDistance)
	}
	if got.Interval.Start != 1 || got.Interval.End != 4 {
		t.Errorf("interval = %+v, want [1,4]", got.Interval)
	}
}

func TestSTGQReducedValidation(t *testing.T) {
	g, ids := figure3Graph(t)
	rg, _ := g.ExtractRadiusGraph(ids["v7"], 1)
	cal := schedule.NewCalendar(g.NumVertices(), 7)
	calUser := make([]int, rg.N())
	if _, err := STGQReduced(rg, cal, calUser, 3, 1, 0, SolveOptions{}); !errors.Is(err, core.ErrBadParams) {
		t.Error("m=0 should be rejected")
	}
	if _, err := STGQReduced(rg, cal, calUser[:1], 3, 1, 2, SolveOptions{}); !errors.Is(err, core.ErrBadParams) {
		t.Error("short calUser should be rejected")
	}
	// m longer than the horizon.
	if _, err := STGQReduced(rg, cal, calUser, 3, 1, 20, SolveOptions{}); !errors.Is(err, core.ErrNoFeasibleGroup) {
		t.Error("m > horizon should be infeasible")
	}
}

// TestSTGQReducedRowCount: constraint (10) is one row per vertex, so the
// temporal model adds at most n + 1 rows to the social model, however
// long the horizon.
func TestSTGQReducedRowCount(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	rg, err := randomGraph(r, 12).ExtractRadiusGraph(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := rg.N()
	cal := schedule.NewCalendar(n, 48)
	for u := 0; u < n; u++ {
		for s := 0; s < cal.Horizon(); s++ {
			if r.Float64() < 0.75 {
				cal.SetAvailable(u, s)
			}
		}
	}
	calUser := make([]int, n)
	for i := range calUser {
		calUser[i] = i
	}
	social, _ := buildReducedSocial(rg, 3, 1)
	prob, _, _, err := buildReducedTemporal(rg, cal, calUser, 3, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := prob.NumConstraints(), social.NumConstraints()+n+1; got > limit {
		t.Errorf("%d rows for %d vertices; want at most %d", got, n, limit)
	}
}

func randomGraph(r *rand.Rand, n int) *socialgraph.Graph {
	g := socialgraph.New()
	g.AddVertices(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < 0.5 {
				g.MustAddEdge(u, v, float64(1+r.Intn(20)))
			}
		}
	}
	return g
}

// TestQuickReducedMatchesSGSelect: the reduced IP model and SGSelect are
// both exact, so their optima must agree.
func TestQuickReducedMatchesSGSelect(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 5+r.Intn(5))
		rg, err := g.ExtractRadiusGraph(0, 1+r.Intn(2))
		if err != nil {
			return false
		}
		p := 2 + r.Intn(3)
		k := r.Intn(3)
		ip, errIP := SGQReduced(rg, p, k, SolveOptions{})
		sg, _, errSG := core.SGSelect(rg, p, k, nil, core.DefaultOptions())
		if (errIP == nil) != (errSG == nil) {
			t.Logf("seed %d: ip err %v, sgselect err %v", seed, errIP, errSG)
			return false
		}
		if errIP != nil {
			return true
		}
		if math.Abs(ip.TotalDistance-sg.TotalDistance) > 1e-6 {
			t.Logf("seed %d: ip %v, sgselect %v", seed, ip.TotalDistance, sg.TotalDistance)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickFullMatchesReduced validates the verbatim Appendix-D formulation
// (path variables and all) against the compiled model on tiny graphs.
func TestQuickFullMatchesReduced(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 4+r.Intn(3)) // ≤ 6 vertices keeps π manageable
		s := 1 + r.Intn(2)
		rg, err := g.ExtractRadiusGraph(0, s)
		if err != nil {
			return false
		}
		p := 2 + r.Intn(2)
		k := r.Intn(2)
		red, errR := SGQReduced(rg, p, k, SolveOptions{})
		_, fullObj, errF := SGQFull(g, 0, p, s, k, SolveOptions{})
		if (errR == nil) != (errF == nil) {
			t.Logf("seed %d: reduced err %v, full err %v", seed, errR, errF)
			return false
		}
		if errR != nil {
			return true
		}
		if math.Abs(red.TotalDistance-fullObj) > 1e-6 {
			t.Logf("seed %d: reduced %v, full %v", seed, red.TotalDistance, fullObj)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickSTGQReducedMatchesSTGSelect cross-validates the temporal model.
func TestQuickSTGQReducedMatchesSTGSelect(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 5+r.Intn(4))
		rg, err := g.ExtractRadiusGraph(0, 1)
		if err != nil {
			return false
		}
		nn := rg.N()
		horizon := 6 + r.Intn(8)
		m := 2 + r.Intn(2)
		cal := schedule.NewCalendar(nn, horizon)
		for u := 0; u < nn; u++ {
			for s := 0; s < horizon; s++ {
				if r.Float64() < 0.75 {
					cal.SetAvailable(u, s)
				}
			}
		}
		calUser := make([]int, nn)
		for i := range calUser {
			calUser[i] = i
		}
		p := 2 + r.Intn(2)
		k := r.Intn(2)
		ip, errIP := STGQReduced(rg, cal, calUser, p, k, m, SolveOptions{})
		st, _, errST := core.STGSelect(rg, cal, calUser, p, k, m, core.DefaultOptions())
		if (errIP == nil) != (errST == nil) {
			t.Logf("seed %d: ip err %v, stgselect err %v", seed, errIP, errST)
			return false
		}
		if errIP != nil {
			return true
		}
		if math.Abs(ip.TotalDistance-st.TotalDistance) > 1e-6 {
			t.Logf("seed %d: ip %v, stgselect %v", seed, ip.TotalDistance, st.TotalDistance)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

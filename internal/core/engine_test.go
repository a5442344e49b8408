package core

import (
	"testing"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/schedule"
	"repro/internal/socialgraph"
)

// cliqueGraph builds a clique of n vertices around an initiator with
// distances 1, 2, ..., n-1.
func cliqueGraph(n int) *socialgraph.RadiusGraph {
	g := socialgraph.New()
	g.AddVertices(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			d := float64(v) // distance to 0 equals the index; clique edges cheap
			if u != 0 {
				d = float64(u+v) / 2
			}
			g.MustAddEdge(u, v, d)
		}
	}
	rg, err := g.ExtractRadiusGraph(0, 1)
	if err != nil {
		panic(err)
	}
	return rg
}

func TestDeepCliqueRecursion(t *testing.T) {
	// p = 12 over a 16-clique exercises deep frames; the optimum takes the
	// 11 closest vertices: 1+2+...+11 = 66.
	rg := cliqueGraph(16)
	grp, stats, err := SGSelect(rg, 12, 0, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if grp.TotalDistance != 66 {
		t.Errorf("distance = %v, want 66", grp.TotalDistance)
	}
	if stats.NodesExpanded == 0 {
		t.Error("no branches expanded")
	}
}

// TestEngineStateRestoredAfterSearch: the incremental counters must return
// to their initial values once expand unwinds — otherwise a second search
// on the same engine (as STGSelect runs per pivot) would corrupt results.
func TestEngineStateRestoredAfterSearch(t *testing.T) {
	rg := cliqueGraph(8)
	e := newEngine(rg, 4, 1, DefaultOptions())
	e.reset(nil)

	type snapshot struct {
		vs, va   string
		vsCount  int
		vaCount  int
		td       float64
		sumInner int
		nbrVS    []int
		nbrVA    []int
	}
	take := func() snapshot {
		return snapshot{
			vs: e.vs.String(), va: e.va.String(),
			vsCount: e.vsCount, vaCount: e.vaCount,
			td: e.td, sumInner: e.sumInner,
			nbrVS: append([]int(nil), e.nbrInVS...),
			nbrVA: append([]int(nil), e.nbrInVA...),
		}
	}
	before := take()
	e.expand(0)
	after := take()

	if before.vs != after.vs || before.va != after.va {
		t.Errorf("sets not restored: VS %s→%s, VA %s→%s", before.vs, after.vs, before.va, after.va)
	}
	if before.vsCount != after.vsCount || before.vaCount != after.vaCount {
		t.Errorf("counts not restored")
	}
	if before.td != after.td || before.sumInner != after.sumInner {
		t.Errorf("td/sumInner not restored: %v/%d vs %v/%d", before.td, before.sumInner, after.td, after.sumInner)
	}
	for i := range before.nbrVS {
		if before.nbrVS[i] != after.nbrVS[i] || before.nbrVA[i] != after.nbrVA[i] {
			t.Fatalf("degree counters not restored at vertex %d", i)
		}
	}
	if e.bestSet.Count() != 4 {
		t.Errorf("search did not find the group")
	}
}

// TestAvailabilityPruneFires reproduces the Example 3 pivot-ts6 situation:
// every candidate is individually eligible (has an m-run in the window),
// but two of them are busy on opposite sides close to the pivot, so no
// selection can assemble p attendees — Lemma 5 detects this before any
// branching.
func TestAvailabilityPruneFires(t *testing.T) {
	g := socialgraph.New()
	q := g.MustAddVertex("q")
	for i := 0; i < 4; i++ {
		v := g.AddVertices(1)
		g.MustAddEdge(q, v, float64(i+1))
	}
	rg, _ := g.ExtractRadiusGraph(q, 1)
	nn := rg.N()

	// Horizon 9, m=3 → pivots 2, 5, 8. q, u1, u2 free [3,8); u3 free [3,6)
	// (3-run, eligible, busy at 6+); u4 free [5,8) (3-run, eligible, busy
	// at 3,4). For pivot 5, p=5: n = |VA|−(p−1)+1 = 1, t−A(1)=4 (u4),
	// t+A(1)=6 (u3): 6−4 = 2 ≤ m → prune. Pivots 2 and 8 are skipped (q
	// has no 3-run in their windows).
	cal := schedule.NewCalendar(nn, 9)
	free := map[string][2]int{"q": {3, 8}}
	_ = free
	for u := 0; u < 3; u++ { // q=0, u1, u2 by radius-graph index
		cal.SetRange(u, 3, 8, true)
	}
	cal.SetRange(3, 3, 6, true) // u3
	cal.SetRange(4, 5, 8, true) // u4
	calUser := make([]int, nn)
	for i := range calUser {
		calUser[i] = i
	}
	_, stats, err := STGSelect(rg, cal, calUser, 5, 4, 3, DefaultOptions())
	if err != ErrNoFeasibleGroup {
		t.Fatalf("err = %v, want ErrNoFeasibleGroup", err)
	}
	if stats.AvailabilityPrunes == 0 {
		t.Errorf("availability pruning never fired: %+v", stats)
	}
	if stats.PivotsProcessed != 1 || stats.PivotsSkipped != 2 {
		t.Errorf("pivot accounting wrong: %+v", stats)
	}
	// The prune is sound: with it disabled the answer is the same.
	noAvail := DefaultOptions()
	noAvail.DisableAvailabilityPruning = true
	_, _, err2 := STGSelect(rg, cal, calUser, 5, 4, 3, noAvail)
	if err2 != ErrNoFeasibleGroup {
		t.Fatalf("ablated err = %v, want ErrNoFeasibleGroup", err2)
	}
}

// TestPhiRelaxationOccurs: candidates whose common window is barely m slots
// are deferred under a strict φ and admitted after relaxation.
func TestPhiRelaxationOccurs(t *testing.T) {
	g := socialgraph.New()
	q := g.MustAddVertex("q")
	a := g.MustAddVertex("a")
	b := g.MustAddVertex("b")
	g.MustAddEdge(q, a, 1)
	g.MustAddEdge(q, b, 2)
	g.MustAddEdge(a, b, 1)
	rg, _ := g.ExtractRadiusGraph(q, 1)

	// m=4, horizon 8: pivots 3, 7. q free everywhere; a and b free exactly
	// [2,6): common run is exactly m slots → X = 0 < RHS for strict φ at
	// the first pick.
	cal := schedule.NewCalendar(3, 8)
	cal.SetRange(0, 0, 8, true)
	cal.SetRange(1, 2, 6, true)
	cal.SetRange(2, 2, 6, true)
	calUser := []int{0, 1, 2}
	opt := DefaultOptions()
	opt.Phi0 = 1 // strictest temporal condition
	opt.PhiMax = 6
	got, stats, err := STGSelect(rg, cal, calUser, 3, 2, 4, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalDistance != 3 {
		t.Errorf("distance = %v, want 3", got.TotalDistance)
	}
	if stats.PhiRelaxations == 0 {
		t.Errorf("expected φ relaxations, stats %+v", stats)
	}
	if got.Interval.Start != 2 || got.Interval.End != 5 {
		t.Errorf("interval = %+v, want [2,5]", got.Interval)
	}
}

// TestThetaRelaxationOccurs: two cheap but badly-connected vertices are
// deferred under θ>0; when the frame runs out of well-connected candidates
// while still large enough to finish, θ is relaxed and the deferred pair is
// re-examined — the Example 2 "reduce θ and mark unvisited" mechanics.
// The core cascade is off: on this instance (p 4, k 1, so every member
// must know 2 others) excluding d leaves a with one acquaintance, and the
// cascade ends that frame before its deferred pair needs θ relaxed.
func TestThetaRelaxationOccurs(t *testing.T) {
	g := socialgraph.New()
	q := g.MustAddVertex("q")
	a := g.MustAddVertex("a")   // 1, adjacent to q and d
	c1 := g.MustAddVertex("c1") // 2, strangers to a
	c2 := g.MustAddVertex("c2") // 3
	d := g.MustAddVertex("d")   // 4, adjacent to everyone
	g.MustAddEdge(q, a, 1)
	g.MustAddEdge(q, c1, 2)
	g.MustAddEdge(q, c2, 3)
	g.MustAddEdge(q, d, 4)
	g.MustAddEdge(c1, c2, 1)
	g.MustAddEdge(c1, d, 1)
	g.MustAddEdge(c2, d, 1)
	g.MustAddEdge(a, d, 1)
	rg, _ := g.ExtractRadiusGraph(q, 1)

	opt := DefaultOptions()
	opt.Theta0 = 2
	opt.DisableCoreCascade = true
	grp, stats, err := SGSelect(rg, 4, 1, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Optimum {q, a, c1, d} = 1+2+4 = 7 (a and c1 are mutual strangers,
	// each within the k=1 allowance).
	if grp.TotalDistance != 7 {
		t.Errorf("distance = %v, want 7", grp.TotalDistance)
	}
	if stats.ThetaRelaxations == 0 {
		t.Errorf("expected θ relaxations, stats %+v", stats)
	}
}

// TestRestrictWithSTGSelect: the eligibility filter of STGSelect composes
// with pivot processing.
func TestPivotSkippingCounted(t *testing.T) {
	rg := cliqueGraph(5)
	nn := rg.N()
	// Horizon 9, m=3 → pivots 2, 5, 8. Everyone busy around pivot 8.
	cal := schedule.NewCalendar(nn, 9)
	for u := 0; u < nn; u++ {
		cal.SetRange(u, 0, 7, true)
	}
	calUser := make([]int, nn)
	for i := range calUser {
		calUser[i] = i
	}
	_, stats, err := STGSelect(rg, cal, calUser, 3, 2, 3, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if stats.PivotsSkipped == 0 {
		t.Errorf("pivot 8 (everyone busy) should be skipped: %+v", stats)
	}
	if stats.PivotsProcessed == 0 {
		t.Errorf("pivots 2/5 should be processed: %+v", stats)
	}
}

// TestInteriorRHSTables: the precomputed tables must match the formulas.
func TestInteriorRHSTables(t *testing.T) {
	rg := cliqueGraph(6)
	opt := DefaultOptions()
	opt.Theta0 = 3
	e := newEngine(rg, 4, 2, opt)
	// interiorRHS[θ][sz] = k·(sz/p)^θ.
	if got := e.interiorRHS[0][4]; got != 2 {
		t.Errorf("RHS[0][4] = %v, want k=2", got)
	}
	if got := e.interiorRHS[2][2]; got != 2*0.25 {
		t.Errorf("RHS[2][2] = %v, want 0.5", got)
	}
	e.tmp = &temporalState{m: 5}
	e.initTemporalRHS(5)
	// temporalRHS[φ][sz] = (m−1)·((p−sz)/p)^φ.
	if got := e.temporalRHS[1][2]; got != 4*0.5 {
		t.Errorf("tRHS[1][2] = %v, want 2", got)
	}
	if got := e.temporalRHS[2][4]; got != 0 {
		t.Errorf("tRHS[2][4] = %v, want 0", got)
	}
}

// TestRecordKeepsFirstOfEqualSolutions: equal-distance optima must not
// overwrite each other (the search keeps the first).
func TestRecordKeepsFirstOfEqualSolutions(t *testing.T) {
	g := socialgraph.New()
	q := g.MustAddVertex("q")
	a := g.MustAddVertex("a")
	b := g.MustAddVertex("b")
	g.MustAddEdge(q, a, 5)
	g.MustAddEdge(q, b, 5)
	rg, _ := g.ExtractRadiusGraph(q, 1)
	grp, _, err := SGSelect(rg, 2, 1, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if grp.TotalDistance != 5 || len(grp.Members) != 2 {
		t.Errorf("group = %+v", grp)
	}
}

// TestSearchBudget: the anytime cutoff returns ErrBudgetExceeded, with the
// incumbent when one was found in time.
func TestSearchBudget(t *testing.T) {
	rg := cliqueGraph(16)
	opt := DefaultOptions()
	opt.MaxVertices = 1 // give up almost immediately
	grp, stats, err := SGSelect(rg, 12, 0, nil, opt)
	if err != ErrBudgetExceeded {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if stats.VerticesExamined > 2 {
		t.Errorf("budget overshot: %d admission tests", stats.VerticesExamined)
	}
	_ = grp // may be nil at this tiny budget

	// A budget large enough to find a feasible solution but not prove
	// optimality returns the incumbent alongside the error. With distinct
	// distances the clique is proven by the very tests that find its
	// optimum (Lemma 2 on the need nearest prunes every other frame), so
	// this clique gives vertices 12..15 the distance of vertex 11: the
	// groups that swap them in tie the incumbent, the strict bound keeps
	// them, and proving the optimum takes more than 13 tests.
	tied := socialgraph.New()
	tied.AddVertices(16)
	for u := 0; u < 16; u++ {
		for v := u + 1; v < 16; v++ {
			d := 1.0
			if u == 0 {
				d = float64(min(v, 11))
			}
			tied.MustAddEdge(u, v, d)
		}
	}
	rg, err = tied.ExtractRadiusGraph(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt.MaxVertices = 13
	grp, _, err = SGSelect(rg, 12, 0, nil, opt)
	if err != ErrBudgetExceeded {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if grp == nil || len(grp.Members) != 12 {
		t.Errorf("expected an anytime incumbent, got %+v", grp)
	}
	// In a clique the greedy-first dive is already optimal.
	if grp.TotalDistance != 66 {
		t.Errorf("incumbent distance = %v, want 66", grp.TotalDistance)
	}

	// Unlimited budget unchanged.
	opt.MaxVertices = 0
	if _, _, err := SGSelect(rg, 12, 0, nil, opt); err != nil {
		t.Fatalf("unlimited: %v", err)
	}

	// STGSelect path.
	nn := rg.N()
	cal := schedule.NewCalendar(nn, 8)
	for u := 0; u < nn; u++ {
		cal.SetRange(u, 0, 8, true)
	}
	calUser := make([]int, nn)
	for i := range calUser {
		calUser[i] = i
	}
	opt.MaxVertices = 4
	if _, _, err := STGSelect(rg, cal, calUser, 12, 0, 2, opt); err != ErrBudgetExceeded {
		t.Fatalf("STGSelect budget err = %v", err)
	}

	// The budget bounds the admission tests of the whole query, summed
	// over pivots: once it is spent no further pivot is taken, and an
	// exhausted budget is reported as ErrBudgetExceeded, never as an
	// unproven ErrNoFeasibleGroup.
	d := dataset.Synthetic(600, 1, 7)
	budget := DefaultOptions()
	budget.MaxVertices = 20
	pivots := int64(len(d.Cal.PivotSlots(6)))
	for q := 0; q < 5; q++ {
		rg, err := d.Graph.ExtractRadiusGraph(q, 2)
		if err != nil {
			t.Fatal(err)
		}
		best, _, err := STGSelect(rg, d.Cal, rg.Orig, 5, 1, 6, DefaultOptions())
		if err != nil {
			t.Fatalf("q=%d unbudgeted: %v", q, err)
		}
		grp, stats, err := STGSelect(rg, d.Cal, rg.Orig, 5, 1, 6, budget)
		if err != ErrBudgetExceeded {
			t.Errorf("q=%d: err = %v, want ErrBudgetExceeded", q, err)
		}
		if stats.VerticesExamined > budget.MaxVertices {
			t.Errorf("q=%d: %d admission tests under a budget of %d", q, stats.VerticesExamined, budget.MaxVertices)
		}
		if taken := stats.PivotsProcessed + stats.PivotsSkipped; taken >= pivots {
			t.Errorf("q=%d: all %d pivots taken after the budget was spent", q, taken)
		}
		if grp != nil && grp.TotalDistance < best.TotalDistance {
			t.Errorf("q=%d: anytime answer %v beats the optimum %v", q, grp.TotalDistance, best.TotalDistance)
		}
	}
}

// TestRestrictAndBitsetInteraction guards the eligibility path of reset.
func TestResetWithRestriction(t *testing.T) {
	rg := cliqueGraph(6)
	allowed := bitset.New(rg.N())
	allowed.Add(2)
	allowed.Add(3)
	grp, _, err := SGSelect(rg, 3, 2, allowed, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range grp.Members {
		if m != 0 && !allowed.Contains(m) {
			t.Errorf("member %d outside the restriction", m)
		}
	}
}

package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/schedule"
	"repro/internal/socialgraph"
)

// figure3Graph reconstructs the graph of Figure 3(a), the worked Example 2/3
// instance. Edge set and weights are pinned down by the example's arithmetic:
// distances to v7 are v2=17, v3=18, v6=23, v8=25, v4=27 (Figure 3(b));
// footnote 4 gives |VA∩N_v2| = 2 over {v3,v4,v6,v8} (so v2-v4 and v2-v6
// exist, v2-v3 and v2-v8 do not); the second feasible solution {v2,v3,v4,v7}
// at k=1 requires v3-v4; the final acquaintance-pruning arithmetic
// (1+1+0 over {v4,v6,v8}) requires v4-v6 and isolates v8 within VA.
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

// figure3Calendar builds the schedules of Figure 3(c) over 7 slots
// (ts1..ts7 = indices 0..6), keyed by original graph vertex id.
func figure3Calendar(t testing.TB, g *socialgraph.Graph, ids map[string]int) *schedule.Calendar {
	t.Helper()
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
	return cal
}

func labelsOf(rg *socialgraph.RadiusGraph, members []int) map[string]bool {
	out := map[string]bool{}
	for _, m := range members {
		out[rg.Labels[m]] = true
	}
	return out
}

// TestSGSelectExample2 reproduces the paper's Example 2 end to end:
// SGQ(p=4, s=1, k=1) from v7 returns {v2, v3, v4, v7} with distance 62.
func TestSGSelectExample2(t *testing.T) {
	g, ids := figure3Graph(t)
	rg, err := g.ExtractRadiusGraph(ids["v7"], 1)
	if err != nil {
		t.Fatal(err)
	}
	grp, stats, err := SGSelect(rg, 4, 1, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if grp.TotalDistance != 62 {
		t.Errorf("total distance = %v, want 62", grp.TotalDistance)
	}
	got := labelsOf(rg, grp.Members)
	for _, want := range []string{"v2", "v3", "v4", "v7"} {
		if !got[want] {
			t.Errorf("optimal group %v missing %s", got, want)
		}
	}
	if stats.SolutionsFound < 1 || stats.VerticesExamined == 0 {
		t.Errorf("implausible stats: %+v", stats)
	}
	// Example 2's narrative implies both the distance and the acquaintance
	// pruning fire on this instance. The distance prune fires in the
	// search; the vertex Lemma 3 prunes in the example, v8 (one
	// neighbour, c = 2), is the one vertex the acquaintance core removes
	// before the search.
	if stats.DistancePrunes == 0 {
		t.Errorf("expected at least one distance prune, stats %+v", stats)
	}
	if stats.CorePeeled != 1 {
		t.Errorf("core peeled %d vertices, want 1 (v8)", stats.CorePeeled)
	}
	e := newEngine(rg, 4, 1, DefaultOptions())
	if !e.reset(nil) {
		t.Fatal("reset reports no search over the ball")
	}
	for v, label := range rg.Labels[1:] {
		if in := e.va.Contains(v + 1); in != (label != "v8") {
			t.Errorf("%s in the core: %v", label, in)
		}
	}
}

// TestSTGSelectExample3 reproduces Example 3: STGQ(p=4, s=1, k=1, m=3)
// returns {v2, v4, v6, v7} available over [ts2, ts5] (indices 1..4), found
// under pivot ts3 (index 2); the socially-better group {v2,v3,v4,v7} is
// excluded because v3 never has 3 consecutive free slots.
func TestSTGSelectExample3(t *testing.T) {
	g, ids := figure3Graph(t)
	cal := figure3Calendar(t, g, ids)
	rg, err := g.ExtractRadiusGraph(ids["v7"], 1)
	if err != nil {
		t.Fatal(err)
	}
	calUser := make([]int, rg.N())
	for i, o := range rg.Orig {
		calUser[i] = o
	}
	got, stats, err := STGSelect(rg, cal, calUser, 4, 1, 3, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	members := labelsOf(rg, got.Members)
	for _, want := range []string{"v2", "v4", "v6", "v7"} {
		if !members[want] {
			t.Errorf("group %v missing %s", members, want)
		}
	}
	if got.TotalDistance != 67 {
		// 17 + 27 + 23 (Figure 3(b) distances; the paper's prose says 64 but
		// its own distance table sums to 67).
		t.Errorf("total distance = %v, want 67", got.TotalDistance)
	}
	if got.Interval.Start != 1 || got.Interval.End != 4 {
		t.Errorf("interval = [%d,%d], want [1,4] (ts2..ts5)", got.Interval.Start, got.Interval.End)
	}
	if got.Pivot != 2 {
		t.Errorf("pivot = %d, want 2 (ts3)", got.Pivot)
	}
	if got.Interval.Len() < 3 {
		t.Errorf("interval shorter than m")
	}
	if stats.PivotsProcessed == 0 {
		t.Errorf("no pivots processed: %+v", stats)
	}
}

// TestSTGQExcludesSGQOptimum: the SGQ optimum (distance 62) must not be
// returned by STGSelect because of the availability constraint.
func TestSTGQExcludesSGQOptimum(t *testing.T) {
	g, ids := figure3Graph(t)
	cal := figure3Calendar(t, g, ids)
	rg, _ := g.ExtractRadiusGraph(ids["v7"], 1)
	calUser := make([]int, rg.N())
	for i, o := range rg.Orig {
		calUser[i] = o
	}
	got, _, err := STGSelect(rg, cal, calUser, 4, 1, 3, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalDistance <= 62 {
		t.Errorf("STGQ distance %v should exceed the schedule-free optimum 62", got.TotalDistance)
	}
}

func TestSGSelectTrivialCases(t *testing.T) {
	g, ids := figure3Graph(t)
	rg, _ := g.ExtractRadiusGraph(ids["v7"], 1)

	// p = 1: just the initiator.
	grp, _, err := SGSelect(rg, 1, 0, nil, DefaultOptions())
	if err != nil || len(grp.Members) != 1 || grp.Members[0] != 0 || grp.TotalDistance != 0 {
		t.Errorf("p=1: got %+v, %v", grp, err)
	}

	// p = 2, large k: the closest friend.
	grp, _, err = SGSelect(rg, 2, 5, nil, DefaultOptions())
	if err != nil || grp.TotalDistance != 17 {
		t.Errorf("p=2: got %+v, %v; want distance 17 (v2)", grp, err)
	}

	// p exceeding the candidate pool.
	if _, _, err := SGSelect(rg, 10, 5, nil, DefaultOptions()); !errors.Is(err, ErrNoFeasibleGroup) {
		t.Errorf("p=10: err = %v, want ErrNoFeasibleGroup", err)
	}
}

func TestSGSelectInfeasibleK(t *testing.T) {
	// Star graph: q connected to 4 leaves, no leaf-leaf edges. p=4 with k=0
	// demands a clique, impossible; k=2 admits any 3 leaves.
	g := socialgraph.New()
	q := g.MustAddVertex("q")
	for i := 0; i < 4; i++ {
		v := g.AddVertices(1)
		g.MustAddEdge(q, v, float64(i+1))
	}
	rg, _ := g.ExtractRadiusGraph(q, 1)
	if _, _, err := SGSelect(rg, 4, 0, nil, DefaultOptions()); !errors.Is(err, ErrNoFeasibleGroup) {
		t.Errorf("star k=0: err = %v, want ErrNoFeasibleGroup", err)
	}
	grp, _, err := SGSelect(rg, 4, 2, nil, DefaultOptions())
	if err != nil {
		t.Fatalf("star k=2: %v", err)
	}
	if grp.TotalDistance != 1+2+3 {
		t.Errorf("star k=2 distance = %v, want 6", grp.TotalDistance)
	}
}

func TestSGSelectParamValidation(t *testing.T) {
	g, ids := figure3Graph(t)
	rg, _ := g.ExtractRadiusGraph(ids["v7"], 1)
	if _, _, err := SGSelect(rg, 0, 1, nil, DefaultOptions()); !errors.Is(err, ErrBadParams) {
		t.Error("p=0 should be rejected")
	}
	if _, _, err := SGSelect(rg, 3, -1, nil, DefaultOptions()); !errors.Is(err, ErrBadParams) {
		t.Error("k=-1 should be rejected")
	}
	if _, _, err := SGSelect(nil, 3, 1, nil, DefaultOptions()); !errors.Is(err, ErrBadParams) {
		t.Error("nil graph should be rejected")
	}
	bad := DefaultOptions()
	bad.Phi0 = 0
	if _, _, err := SGSelect(rg, 3, 1, nil, bad); !errors.Is(err, ErrBadParams) {
		t.Error("Phi0=0 should be rejected")
	}
	bad = DefaultOptions()
	bad.Theta0 = -1
	if _, _, err := SGSelect(rg, 3, 1, nil, bad); !errors.Is(err, ErrBadParams) {
		t.Error("Theta0=-1 should be rejected")
	}
	bad = DefaultOptions()
	bad.PhiMax = 1
	if _, _, err := SGSelect(rg, 3, 1, nil, bad); !errors.Is(err, ErrBadParams) {
		t.Error("PhiMax<Phi0 should be rejected")
	}
}

func TestSTGSelectParamValidation(t *testing.T) {
	g, ids := figure3Graph(t)
	cal := figure3Calendar(t, g, ids)
	rg, _ := g.ExtractRadiusGraph(ids["v7"], 1)
	calUser := make([]int, rg.N())
	for i, o := range rg.Orig {
		calUser[i] = o
	}
	if _, _, err := STGSelect(rg, cal, calUser, 4, 1, 0, DefaultOptions()); !errors.Is(err, ErrBadParams) {
		t.Error("m=0 should be rejected")
	}
	if _, _, err := STGSelect(rg, nil, calUser, 4, 1, 3, DefaultOptions()); !errors.Is(err, ErrBadParams) {
		t.Error("nil calendar should be rejected")
	}
	if _, _, err := STGSelect(rg, cal, calUser[:2], 4, 1, 3, DefaultOptions()); !errors.Is(err, ErrBadParams) {
		t.Error("short calUser should be rejected")
	}
	badUser := append([]int(nil), calUser...)
	badUser[1] = 99
	if _, _, err := STGSelect(rg, cal, badUser, 4, 1, 3, DefaultOptions()); !errors.Is(err, ErrBadParams) {
		t.Error("out-of-range calUser should be rejected")
	}
}

func TestSTGSelectNoCommonWindow(t *testing.T) {
	g, ids := figure3Graph(t)
	// Everyone available on disjoint days: no 3-slot common window.
	cal := schedule.NewCalendar(g.NumVertices(), 12)
	i := 0
	for _, id := range ids {
		cal.SetRange(id, (i%4)*3, (i%4)*3+2, true) // 2-slot runs only
		i++
	}
	rg, _ := g.ExtractRadiusGraph(ids["v7"], 1)
	calUser := make([]int, rg.N())
	for j, o := range rg.Orig {
		calUser[j] = o
	}
	if _, _, err := STGSelect(rg, cal, calUser, 3, 2, 3, DefaultOptions()); !errors.Is(err, ErrNoFeasibleGroup) {
		t.Errorf("err = %v, want ErrNoFeasibleGroup", err)
	}
	// Everyone busy over the whole horizon: every pivot is skipped.
	busy := schedule.NewCalendar(g.NumVertices(), 12)
	if _, _, err := STGSelect(rg, busy, calUser, 3, 2, 3, DefaultOptions()); !errors.Is(err, ErrNoFeasibleGroup) {
		t.Errorf("all-busy calendar: err = %v, want ErrNoFeasibleGroup", err)
	}
}

func TestSTGSelectP1(t *testing.T) {
	g, ids := figure3Graph(t)
	cal := figure3Calendar(t, g, ids)
	rg, _ := g.ExtractRadiusGraph(ids["v7"], 1)
	calUser := make([]int, rg.N())
	for i, o := range rg.Orig {
		calUser[i] = o
	}
	got, _, err := STGSelect(rg, cal, calUser, 1, 0, 3, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalDistance != 0 || len(got.Members) != 1 {
		t.Errorf("p=1: %+v", got)
	}
	if got.Interval.Len() < 3 {
		t.Errorf("p=1 interval %+v shorter than m", got.Interval)
	}
}

// --- brute-force oracles -------------------------------------------------

// bruteSGQ enumerates every candidate group (the paper's baseline) and
// returns the optimal distance, or +Inf when infeasible.
func bruteSGQ(rg *socialgraph.RadiusGraph, p, k int) (float64, *bitset.Set) {
	n := rg.N()
	best := math.Inf(1)
	var bestSet *bitset.Set
	members := bitset.New(n)
	members.Add(0)
	var rec func(next, chosen int, dist float64)
	rec = func(next, chosen int, dist float64) {
		if chosen == p {
			if dist < best && rg.GroupFeasible(members, k) {
				best = dist
				bestSet = members.Clone()
			}
			return
		}
		if n-next < p-chosen {
			return
		}
		for v := next; v < n; v++ {
			members.Add(v)
			rec(v+1, chosen+1, dist+rg.Dist[v])
			members.Remove(v)
		}
	}
	rec(1, 1, 0)
	return best, bestSet
}

// bruteSTGQ additionally scans every m-slot activity period.
func bruteSTGQ(rg *socialgraph.RadiusGraph, cal *schedule.Calendar, calUser []int, p, k, m int) float64 {
	best := math.Inf(1)
	n := rg.N()
	for start := 0; start+m <= cal.Horizon(); start++ {
		avail := bitset.New(n)
		for v := 0; v < n; v++ {
			if cal.AvailableDuring(calUser[v], start, m) {
				avail.Add(v)
			}
		}
		if !avail.Contains(0) || avail.Count() < p {
			continue
		}
		// Enumerate groups within avail.
		members := bitset.New(n)
		members.Add(0)
		var rec func(next, chosen int, dist float64)
		rec = func(next, chosen int, dist float64) {
			if chosen == p {
				if dist < best && rg.GroupFeasible(members, k) {
					best = dist
				}
				return
			}
			for v := next; v < n; v++ {
				if !avail.Contains(v) {
					continue
				}
				members.Add(v)
				rec(v+1, chosen+1, dist+rg.Dist[v])
				members.Remove(v)
			}
		}
		rec(1, 1, 0)
	}
	return best
}

func randomRadiusGraph(r *rand.Rand, n int, pEdge float64, s int) *socialgraph.RadiusGraph {
	g := socialgraph.New()
	g.AddVertices(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < pEdge {
				g.MustAddEdge(u, v, float64(1+r.Intn(40)))
			}
		}
	}
	rg, err := g.ExtractRadiusGraph(0, s)
	if err != nil {
		panic(err)
	}
	return rg
}

// randomSchedule returns a calendar over users 0..users−1 and an activity
// length m for the STG quick tests, in one of two shapes chosen per seed.
// The short shape has the given horizon, m from 2 to 4, and every slot
// free with probability free. The wide shape has a horizon of 64 to 200
// slots and m from 2 to 40 — pivot windows start off word boundaries and,
// once 2m − 1 > 64, span several words — filled with long free runs
// broken by short busy gaps, so that groups sharing m slots still occur.
func randomSchedule(r *rand.Rand, users, horizon int, free float64) (*schedule.Calendar, int) {
	if r.Intn(2) == 0 {
		cal := schedule.NewCalendar(users, horizon)
		for u := 0; u < users; u++ {
			for s := 0; s < horizon; s++ {
				if r.Float64() < free {
					cal.SetAvailable(u, s)
				}
			}
		}
		return cal, 2 + r.Intn(3)
	}
	horizon = 64 + r.Intn(137)
	m := 2 + r.Intn(39)
	cal := schedule.NewCalendar(users, horizon)
	for u := 0; u < users; u++ {
		for s := r.Intn(4); s < horizon; {
			run := min(1+r.Intn(4*m), horizon-s)
			cal.SetRange(u, s, s+run, true)
			s += run + 1 + r.Intn(3)
		}
	}
	return cal, m
}

// TestQuickSGSelectMatchesBruteForce is the empirical form of Theorem 2:
// SGSelect returns the same optimum as exhaustive enumeration.
func TestQuickSGSelectMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(6)
		rg := randomRadiusGraph(r, n, 0.25+r.Float64()*0.5, 1+r.Intn(2))
		p := 2 + r.Intn(4)
		k := r.Intn(3)
		want, _ := bruteSGQ(rg, p, k)
		got, _, err := SGSelect(rg, p, k, nil, DefaultOptions())
		if err != nil {
			return errors.Is(err, ErrNoFeasibleGroup) && math.IsInf(want, 1)
		}
		if got.TotalDistance != want {
			t.Logf("seed %d: SGSelect %v, brute %v (p=%d k=%d n=%d)", seed, got.TotalDistance, want, p, k, rg.N())
			return false
		}
		// Returned group must itself be feasible.
		set := bitset.New(rg.N())
		for _, v := range got.Members {
			set.Add(v)
		}
		return set.Count() == p && set.Contains(0) && rg.GroupFeasible(set, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestQuickSTGSelectMatchesBruteForce is the empirical form of Theorem 3.
func TestQuickSTGSelectMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(5)
		rg := randomRadiusGraph(r, n, 0.3+r.Float64()*0.4, 1+r.Intn(2))
		nn := rg.N()
		cal, m := randomSchedule(r, nn, 8+r.Intn(16), 0.75)
		calUser := make([]int, nn)
		for i := range calUser {
			calUser[i] = i
		}
		p := 2 + r.Intn(3)
		k := r.Intn(3)
		want := bruteSTGQ(rg, cal, calUser, p, k, m)
		got, _, err := STGSelect(rg, cal, calUser, p, k, m, DefaultOptions())
		if err != nil {
			if !errors.Is(err, ErrNoFeasibleGroup) || !math.IsInf(want, 1) {
				t.Logf("seed %d: err=%v brute=%v", seed, err, want)
				return false
			}
			return true
		}
		if got.TotalDistance != want {
			t.Logf("seed %d: STGSelect %v, brute %v (p=%d k=%d m=%d)", seed, got.TotalDistance, want, p, k, m)
			return false
		}
		// The returned interval must be genuinely common to all members and
		// at least m long.
		if got.Interval.Len() < m {
			return false
		}
		for _, v := range got.Members {
			for s := got.Interval.Start; s <= got.Interval.End; s++ {
				if !cal.Available(calUser[v], s) {
					t.Logf("seed %d: member %d busy at slot %d inside the returned interval", seed, v, s)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickAblationsPreserveOptimum: every strategy switch must change only
// the effort, never the answer.
func TestQuickAblationsPreserveOptimum(t *testing.T) {
	variants := []Options{
		DefaultOptions(),
		{Theta0: 0, Phi0: 1, PhiMax: 1},
		{Theta0: 4, Phi0: 3, PhiMax: 8},
	}
	{
		o := DefaultOptions()
		o.DisableDistancePruning = true
		variants = append(variants, o)
	}
	{
		o := DefaultOptions()
		o.DisableAccessOrdering = true
		variants = append(variants, o)
	}
	{
		o := DefaultOptions()
		o.DisableDistancePruning = true
		o.DisableAcquaintancePruning = true
		o.DisableAccessOrdering = true
		variants = append(variants, o)
	}

	noCore := DefaultOptions()
	noCore.DisableAcquaintancePruning = true
	variants = append(variants, noCore)

	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rg := randomRadiusGraph(r, 6+r.Intn(5), 0.4, 1+r.Intn(2))
		p := 2 + r.Intn(3)
		k := r.Intn(3)
		ref, _, refErr := SGSelect(rg, p, k, nil, variants[0])
		for _, opt := range variants[1:] {
			got, _, err := SGSelect(rg, p, k, nil, opt)
			if (err == nil) != (refErr == nil) {
				t.Logf("seed %d: err mismatch %v vs %v under %+v", seed, refErr, err, opt)
				return false
			}
			if err == nil && got.TotalDistance != ref.TotalDistance {
				t.Logf("seed %d: %v vs %v under %+v", seed, ref.TotalDistance, got.TotalDistance, opt)
				return false
			}
			// The core removes only vertices of no feasible group, so the
			// search meets the same groups in the same order: the whole
			// answer, not just its distance, must match.
			if opt == noCore && err == nil && !reflect.DeepEqual(got, ref) {
				t.Logf("seed %d: answer %+v, without the core %+v", seed, ref, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickSTGAblationsPreserveOptimum does the same for the temporal
// strategies.
func TestQuickSTGAblationsPreserveOptimum(t *testing.T) {
	var variants []Options
	{
		o := DefaultOptions()
		o.DisableAvailabilityPruning = true
		variants = append(variants, o)
	}
	{
		o := DefaultOptions()
		o.DisableTemporalExtensibility = true
		variants = append(variants, o)
	}
	{
		o := DefaultOptions()
		o.DisableAvailabilityPruning = true
		o.DisableTemporalExtensibility = true
		o.DisableDistancePruning = true
		o.DisableAcquaintancePruning = true
		o.DisableAccessOrdering = true
		variants = append(variants, o)
	}
	noCore := DefaultOptions()
	noCore.DisableAcquaintancePruning = true
	variants = append(variants, noCore)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rg := randomRadiusGraph(r, 5+r.Intn(5), 0.4, 1)
		nn := rg.N()
		cal, m := randomSchedule(r, nn, 8+r.Intn(12), 0.7)
		calUser := make([]int, nn)
		for i := range calUser {
			calUser[i] = i
		}
		p := 2 + r.Intn(3)
		k := r.Intn(2)
		ref, _, refErr := STGSelect(rg, cal, calUser, p, k, m, DefaultOptions())
		for _, opt := range variants {
			got, _, err := STGSelect(rg, cal, calUser, p, k, m, opt)
			if (err == nil) != (refErr == nil) {
				return false
			}
			if err == nil && got.TotalDistance != ref.TotalDistance {
				t.Logf("seed %d: %v vs %v under %+v", seed, ref.TotalDistance, got.TotalDistance, opt)
				return false
			}
			// Members, interval and pivot too (see the SG variant).
			if opt == noCore && err == nil && !reflect.DeepEqual(got, ref) {
				t.Logf("seed %d: answer %+v, without the core %+v", seed, ref, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// forEachGroup calls fn with every vertex set of size p that contains
// vertex 0 and otherwise only vertices of allowed.
func forEachGroup(n, p int, allowed *bitset.Set, fn func(members *bitset.Set)) {
	members := bitset.FromIndices(n, 0)
	var rec func(next, chosen int)
	rec = func(next, chosen int) {
		if chosen == p {
			fn(members)
			return
		}
		for v := next; v < n; v++ {
			if allowed.Contains(v) {
				members.Add(v)
				rec(v+1, chosen+1)
				members.Remove(v)
			}
		}
	}
	rec(1, 1)
}

// coreOf resets an engine for SGQ(p, k) to the candidates cand (nil: the
// whole graph) and returns the set it would search, VS ∪ VA, and whether
// reset reports a search.
func coreOf(rg *socialgraph.RadiusGraph, p, k int, cand *bitset.Set) (*bitset.Set, bool) {
	e := newEngine(rg, p, k, DefaultOptions())
	search := e.reset(cand)
	core := e.va.Clone()
	core.Add(0)
	return core, search
}

// TestQuickPeelKeepsEveryFeasibleGroup: the acquaintance-core peel is
// exact. Over seeded graphs and every k from 0 to p − 1, each group the
// brute force finds feasible within a candidate set survives the peel of
// that set, and reset reports a search; and SGSelect, given a restrict
// that omits the initiator as the baseline passes it, leaves restrict
// untouched and returns exactly the answer it returns without the core.
func TestQuickPeelKeepsEveryFeasibleGroup(t *testing.T) {
	noCore := DefaultOptions()
	noCore.DisableAcquaintancePruning = true
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rg := randomRadiusGraph(r, 5+r.Intn(6), 0.2+r.Float64()*0.6, 1+r.Intn(2))
		n := rg.N()
		p := 2 + r.Intn(4)
		restrict := bitset.New(n)
		for v := 1; v < n; v++ {
			if r.Intn(4) != 0 {
				restrict.Add(v)
			}
		}
		for k := 0; k < p; k++ {
			core, search := coreOf(rg, p, k, restrict)
			ok := true
			forEachGroup(n, p, restrict, func(members *bitset.Set) {
				if ok && rg.GroupFeasible(members, k) && (!search || !members.IsSubsetOf(core)) {
					t.Logf("seed %d p=%d k=%d: feasible group %v not inside the core %v (search %v)", seed, p, k, members, core, search)
					ok = false
				}
			})
			if !ok {
				return false
			}

			before := restrict.Clone()
			got, _, err := SGSelect(rg, p, k, restrict, DefaultOptions())
			want, _, wantErr := SGSelect(rg, p, k, restrict, noCore)
			if !restrict.Equal(before) {
				t.Logf("seed %d: SGSelect modified restrict: %v → %v", seed, before, restrict)
				return false
			}
			if !errors.Is(err, wantErr) || !reflect.DeepEqual(got, want) {
				t.Logf("seed %d p=%d k=%d: %+v (%v), without the core %+v (%v)", seed, p, k, got, err, want, wantErr)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRestrictConfinesCandidates verifies the restrict parameter used by the
// sequential baseline.
func TestRestrictConfinesCandidates(t *testing.T) {
	g, ids := figure3Graph(t)
	rg, _ := g.ExtractRadiusGraph(ids["v7"], 1)
	// Allow only v2, v4, v6 (plus the initiator implicitly).
	allowed := bitset.New(rg.N())
	for i, l := range rg.Labels {
		if l == "v2" || l == "v4" || l == "v6" {
			allowed.Add(i)
		}
	}
	grp, _, err := SGSelect(rg, 4, 1, allowed, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"v2": true, "v4": true, "v6": true, "v7": true}
	got := labelsOf(rg, grp.Members)
	for l := range want {
		if !got[l] {
			t.Errorf("restricted group %v missing %s", got, l)
		}
	}
	if grp.TotalDistance != 67 {
		t.Errorf("restricted distance = %v, want 67", grp.TotalDistance)
	}
}

func TestPeriodLen(t *testing.T) {
	if (Period{Start: 3, End: 5}).Len() != 3 {
		t.Error("Period.Len wrong")
	}
}

package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/schedule"
)

// witnessRules is every rule the engine reports to the witness hook: the
// frame prunes of Lemmas 2 and 5, the permanent rejects of admission, and
// the acquaintance core's peel and cascade. The hook's "frame" call, at
// the top of every pruneFrame, claims nothing and is not among them.
var witnessRules = []string{"distance", "availability", "interior", "temporal", "core", "cascade"}

// falsifyFiring checks one firing of rule against every completion of the
// frame, enumerated by brute force: VS plus need members of VA, with u
// forced in when the rule fired on a vertex (a reject or a core
// removal). The distance rule claims that every completion costs strictly
// more than the incumbent, so it drops no better group and no tie; every
// other rule claims that no completion is feasible — an acquaintance
// constraint met by every member and, in a temporal search, m common
// slots around the pivot. It returns the completion that breaks the claim,
// or "" when the claim holds.
func falsifyFiring(e *engine, rule string, u int) string {
	members := e.vs.Clone()
	var pool []int
	e.va.ForEach(func(v int) bool {
		if v != u {
			pool = append(pool, v)
		}
		return true
	})
	if u >= 0 {
		members.Add(u)
	}
	need := e.p - members.Count()
	cost := func() float64 {
		total := 0.0
		members.ForEach(func(v int) bool {
			if v != 0 {
				total += e.cost(v)
			}
			return true
		})
		return total
	}
	feasible := func() bool {
		if !e.rg.GroupFeasible(members, e.k) {
			return false
		}
		t := e.tmp
		if t == nil {
			return true
		}
		lo, hi := math.MinInt, math.MaxInt
		members.ForEach(func(v int) bool {
			lo, hi = max(lo, t.runLo[v]), min(hi, t.runHi[v])
			return true
		})
		return hi-lo+1 >= t.m
	}
	var broken string
	var rec func(next, left int)
	rec = func(next, left int) {
		if broken != "" {
			return
		}
		if left == 0 {
			if rule == "distance" {
				if c := cost(); c <= e.bestDist {
					broken = fmt.Sprintf("completion %v costs %v, incumbent %v", members, c, e.bestDist)
				}
			} else if feasible() {
				broken = fmt.Sprintf("completion %v is feasible", members)
			}
			return
		}
		for i := next; i <= len(pool)-left; i++ {
			members.Add(pool[i])
			rec(i+1, left-1)
			members.Remove(pool[i])
		}
	}
	if need >= 0 {
		rec(0, need)
	}
	return broken
}

// witnessRun installs the witness hook for the duration of run: every
// firing is checked with falsifyFiring and counted in tally. A broken
// claim fails t with the rule, the frame and the completion.
func witnessRun(t testing.TB, tally map[string]int, label string, run func()) {
	t.Helper()
	witness = func(e *engine, rule string, u int) {
		if rule == "frame" {
			return
		}
		tally[rule]++
		if broken := falsifyFiring(e, rule, u); broken != "" {
			t.Fatalf("%s: rule %s (u=%d) at VS %v, VA %v dropped a %s", label, rule, u, e.vs, e.va, broken)
		}
	}
	defer func() { witness = nil }()
	run()
}

// identityUsers maps radius-graph vertex i to calendar row i.
func identityUsers(n int) []int {
	users := make([]int, n)
	for i := range users {
		users[i] = i
	}
	return users
}

// integralSpat is randomSpat with whole-metre distances, so that the
// witness compares exact sums.
func integralSpat(r *rand.Rand, n int) []float64 {
	spat := randomSpat(r, n)
	for v, d := range spat {
		if d >= 0 {
			spat[v] = math.Floor(d)
		}
	}
	return spat
}

// witnessInstances calls fn with each of seeds seeded SG, STG and GSG
// instances of up to 12 vertices (the kinds in turn): kind names it,
// label describes it, and run solves it under opt.
func witnessInstances(seeds int64, fn func(seed int64, kind, label string, run func(opt Options))) {
	for seed := range seeds {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(8)
		rg := randomRadiusGraph(r, n, 0.3+r.Float64()*0.5, 1+r.Intn(2))
		nn := rg.N()
		p := 2 + r.Intn(5)
		k := r.Intn(3)
		label := fmt.Sprintf("seed %d (n=%d p=%d k=%d)", seed, nn, p, k)
		switch seed % 3 {
		case 0:
			fn(seed, "SG", label, func(opt Options) {
				SGSelect(rg, p, k, nil, opt) //nolint:errcheck — infeasible instances fire rules too
			})
		case 1:
			cal, m := randomSchedule(r, nn, 8+r.Intn(16), 0.75)
			fn(seed, "STG", fmt.Sprintf("%s m=%d", label, m), func(opt Options) {
				STGSelect(rg, cal, identityUsers(nn), p, k, m, opt) //nolint:errcheck
			})
		case 2:
			spat := integralSpat(r, nn)
			var cal *schedule.Calendar
			m := 0
			if r.Intn(2) == 0 {
				cal, m = randomSchedule(r, nn, 8+r.Intn(16), 0.75)
			}
			fn(seed, "GSG", fmt.Sprintf("%s m=%d", label, m), func(opt Options) {
				GSGSelect(rg, spat, cal, identityUsers(nn), p, k, m, opt) //nolint:errcheck
			})
		}
	}
}

// TestWitnessEveryFiring is the per-firing proof of every pruning rule:
// over seeded SG, STG and GSG instances of up to 12 vertices, each firing
// is checked against the completions it drops (falsifyFiring). A rule
// can be unsound and still leave the optimum intact — a dropped group may
// be tied or beaten elsewhere — so the brute-force differentials cannot
// see what this test sees. Every rule must fire somewhere, or the test
// proves nothing about it. Half of the instances run with the
// acquaintance core off, so that the other rules also meet frames that
// are not core-closed.
func TestWitnessEveryFiring(t *testing.T) {
	tally := map[string]map[string]int{"SG": {}, "STG": {}, "GSG": {}}
	witnessInstances(4500, func(seed int64, kind, label string, run func(Options)) {
		opt := DefaultOptions()
		if seed/3%2 == 1 {
			opt.DisableAcquaintancePruning = true
		}
		witnessRun(t, tally[kind], kind+" "+label, func() { run(opt) })
	})
	for _, rule := range witnessRules {
		total := 0
		for _, kind := range []string{"SG", "STG", "GSG"} {
			total += tally[kind][rule]
		}
		t.Logf("%-12s SG %5d  STG %5d  GSG %5d firings", rule, tally["SG"][rule], tally["STG"][rule], tally["GSG"][rule])
		if total == 0 {
			t.Errorf("rule %s never fired: the witness proves nothing about it", rule)
		}
	}
}

// lemmaOracle is a frame of the engine with the two counters the paper's
// acquaintance rules read, recounted from scratch: per vertex |N_v ∩ VA|,
// and their sum over VA.
type lemmaOracle struct {
	*engine
	nbrInVA  []int
	sumInner int
}

// exteriorOK is the exterior-expansibility admission test the engine ran
// until the acquaintance core subsumed it, kept verbatim as an oracle: it
// evaluates A(VS∪{u}) ≥ p − |VS∪{u}| of Definition 3 / Lemma 1, with
// VA' = VA − {u}.
func (e lemmaOracle) exteriorOK(u int) bool {
	need := e.p - (e.vsCount + 1)
	nbrU := e.rg.Nbr[u]
	// Term for v = u: |VA'∩N_u| + (k − |VS − N_u|).
	if e.nbrInVA[u]+(e.k-(e.vsCount-e.nbrInVS[u])) < need {
		return false
	}
	for _, v := range e.vsList {
		adj := nbrU.Contains(v)
		nbrVA := e.nbrInVA[v]
		if adj {
			nbrVA-- // u leaves VA
		}
		nonNbr := e.vsCount - 1 - e.nbrInVS[v]
		if !adj {
			nonNbr++ // u joins VS as a non-neighbor of v
		}
		if nbrVA+(e.k-nonNbr) < need {
			return false
		}
	}
	return true
}

// acquaintancePrune is the Lemma 3 block pruneFrame ran until the
// acquaintance core subsumed it, kept verbatim as an oracle (its firing
// now returns true): it upper-bounds the total inner degree of the best
// need vertices of VA without sorting, against the sound right-hand side
// need·(need − 1 − k).
func (e lemmaOracle) acquaintancePrune() bool {
	need := e.p - e.vsCount
	if !e.opt.DisableAcquaintancePruning {
		rhs := need * (need - 1 - e.k)
		if rhs > 0 && e.vaCount >= need {
			// Cheap form first: lhs ≤ sumInner, so sumInner < rhs already
			// proves the prune. The min-refined form (the paper's
			// improvement that avoids sorting) needs an O(|VA|) scan; apply
			// it only when VA is small enough that the scan is cheaper than
			// the search it might save.
			if e.sumInner < rhs {
				return true
			}
			if e.vaCount <= 64 {
				minInner := math.MaxInt
				e.va.ForEach(func(v int) bool {
					if e.nbrInVA[v] < minInner {
						minInner = e.nbrInVA[v]
					}
					return true
				})
				lhs := e.sumInner - (e.vaCount-need)*minInner
				if lhs < rhs {
					return true
				}
			}
		}
	}
	return false
}

// TestCoreClosedFramesSubsumeLemmas1And3 is the package doc's proof run
// at every frame: over the witness instances under default options, each
// frame pruneFrame sees has VS ∪ VA core-closed (every member knows at
// least p − 1 − k others in it) with the engine's degree counters equal
// to a recount, exterior expansibility as the paper gives it admits every
// VA member, and Lemma 3 prunes nothing.
func TestCoreClosedFramesSubsumeLemmas1And3(t *testing.T) {
	frames, closedBelow := 0, 0
	witnessInstances(4500, func(_ int64, kind, label string, run func(Options)) {
		witness = func(e *engine, rule string, _ int) {
			if rule != "frame" {
				return
			}
			frames++
			live := e.va.Clone()
			live.Or(e.vs)
			c := e.p - 1 - e.k
			o := lemmaOracle{engine: e, nbrInVA: make([]int, e.n)}
			for v := live.NextSet(0); v != -1; v = live.NextSet(v + 1) {
				inVS, deg := 0, 0
				for _, w := range e.rg.Adj[v] {
					switch {
					case e.vs.Contains(w):
						inVS++
						deg++
					case e.va.Contains(w):
						o.nbrInVA[v]++
						deg++
					}
				}
				if deg < c {
					t.Fatalf("%s %s: VS %v, VA %v not core-closed: vertex %d knows %d < %d", kind, label, e.vs, e.va, v, deg, c)
				}
				if e.deg[v] != deg || e.nbrInVS[v] != inVS {
					t.Fatalf("%s %s: vertex %d counters deg %d, nbrInVS %d; recount %d, %d", kind, label, v, e.deg[v], e.nbrInVS[v], deg, inVS)
				}
				if e.va.Contains(v) {
					o.sumInner += o.nbrInVA[v]
				}
			}
			if c > 0 && live.Count() > e.vsCount {
				closedBelow++
			}
			for u := e.va.NextSet(0); u != -1; u = e.va.NextSet(u + 1) {
				if !o.exteriorOK(u) {
					t.Fatalf("%s %s: exterior expansibility rejects %d at VS %v, VA %v", kind, label, u, e.vs, e.va)
				}
			}
			if o.acquaintancePrune() {
				t.Fatalf("%s %s: Lemma 3 prunes VS %v, VA %v", kind, label, e.vs, e.va)
			}
		}
		defer func() { witness = nil }()
		run(DefaultOptions())
	})
	t.Logf("%d frames checked, %d with a positive core degree and VA non-empty", frames, closedBelow)
	if closedBelow == 0 {
		t.Error("no frame had a positive core degree: the test proves nothing")
	}
}

// TestWitnessFlagsDroppedCompletions guards the witness against a vacuous
// pass: with no incumbent every completion is at most +Inf, so a distance
// firing must be flagged, and in a clique every group is feasible, so a
// cascade removal of a clique member must be flagged too.
func TestWitnessFlagsDroppedCompletions(t *testing.T) {
	rg := cliqueGraph(5)
	e := newEngine(rg, 3, 0, DefaultOptions())
	e.reset(nil)
	if broken := falsifyFiring(e, "distance", -1); broken == "" {
		t.Fatal("a distance firing with no incumbent was not flagged")
	}
	if broken := falsifyFiring(e, "cascade", 2); broken == "" {
		t.Fatal("a cascade removal of a clique member was not flagged")
	}
}

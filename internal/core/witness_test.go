package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/schedule"
)

// witnessRules is every rule the engine reports to the witness hook: the
// frame prunes of Lemmas 2, 3 and 5, the permanent rejects of admission,
// and the core cascade.
var witnessRules = []string{"distance", "acquaintance", "availability", "exterior", "interior", "temporal", "cascade"}

// falsifyFiring checks one firing of rule against every completion of the
// frame, enumerated by brute force: VS plus need members of VA, with u
// forced in when the rule fired on a vertex (a reject or a cascade
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

// TestWitnessEveryFiring is the per-firing proof of every pruning rule:
// over seeded SG, STG and GSG instances of up to 12 vertices, each firing
// is checked against the completions it drops (falsifyFiring). A rule
// can be unsound and still leave the optimum intact — a dropped group may
// be tied or beaten elsewhere — so the brute-force differentials cannot
// see what this test sees. Every rule must fire somewhere, or the test
// proves nothing about it. With the peel and the cascade on, the frames
// stay core-closed and Lemma 3 and exterior expansibility rarely have
// anything left to reject, so a third of the instances run with both off,
// and a third with the cascade alone, over candidates nobody peeled.
func TestWitnessEveryFiring(t *testing.T) {
	tally := map[string]map[string]int{"SG": {}, "STG": {}, "GSG": {}}
	for seed := int64(0); seed < 4500; seed++ {
		opt := DefaultOptions()
		switch seed / 3 % 3 {
		case 1:
			opt.DisableCorePeel, opt.DisableCoreCascade = true, true
		case 2:
			opt.DisableCorePeel = true
		}
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(8)
		rg := randomRadiusGraph(r, n, 0.3+r.Float64()*0.5, 1+r.Intn(2))
		nn := rg.N()
		p := 2 + r.Intn(5)
		k := r.Intn(3)
		label := fmt.Sprintf("seed %d (n=%d p=%d k=%d)", seed, nn, p, k)
		switch seed % 3 {
		case 0:
			witnessRun(t, tally["SG"], "SG "+label, func() {
				SGSelect(rg, p, k, nil, opt) //nolint:errcheck — infeasible instances fire rules too
			})
		case 1:
			cal, m := randomSchedule(r, nn, 8+r.Intn(16), 0.75)
			witnessRun(t, tally["STG"], fmt.Sprintf("STG %s m=%d", label, m), func() {
				STGSelect(rg, cal, identityUsers(nn), p, k, m, opt) //nolint:errcheck
			})
		case 2:
			spat := integralSpat(r, nn)
			var cal *schedule.Calendar
			m := 0
			if r.Intn(2) == 0 {
				cal, m = randomSchedule(r, nn, 8+r.Intn(16), 0.75)
			}
			witnessRun(t, tally["GSG"], fmt.Sprintf("GSG %s m=%d", label, m), func() {
				GSGSelect(rg, spat, cal, identityUsers(nn), p, k, m, opt) //nolint:errcheck
			})
		}
	}
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

package stgq_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	stgq "repro"
)

// TestIndexedPlannerMatchesPlainPlanner is the end-to-end differential
// proof of the mutation path: one planner receives a seeded random
// mutation stream, and after every prefix a second planner is loaded
// from its export (stgq.FromDataset(plain.Export(nil))). Both answer the
// same battery of queries (FindGroup, PlanActivity, PlanGeoActivity,
// PlanWithSmallestK). Results must be byte-identical under JSON
// encoding: same members, same distances, same windows, same errors.
// Privacy policies and locations are part of the stream — all three
// policy values, and ShareFriends verdicts flipped by later
// Connect/Disconnect — so on every prefix the rows, policies and
// locations the mutated planner holds must equal the ones export and
// load carry across. Any divergence reports the seed and prefix for
// replay.
func TestIndexedPlannerMatchesPlainPlanner(t *testing.T) {
	for _, seed := range []int64{3, 11, 99, 2024} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			const horizon = 24
			rng := rand.New(rand.NewSource(seed))
			plain := stgq.NewPlanner(horizon)

			// Seed population: enough structure that queries are often
			// feasible, sparse enough that they sometimes are not.
			n := 12 + rng.Intn(8)
			for i := 0; i < n; i++ {
				plain.MustAddPerson(fmt.Sprintf("p%d", i))
			}

			for step := 0; step < 120; step++ {
				a := stgq.PersonID(rng.Intn(n))
				b := stgq.PersonID(rng.Intn(n))
				// Some edits are rejected (self-loops, missing edges);
				// the stream goes on either way.
				switch rng.Intn(12) {
				case 0, 1, 2:
					w := float64(1 + rng.Intn(9))
					plain.Connect(a, b, w) //nolint:errcheck
				case 3:
					plain.Disconnect(a, b) //nolint:errcheck
				case 4, 5, 6, 7:
					from := rng.Intn(horizon)
					to := from + 1 + rng.Intn(horizon-from)
					if rng.Intn(3) == 0 {
						plain.SetBusy(a, from, to) //nolint:errcheck
					} else {
						plain.SetAvailable(a, from, to) //nolint:errcheck
					}
				case 8:
					x, y := float64(rng.Intn(1000)), float64(rng.Intn(1000))
					plain.SetLocation(a, x, y) //nolint:errcheck
				case 9:
					pol := stgq.SharePolicy(rng.Intn(3))
					plain.SetSchedulePolicy(a, pol) //nolint:errcheck
				case 10:
					// A newcomer mid-stream: an all-busy row that export
					// and load must carry like any other.
					plain.MustAddPerson(fmt.Sprintf("p%d", n))
					n++
				default:
					// No mutation this step: query the same state twice.
				}
				loaded := stgq.FromDataset(plain.Export(nil))

				// Initiators from a small pool; parameters vary freely.
				q := stgq.SGQuery{
					Initiator: stgq.PersonID(rng.Intn(4)),
					P:         2 + rng.Intn(3),
					S:         1 + rng.Intn(2),
					K:         rng.Intn(3),
				}
				diffJSON(t, seed, step, "FindGroup",
					func() (any, error) { return plain.FindGroup(q) },
					func() (any, error) { return loaded.FindGroup(q) })

				tq := stgq.STGQuery{SGQuery: q, M: 1 + rng.Intn(3)}
				diffJSON(t, seed, step, "PlanActivity",
					func() (any, error) { return plain.PlanActivity(tq) },
					func() (any, error) { return loaded.PlanActivity(tq) })

				gq := stgq.GSGQuery{SGQuery: q, M: rng.Intn(3), X: 500, Y: 500, Radius: 400}
				diffJSON(t, seed, step, "PlanGeoActivity",
					func() (any, error) { return plain.PlanGeoActivity(gq) },
					func() (any, error) { return loaded.PlanGeoActivity(gq) })

				if step%20 == 19 {
					diffJSON(t, seed, step, "PlanWithSmallestK",
						func() (any, error) {
							k, res, err := plain.PlanWithSmallestK(tq, 100)
							return map[string]any{"k": k, "res": res}, err
						},
						func() (any, error) {
							k, res, err := loaded.PlanWithSmallestK(tq, 100)
							return map[string]any{"k": k, "res": res}, err
						})
				}
			}
		})
	}
}

// diffJSON runs the same query on both planners and requires identical
// outcomes: equal errors, or byte-identical JSON-encoded results.
func diffJSON(t *testing.T, seed int64, step int, op string, plain, loaded func() (any, error)) {
	t.Helper()
	pv, pe := plain()
	fv, fe := loaded()
	if (pe == nil) != (fe == nil) {
		t.Fatalf("seed %d step %d: %s: plain err %v, loaded err %v", seed, step, op, pe, fe)
	}
	if pe != nil {
		if pe.Error() != fe.Error() {
			t.Fatalf("seed %d step %d: %s: plain err %q, loaded err %q", seed, step, op, pe, fe)
		}
		return
	}
	pj, err := json.Marshal(pv)
	if err != nil {
		t.Fatalf("seed %d step %d: %s: marshal plain: %v", seed, step, op, err)
	}
	fj, err := json.Marshal(fv)
	if err != nil {
		t.Fatalf("seed %d step %d: %s: marshal loaded: %v", seed, step, op, err)
	}
	if string(pj) != string(fj) {
		t.Fatalf("seed %d step %d: %s diverged\nplain:   %s\nloaded:  %s", seed, step, op, pj, fj)
	}
}

// TestIndexedPlannerMatchesPlainWithPolicies repeats the differential
// check on a fixed population with a ShareNone and a ShareFriends person
// inside most balls. The planner stores TRUE availability; a query is
// handed its ball's rows with an all-busy row in place of every member
// whose schedule the initiator may not read. A planner loaded from the
// export must make the same substitution, query for query.
func TestIndexedPlannerMatchesPlainWithPolicies(t *testing.T) {
	const horizon = 16
	rng := rand.New(rand.NewSource(77))
	plain := stgq.NewPlanner(horizon)

	for i := 0; i < 10; i++ {
		plain.MustAddPerson(fmt.Sprintf("p%d", i))
	}
	for i := 0; i < 9; i++ {
		if err := plain.Connect(stgq.PersonID(i), stgq.PersonID(i+1), 1); err != nil {
			t.Fatal(err)
		}
		if err := plain.Connect(stgq.PersonID(i), stgq.PersonID((i+3)%10), 2); err != nil && i+3 != 10 {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := plain.SetAvailable(stgq.PersonID(i), 0, 8+i%4); err != nil {
			t.Fatal(err)
		}
	}
	if err := plain.SetSchedulePolicy(3, stgq.ShareNone); err != nil {
		t.Fatal(err)
	}
	if err := plain.SetSchedulePolicy(5, stgq.ShareFriends); err != nil {
		t.Fatal(err)
	}
	loaded := stgq.FromDataset(plain.Export(nil))

	for step := 0; step < 40; step++ {
		q := stgq.STGQuery{
			SGQuery: stgq.SGQuery{
				Initiator: stgq.PersonID(rng.Intn(10)),
				P:         2 + rng.Intn(3),
				S:         1 + rng.Intn(2),
				K:         rng.Intn(2),
			},
			M: 1 + rng.Intn(3),
		}
		diffJSON(t, 77, step, "PlanActivity(policies)",
			func() (any, error) { return plain.PlanActivity(q) },
			func() (any, error) { return loaded.PlanActivity(q) })
	}
}

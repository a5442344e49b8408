package stgq_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	stgq "repro"
)

// TestIndexedPlannerMatchesPlainPlanner is the end-to-end half of the
// fast path's differential proof: two planners receive the identical
// seeded random mutation stream — one with the incremental index
// enabled, one without — and after every prefix both answer the same
// battery of queries (FindGroup, PlanActivity, PlanGeoActivity,
// PlanWithSmallestK). Results must be byte-identical under JSON
// encoding: same members, same distances, same windows, same errors.
// Interleaved graph edits move only the index's sequence stamp, and
// availability edits rebuild its rows between queries.
// Privacy policies are part of the stream — all three values, and
// ShareFriends verdicts flipped by later Connect/Disconnect — and the
// indexed planner keeps its index on under them, so on every prefix the
// masked run rows it searches must equal the masked calendar rows the
// plain planner walks. Any divergence reports the seed and prefix for
// replay.
func TestIndexedPlannerMatchesPlainPlanner(t *testing.T) {
	for _, seed := range []int64{3, 11, 99, 2024} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			const horizon = 24
			rng := rand.New(rand.NewSource(seed))
			plain := stgq.NewPlanner(horizon)
			fast := stgq.NewPlanner(horizon)
			fast.EnableIndex()

			both := func(op string, f func(pl *stgq.Planner) error) {
				t.Helper()
				e1, e2 := f(plain), f(fast)
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("seed %d: %s: plain err %v, indexed err %v", seed, op, e1, e2)
				}
			}

			// Seed population: enough structure that queries are often
			// feasible, sparse enough that they sometimes are not.
			n := 12 + rng.Intn(8)
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("p%d", i)
				both("AddPerson", func(pl *stgq.Planner) error {
					_, err := pl.AddPerson(name)
					return err
				})
			}

			for step := 0; step < 120; step++ {
				a := stgq.PersonID(rng.Intn(n))
				b := stgq.PersonID(rng.Intn(n))
				switch rng.Intn(12) {
				case 0, 1, 2:
					w := float64(1 + rng.Intn(9))
					both("Connect", func(pl *stgq.Planner) error { return pl.Connect(a, b, w) })
				case 3:
					both("Disconnect", func(pl *stgq.Planner) error { return pl.Disconnect(a, b) })
				case 4, 5, 6, 7:
					from := rng.Intn(horizon)
					to := from + 1 + rng.Intn(horizon-from)
					if rng.Intn(3) == 0 {
						both("SetBusy", func(pl *stgq.Planner) error { return pl.SetBusy(a, from, to) })
					} else {
						both("SetAvailable", func(pl *stgq.Planner) error { return pl.SetAvailable(a, from, to) })
					}
				case 8:
					x, y := float64(rng.Intn(1000)), float64(rng.Intn(1000))
					both("SetLocation", func(pl *stgq.Planner) error { return pl.SetLocation(a, x, y) })
				case 9:
					pol := stgq.SharePolicy(rng.Intn(3))
					both("SetSchedulePolicy", func(pl *stgq.Planner) error { return pl.SetSchedulePolicy(a, pol) })
				case 10:
					// A newcomer mid-stream: the indexed planner appends an
					// all-busy row and must go on answering like the plain one.
					name := fmt.Sprintf("p%d", n)
					n++
					both("AddPerson", func(pl *stgq.Planner) error {
						_, err := pl.AddPerson(name)
						return err
					})
				default:
					// No mutation this step: query the same state twice.
				}

				// Initiators from a small pool; parameters vary freely.
				q := stgq.SGQuery{
					Initiator: stgq.PersonID(rng.Intn(4)),
					P:         2 + rng.Intn(3),
					S:         1 + rng.Intn(2),
					K:         rng.Intn(3),
				}
				diffJSON(t, seed, step, "FindGroup",
					func() (any, error) { return plain.FindGroup(q) },
					func() (any, error) { return fast.FindGroup(q) })

				tq := stgq.STGQuery{SGQuery: q, M: 1 + rng.Intn(3)}
				diffJSON(t, seed, step, "PlanActivity",
					func() (any, error) { return plain.PlanActivity(tq) },
					func() (any, error) { return fast.PlanActivity(tq) })

				gq := stgq.GSGQuery{SGQuery: q, M: rng.Intn(3), X: 500, Y: 500, Radius: 400}
				diffJSON(t, seed, step, "PlanGeoActivity",
					func() (any, error) { return plain.PlanGeoActivity(gq) },
					func() (any, error) { return fast.PlanGeoActivity(gq) })

				if step%20 == 19 {
					diffJSON(t, seed, step, "PlanWithSmallestK",
						func() (any, error) {
							k, res, err := plain.PlanWithSmallestK(tq, 100)
							return map[string]any{"k": k, "res": res}, err
						},
						func() (any, error) {
							k, res, err := fast.PlanWithSmallestK(tq, 100)
							return map[string]any{"k": k, "res": res}, err
						})
				}
			}

			if !fast.IndexEnabled() {
				t.Fatalf("seed %d: indexed planner lost its index", seed)
			}
		})
	}
}

// diffJSON runs the same query on both planners and requires identical
// outcomes: equal errors, or byte-identical JSON-encoded results.
func diffJSON(t *testing.T, seed int64, step int, op string, plain, fast func() (any, error)) {
	t.Helper()
	pv, pe := plain()
	fv, fe := fast()
	if (pe == nil) != (fe == nil) {
		t.Fatalf("seed %d step %d: %s: plain err %v, indexed err %v", seed, step, op, pe, fe)
	}
	if pe != nil {
		if pe.Error() != fe.Error() {
			t.Fatalf("seed %d step %d: %s: plain err %q, indexed err %q", seed, step, op, pe, fe)
		}
		return
	}
	pj, err := json.Marshal(pv)
	if err != nil {
		t.Fatalf("seed %d step %d: %s: marshal plain: %v", seed, step, op, err)
	}
	fj, err := json.Marshal(fv)
	if err != nil {
		t.Fatalf("seed %d step %d: %s: marshal indexed: %v", seed, step, op, err)
	}
	if string(pj) != string(fj) {
		t.Fatalf("seed %d step %d: %s diverged\nplain:   %s\nindexed: %s", seed, step, op, pj, fj)
	}
}

// TestIndexedPlannerMatchesPlainWithPolicies repeats the differential
// check on a fixed population with a ShareNone and a ShareFriends person
// inside most balls. The index tracks TRUE availability and stays on
// under policies: a query is handed the run rows of its ball's members,
// with the all-busy run row in place of every member whose schedule the
// initiator may not read — the same substitution the calendar view makes
// — so indexed and plain planners must still agree query for query.
func TestIndexedPlannerMatchesPlainWithPolicies(t *testing.T) {
	const horizon = 16
	rng := rand.New(rand.NewSource(77))
	plain := stgq.NewPlanner(horizon)
	fast := stgq.NewPlanner(horizon)
	fast.EnableIndex()

	for _, pl := range []*stgq.Planner{plain, fast} {
		for i := 0; i < 10; i++ {
			pl.MustAddPerson(fmt.Sprintf("p%d", i))
		}
		for i := 0; i < 9; i++ {
			if err := pl.Connect(stgq.PersonID(i), stgq.PersonID(i+1), 1); err != nil {
				t.Fatal(err)
			}
			if err := pl.Connect(stgq.PersonID(i), stgq.PersonID((i+3)%10), 2); err != nil && i+3 != 10 {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			if err := pl.SetAvailable(stgq.PersonID(i), 0, 8+i%4); err != nil {
				t.Fatal(err)
			}
		}
		if err := pl.SetSchedulePolicy(3, stgq.ShareNone); err != nil {
			t.Fatal(err)
		}
		if err := pl.SetSchedulePolicy(5, stgq.ShareFriends); err != nil {
			t.Fatal(err)
		}
	}

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
			func() (any, error) { return fast.PlanActivity(q) })
	}
}

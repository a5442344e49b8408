// Engine benchmarks through the planner: each engine family runs the same
// repeated-query workload against one planner. Every query extracts the
// radius graph from the graph and, for the temporal engines, reads its
// pivot windows from the calendar rows.
package stgq_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	stgq "repro"
	"repro/internal/core"
	"repro/internal/dataset"
)

// enginePlanner builds a deterministic mid-size population: a connected
// social graph with local clustering, fragmented availability, and
// clustered locations — enough structure that the repeated queries below
// are usually feasible and pivot windows have real runs to find.
func enginePlanner() *stgq.Planner {
	const n, horizon = 300, 24
	rng := rand.New(rand.NewSource(benchSeed))
	pl := stgq.NewPlanner(horizon)
	for i := 0; i < n; i++ {
		pl.MustAddPerson(fmt.Sprintf("p%d", i))
	}
	for i := 1; i < n; i++ {
		// A backbone edge plus a couple of shortcuts: small diameter,
		// plenty of acquaintance structure near every initiator.
		pl.Connect(stgq.PersonID(i), stgq.PersonID(i-1), float64(1+rng.Intn(5)))         //nolint:errcheck
		pl.Connect(stgq.PersonID(i), stgq.PersonID(rng.Intn(i)), float64(1+rng.Intn(9))) //nolint:errcheck
		if i >= 10 {
			pl.Connect(stgq.PersonID(i), stgq.PersonID(i-10), float64(1+rng.Intn(9))) //nolint:errcheck
		}
	}
	for i := 0; i < n; i++ {
		// Two availability windows per person, fragmenting the day so
		// pivot-run lookups do real work.
		from := rng.Intn(8)
		pl.SetAvailable(stgq.PersonID(i), from, from+4+rng.Intn(6))                        //nolint:errcheck
		pl.SetAvailable(stgq.PersonID(i), 16+rng.Intn(4), horizon-1)                       //nolint:errcheck
		pl.SetBusy(stgq.PersonID(i), 12, 14)                                               //nolint:errcheck
		pl.SetLocation(stgq.PersonID(i), float64(rng.Intn(1000)), float64(rng.Intn(1000))) //nolint:errcheck
	}
	return pl
}

// engineQueries is the repeated workload: a small initiator pool (the
// same initiators asking again) with lightly varied parameters.
func engineQueries() []stgq.STGQuery {
	rng := rand.New(rand.NewSource(benchSeed + 1))
	qs := make([]stgq.STGQuery, 32)
	for i := range qs {
		qs[i] = stgq.STGQuery{
			SGQuery: stgq.SGQuery{
				Initiator: stgq.PersonID(rng.Intn(8)),
				P:         4 + rng.Intn(3),
				S:         1 + rng.Intn(2),
				K:         1 + rng.Intn(2),
			},
			M: 2 + rng.Intn(3),
		}
	}
	return qs
}

func benchEngine(b *testing.B, run func(pl *stgq.Planner, q stgq.STGQuery)) {
	qs := engineQueries()
	pl := enginePlanner()
	// Warm up: the steady state of a serving planner, not a cold start.
	for _, q := range qs[:8] {
		run(pl, q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(pl, qs[i%len(qs)])
	}
}

func BenchmarkSGSelect(b *testing.B) {
	benchEngine(b, func(pl *stgq.Planner, q stgq.STGQuery) {
		pl.FindGroup(q.SGQuery) //nolint:errcheck — infeasibility is part of the workload
	})
}

func BenchmarkSTGSelect(b *testing.B) {
	benchEngine(b, func(pl *stgq.Planner, q stgq.STGQuery) {
		pl.PlanActivity(q) //nolint:errcheck
	})
}

// BenchmarkPlanActivityAfterWrite is the write → temporal read pair of the
// write-heavy serving workloads, on the populations the repository's
// benchmark uses: SetBusy on the initiator, then PlanActivity by the same
// person. The read must cost what any other read costs — a view of the
// initiator's ball — so allocs/op follow the ball's size, not the
// population's. Each iteration moves to another person, so each read is
// a different ball; the stride starts away from person 0, the
// generator's biggest hub, so that a one-iteration smoke run times an
// ordinary ball.
func BenchmarkPlanActivityAfterWrite(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			pl := stgq.FromDataset(dataset.Synthetic(n, 1, 2))
			horizon := pl.Horizon()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := stgq.PersonID((i + 1) * 7919 % n)
				if err := pl.SetBusy(p, i%horizon, i%horizon+1); err != nil {
					b.Fatal(err)
				}
				pl.PlanActivity(stgq.STGQuery{SGQuery: stgq.SGQuery{Initiator: p, P: 4, S: 2, K: 1}, M: 4}) //nolint:errcheck
			}
		})
	}
}

func BenchmarkGSGSelect(b *testing.B) {
	benchEngine(b, func(pl *stgq.Planner, q stgq.STGQuery) {
		pl.PlanGeoActivity(stgq.GSGQuery{SGQuery: q.SGQuery, M: q.M, X: 500, Y: 500, Radius: 600}) //nolint:errcheck
	})
}

// BenchmarkSearchHeavyPass is the in-process twin of the benchmark's
// search_heavy_600 workload: one op is one pass over
// dataset.Synthetic(600, 1, 7) in which every person asks once, within
// two hops — an SGQ (p 5, k 1) for three initiators in ten and an STGQ
// (p 5, k 1, m 6) for the rest — each query a QueryView and one engine
// call. Besides ms/pass it reports the branch-and-bound's own effort per
// pass: include-branches opened (nodes/op) and admission tests
// (admissions/op), the counts the engine's pruning rules move.
func BenchmarkSearchHeavyPass(b *testing.B) {
	const people = 600
	pl := stgq.FromDataset(dataset.Synthetic(people, 1, 7))
	opt := core.DefaultOptions()
	var nodes, admissions int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for q := 0; q < people; q++ {
			sg := q%10 < 3
			rg, cal, users, err := pl.QueryView(stgq.PersonID(q), 2, !sg)
			if err != nil {
				b.Fatal(err)
			}
			var st core.Stats
			if sg {
				_, st, _ = core.SGSelect(rg, 5, 1, nil, opt)
			} else {
				_, st, _ = core.STGSelect(rg, cal, users, 5, 1, 6, opt)
			}
			nodes += st.NodesExpanded
			admissions += st.VerticesExamined
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed())/float64(time.Millisecond)/float64(b.N), "ms/pass")
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
	b.ReportMetric(float64(admissions)/float64(b.N), "admissions/op")
}

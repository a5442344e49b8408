// Movienight recreates Example 1 of the paper: Casey Affleck plans
// gatherings over his ego network (Figure 2 of the paper), exercising the
// social radius constraint s, the acquaintance constraint k, and the
// temporal constraint m.
//
// Run with:
//
//	go run ./examples/movienight
package main

import (
	"errors"
	"fmt"
	"log"

	stgq "repro"
	"repro/internal/baseline"
)

func main() {
	// Six time slots ts1..ts6 (indices 0..5), as in Figure 2(c).
	pl := stgq.NewPlanner(6)

	jolie := pl.MustAddPerson("Angelina Jolie")       // v1
	clooney := pl.MustAddPerson("George Clooney")     // v2
	deniro := pl.MustAddPerson("Robert De Niro")      // v3
	pitt := pl.MustAddPerson("Brad Pitt")             // v4
	damon := pl.MustAddPerson("Matt Damon")           // v5
	roberts := pl.MustAddPerson("Julia Roberts")      // v6
	affleck := pl.MustAddPerson("Casey Affleck")      // v7
	monaghan := pl.MustAddPerson("Michelle Monaghan") // v8

	// Cooperation-derived distances (Figure 2(a), reconstructed so every
	// outcome the paper reports holds; see the repository tests).
	conn := func(a, b stgq.PersonID, d float64) {
		if err := pl.Connect(a, b, d); err != nil {
			log.Fatal(err)
		}
	}
	conn(affleck, clooney, 17)
	conn(affleck, deniro, 18)
	conn(affleck, roberts, 20)
	conn(affleck, monaghan, 25)
	conn(affleck, pitt, 27)
	conn(clooney, pitt, 10)
	conn(clooney, roberts, 19)
	conn(deniro, pitt, 8)
	conn(deniro, roberts, 24)
	conn(pitt, roberts, 23)
	conn(jolie, clooney, 28)
	conn(jolie, deniro, 14)
	conn(jolie, pitt, 18)
	conn(jolie, damon, 20)
	conn(damon, deniro, 26)
	conn(damon, clooney, 39)
	conn(damon, monaghan, 30)

	avail := map[stgq.PersonID][]int{
		jolie:    {1, 2, 3, 4},
		clooney:  {0, 1, 2, 3, 4},
		deniro:   {1, 2, 3, 4, 5},
		pitt:     {0, 1, 2, 3, 4, 5},
		damon:    {0, 2, 3, 4},
		roberts:  {1, 2, 4},
		affleck:  {1, 2, 3, 4, 5},
		monaghan: {0, 1, 2, 3, 5},
	}
	for p, slots := range avail {
		for _, s := range slots {
			if err := pl.SetAvailable(p, s, s+1); err != nil {
				log.Fatal(err)
			}
		}
	}

	// 1. Three close friends for a movie, ignoring how well they know each
	// other (k loose): the closest three are not mutually acquainted.
	loose, err := pl.FindGroup(stgq.SGQuery{Initiator: affleck, P: 4, S: 1, K: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("movie, k unconstrained:", names(loose.Members), "distance", loose.TotalDistance)

	// 2. The same query with k=0: everyone must know everyone.
	clique, err := pl.FindGroup(stgq.SGQuery{Initiator: affleck, P: 4, S: 1, K: 0})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("movie, mutual friends (k=0):", names(clique.Members), "distance", clique.TotalDistance)

	// 3. Six seats on the chartered plane to Haiti: friends of friends are
	// welcome (s=2), small cliques preferred (k=2).
	plane, err := pl.FindGroup(stgq.SGQuery{Initiator: affleck, P: 6, S: 2, K: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("plane, p=6 s=2 k=2:", names(plane.Members), "distance", plane.TotalDistance)

	// 4. The same six-person trip, but they must share three consecutive
	// slots — the plane group has no common window, so the answer changes.
	trip, err := pl.PlanActivity(stgq.STGQuery{
		SGQuery: stgq.SGQuery{Initiator: affleck, P: 6, S: 2, K: 2},
		M:       3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trip, m=3: %v leaving ts%d–ts%d, distance %g\n",
		names(trip.Members), trip.Window.Start+1, trip.Window.End, trip.TotalDistance)

	// Cross-check every answer against the exhaustive baseline, run on the
	// view the planner searched.
	for _, q := range []stgq.SGQuery{
		{Initiator: affleck, P: 4, S: 1, K: 3},
		{Initiator: affleck, P: 4, S: 1, K: 0},
		{Initiator: affleck, P: 6, S: 2, K: 2},
	} {
		fast, err1 := pl.FindGroup(q)
		rg, _, _, err := pl.QueryView(q.Initiator, q.S, false)
		if err != nil {
			log.Fatal(err)
		}
		slow, err2 := baseline.SGQ(rg, q.P, q.K, nil)
		if !errors.Is(err1, err2) && (err1 != nil || err2 != nil) {
			log.Fatalf("engines disagree on feasibility: %v vs %v", err1, err2)
		}
		if err1 == nil && fast.TotalDistance != slow.TotalDistance {
			log.Fatalf("engines disagree: %v vs %v", fast.TotalDistance, slow.TotalDistance)
		}
	}
	fmt.Println("all answers verified against exhaustive enumeration ✓")
}

func names(ms []stgq.Member) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

// Weekplanner runs the activity-planning service on the 194-person dataset
// with a full week of schedules: three differently shaped activities for
// the same initiator, plus a comparison against simulated manual
// coordination (the paper's PCArrange).
//
// Run with:
//
//	go run ./examples/weekplanner
package main

import (
	"errors"
	"fmt"
	"log"

	stgq "repro"
	"repro/internal/dataset"
)

func main() {
	d := dataset.Real194(42, 7)
	pl := stgq.FromDataset(d)
	me := stgq.PersonID(d.PickInitiator(75))
	fmt.Printf("planning for person %d (%d direct friends, %d people, %d friendships)\n\n",
		me, d.Graph.Degree(int(me)), pl.NumPeople(), pl.NumFriendships())

	activities := []struct {
		name  string
		query stgq.STGQuery
	}{
		{"dinner with 5 close friends (2h, tight circle)", stgq.STGQuery{
			SGQuery: stgq.SGQuery{Initiator: me, P: 6, S: 1, K: 1}, M: 4}},
		{"movie night for 4 (3h)", stgq.STGQuery{
			SGQuery: stgq.SGQuery{Initiator: me, P: 4, S: 1, K: 0}, M: 6}},
		{"weekend hike with 8, friends-of-friends welcome (6h)", stgq.STGQuery{
			SGQuery: stgq.SGQuery{Initiator: me, P: 8, S: 2, K: 3}, M: 12}},
	}

	for _, a := range activities {
		fmt.Println("▸", a.name)
		plan, err := pl.PlanActivity(a.query)
		if errors.Is(err, stgq.ErrNoFeasibleGroup) {
			fmt.Println("  no feasible group — relax k or shorten the activity")
			continue
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  when: %s (total social distance %g)\n", plan.Window.Format(), plan.TotalDistance)
		fmt.Print("  who:  ")
		for i, m := range plan.Members {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Printf("person-%d", m.ID)
		}
		fmt.Printf("\n  effort: %d vertices examined, %d branches, %d prunes\n",
			plan.Stats.VerticesExamined, plan.Stats.NodesExpanded,
			plan.Stats.DistancePrunes+plan.Stats.AvailabilityPrunes)
	}

	// How would phone-around coordination do on the dinner?
	fmt.Println("\n▸ the same dinner, coordinated manually (PCArrange)")
	dinner := activities[0].query
	manual, err := pl.PlanManually(dinner)
	if errors.Is(err, stgq.ErrCannotCoordinate) {
		fmt.Println("  manual coordination could not assemble the group")
		return
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  manual: distance %g, observed k=%d, at %s\n",
		manual.TotalDistance, manual.ObservedK, manual.Window.Format())

	k, auto, err := pl.PlanWithSmallestK(dinner, manual.TotalDistance)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  STGSelect matches it with k=%d: distance %g at %s\n",
		k, auto.TotalDistance, auto.Window.Format())
	switch {
	case auto.TotalDistance < manual.TotalDistance:
		fmt.Println("  → the automatic planner found a strictly closer group")
	case k < manual.ObservedK:
		fmt.Println("  → same distance, but a much better-acquainted group")
	default:
		fmt.Println("  → matched manual coordination exactly")
	}
}

// Command stgq answers social(-temporal) group queries against a dataset
// file produced by stgqgen.
//
// Usage:
//
//	stgq -data real194.json -initiator 12 -p 5 -s 2 -k 2            # SGQ
//	stgq -data real194.json -initiator 12 -p 5 -s 2 -k 2 -m 4      # STGQ
//	stgq -data real194.json -initiator 12 -p 5 -s 2 -k 2 -m 4 -alg ip
//	stgq -data real194.json -initiator 12 -p 5 -s 2 -m 4 -manual   # PCArrange
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	stgq "repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ipmodel"
	"repro/internal/socialgraph"
)

func main() {
	var (
		data      = flag.String("data", "", "dataset JSON file (required)")
		initiator = flag.Int("initiator", -1, "initiator vertex id (default: a busy member)")
		p         = flag.Int("p", 4, "activity size (attendees incl. initiator)")
		s         = flag.Int("s", 1, "social radius constraint (edges)")
		k         = flag.Int("k", 2, "acquaintance constraint")
		m         = flag.Int("m", 0, "activity length in slots (0 = SGQ, no temporal constraint)")
		algName   = flag.String("alg", "select", "engine: select, baseline, or ip")
		manual    = flag.Bool("manual", false, "simulate manual coordination (PCArrange) instead")
		stats     = flag.Bool("stats", false, "print search statistics")
		grid      = flag.Bool("grid", false, "render the group's availability around the window")
	)
	flag.Parse()
	if *data == "" {
		fmt.Fprintln(os.Stderr, "stgq: -data is required (generate one with stgqgen)")
		os.Exit(2)
	}

	f, err := os.Open(*data)
	if err != nil {
		fatal(err)
	}
	d, err := dataset.Load(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	pl := stgq.FromDataset(d)

	q := stgq.PersonID(*initiator)
	if *initiator < 0 {
		q = stgq.PersonID(d.PickInitiator(75))
		fmt.Printf("initiator not given; using vertex %d (degree %d)\n", q, d.Graph.Degree(int(q)))
	}

	switch *algName {
	case "select", "baseline", "ip":
	default:
		fmt.Fprintf(os.Stderr, "stgq: unknown -alg %q\n", *algName)
		os.Exit(2)
	}

	base := stgq.SGQuery{Initiator: q, P: *p, S: *s, K: *k}

	switch {
	case *manual:
		if *m < 1 {
			fmt.Fprintln(os.Stderr, "stgq: -manual needs -m >= 1")
			os.Exit(2)
		}
		plan, err := pl.PlanManually(stgq.STGQuery{SGQuery: base, M: *m})
		if err != nil {
			queryFatal(err)
		}
		fmt.Printf("manual coordination assembled %d attendees, total distance %g, observed k=%d\n",
			len(plan.Members), plan.TotalDistance, plan.ObservedK)
		printMembers(plan.Members)
		fmt.Printf("activity period: %s\n", plan.Window.Format())
	case *m >= 1:
		plan, err := planActivity(pl, stgq.STGQuery{SGQuery: base, M: *m}, *algName)
		if err != nil {
			queryFatal(err)
		}
		fmt.Printf("optimal group (total distance %g) free %s\n", plan.TotalDistance, plan.Window.Format())
		printMembers(plan.Members)
		if *grid {
			fmt.Print(pl.GridForPlan(plan, 4))
		}
		if *stats {
			fmt.Printf("stats: %+v\n", plan.Stats)
		}
	default:
		res, err := findGroup(pl, base, *algName)
		if err != nil {
			queryFatal(err)
		}
		fmt.Printf("optimal group, total distance %g\n", res.TotalDistance)
		printMembers(res.Members)
		if *stats {
			fmt.Printf("stats: %+v\n", res.Stats)
		}
	}
}

// findGroup answers q with the engine alg names: the planner's SGSelect,
// or one of the paper's comparators run on the view the planner searches.
func findGroup(pl *stgq.Planner, q stgq.SGQuery, alg string) (*stgq.GroupResult, error) {
	if alg == "select" {
		return pl.FindGroup(q)
	}
	rg, _, _, err := pl.QueryView(q.Initiator, q.S, false)
	if err != nil {
		return nil, err
	}
	var grp *core.Group
	if alg == "baseline" {
		grp, err = baseline.SGQ(rg, q.P, q.K, nil)
	} else {
		grp, err = ipmodel.SGQReduced(rg, q.P, q.K, ipmodel.SolveOptions{})
	}
	if err != nil {
		return nil, err
	}
	return &stgq.GroupResult{Members: viewMembers(rg, grp.Members), TotalDistance: grp.TotalDistance}, nil
}

// planActivity is findGroup for a social-temporal query.
func planActivity(pl *stgq.Planner, q stgq.STGQuery, alg string) (*stgq.PlanResult, error) {
	if alg == "select" {
		return pl.PlanActivity(q)
	}
	rg, cal, users, err := pl.QueryView(q.Initiator, q.S, true)
	if err != nil {
		return nil, err
	}
	var ans *core.STGroup
	if alg == "baseline" {
		ans, err = baseline.STGQ(rg, cal, users, q.P, q.K, q.M, stgq.DefaultOptions())
	} else {
		ans, err = ipmodel.STGQReduced(rg, cal, users, q.P, q.K, q.M, ipmodel.SolveOptions{})
	}
	if err != nil {
		return nil, err
	}
	return &stgq.PlanResult{
		GroupResult: stgq.GroupResult{Members: viewMembers(rg, ans.Members), TotalDistance: ans.TotalDistance},
		Window:      stgq.TimeWindow{Start: ans.Interval.Start, End: ans.Interval.End + 1},
		PivotSlot:   ans.Pivot,
	}, nil
}

// viewMembers names the radius-graph vertices of an answer.
func viewMembers(rg *socialgraph.RadiusGraph, vs []int) []stgq.Member {
	members := make([]stgq.Member, len(vs))
	for i, v := range vs {
		members[i] = stgq.Member{ID: stgq.PersonID(rg.Orig[v]), Name: rg.Labels[v], Distance: rg.Dist[v]}
	}
	return members
}

func printMembers(members []stgq.Member) {
	for _, mb := range members {
		name := mb.Name
		if name == "" {
			name = fmt.Sprintf("person-%d", mb.ID)
		}
		fmt.Printf("  %-20s distance %g\n", name, mb.Distance)
	}
}

func queryFatal(err error) {
	if errors.Is(err, stgq.ErrNoFeasibleGroup) {
		fmt.Println("no feasible group: relax k, enlarge s, shrink p or m")
		os.Exit(1)
	}
	if errors.Is(err, stgq.ErrCannotCoordinate) {
		fmt.Println("manual coordination failed to assemble enough attendees")
		os.Exit(1)
	}
	fatal(err)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "stgq: %v\n", err)
	os.Exit(1)
}

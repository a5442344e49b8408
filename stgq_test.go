package stgq_test

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	stgq "repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ipmodel"
	"repro/internal/schedule"
	"repro/internal/socialgraph"
)

// examplePlanner builds the Figure 3 instance through the public API.
func examplePlanner(t testing.TB) (*stgq.Planner, map[string]stgq.PersonID) {
	t.Helper()
	pl := stgq.NewPlanner(7)
	ids := map[string]stgq.PersonID{}
	for _, n := range []string{"v2", "v3", "v4", "v6", "v7", "v8"} {
		ids[n] = pl.MustAddPerson(n)
	}
	conn := func(a, b string, d float64) {
		if err := pl.Connect(ids[a], ids[b], d); err != nil {
			t.Fatal(err)
		}
	}
	conn("v7", "v2", 17)
	conn("v7", "v3", 18)
	conn("v7", "v6", 23)
	conn("v7", "v8", 25)
	conn("v7", "v4", 27)
	conn("v2", "v4", 14)
	conn("v2", "v6", 19)
	conn("v3", "v4", 20)
	conn("v4", "v6", 29)
	avail := map[string][][2]int{
		"v2": {{0, 7}},
		"v3": {{1, 3}, {4, 6}},
		"v4": {{0, 5}, {6, 7}},
		"v6": {{1, 7}},
		"v7": {{0, 6}},
		"v8": {{0, 1}, {2, 3}, {4, 6}},
	}
	for n, ranges := range avail {
		for _, r := range ranges {
			if err := pl.SetAvailable(ids[n], r[0], r[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return pl, ids
}

// engineAnswer is one exact engine's answer to a query, for comparing the
// planner's engine with the paper's comparators on the same query view.
type engineAnswer struct {
	engine  string
	dist    float64
	members []string
	window  stgq.TimeWindow
}

func memberNames(ms []stgq.Member) []string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	return names
}

func vertexNames(rg *socialgraph.RadiusGraph, vs []int) []string {
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = rg.Labels[v]
	}
	return names
}

// TestFindGroupAllEngines: FindGroup (SGSelect), the exhaustive baseline
// and the Appendix-D integer program agree on the Figure 3 SGQ, the
// comparators running on the view FindGroup searched.
func TestFindGroupAllEngines(t *testing.T) {
	pl, ids := examplePlanner(t)
	q := stgq.SGQuery{Initiator: ids["v7"], P: 4, S: 1, K: 1}
	res, err := pl.FindGroup(q)
	if err != nil {
		t.Fatal(err)
	}
	rg, _, _, err := pl.QueryView(q.Initiator, q.S, false)
	if err != nil {
		t.Fatal(err)
	}
	base, err := baseline.SGQ(rg, q.P, q.K, nil)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	ip, err := ipmodel.SGQReduced(rg, q.P, q.K, ipmodel.SolveOptions{})
	if err != nil {
		t.Fatalf("IP: %v", err)
	}
	for _, got := range []engineAnswer{
		{engine: "SGSelect", dist: res.TotalDistance, members: memberNames(res.Members)},
		{engine: "baseline", dist: base.TotalDistance, members: vertexNames(rg, base.Members)},
		{engine: "IP", dist: ip.TotalDistance, members: vertexNames(rg, ip.Members)},
	} {
		if got.dist != 62 {
			t.Errorf("%s: distance = %v, want 62", got.engine, got.dist)
		}
		if len(got.members) != 4 {
			t.Errorf("%s: %d members, want 4", got.engine, len(got.members))
		}
	}
}

// TestPlanActivityAllEngines: PlanActivity (STGSelect), the baseline and
// the integer program agree on the Figure 3 STGQ, the comparators running
// on the view PlanActivity searched.
func TestPlanActivityAllEngines(t *testing.T) {
	pl, ids := examplePlanner(t)
	q := stgq.STGQuery{SGQuery: stgq.SGQuery{Initiator: ids["v7"], P: 4, S: 1, K: 1}, M: 3}
	res, err := pl.PlanActivity(q)
	if err != nil {
		t.Fatal(err)
	}
	rg, cal, users, err := pl.QueryView(q.Initiator, q.S, true)
	if err != nil {
		t.Fatal(err)
	}
	base, err := baseline.STGQ(rg, cal, users, q.P, q.K, q.M, stgq.DefaultOptions())
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	ip, err := ipmodel.STGQReduced(rg, cal, users, q.P, q.K, q.M, ipmodel.SolveOptions{})
	if err != nil {
		t.Fatalf("IP: %v", err)
	}
	window := func(iv core.Period) stgq.TimeWindow { return stgq.TimeWindow{Start: iv.Start, End: iv.End + 1} }
	for _, got := range []engineAnswer{
		{engine: "STGSelect", dist: res.TotalDistance, members: memberNames(res.Members), window: res.Window},
		{engine: "baseline", dist: base.TotalDistance, members: vertexNames(rg, base.Members), window: window(base.Interval)},
		{engine: "IP", dist: ip.TotalDistance, members: vertexNames(rg, ip.Members), window: window(ip.Interval)},
	} {
		if got.dist != 67 {
			t.Errorf("%s: distance = %v, want 67", got.engine, got.dist)
		}
		if got.window.Start != 1 || got.window.End != 5 {
			t.Errorf("%s: window = %+v, want [1,5)", got.engine, got.window)
		}
		for _, want := range []string{"v2", "v4", "v6", "v7"} {
			if !slices.Contains(got.members, want) {
				t.Errorf("%s: members %v missing %s", got.engine, got.members, want)
			}
		}
	}
}

func TestManualVsAutomaticPlanning(t *testing.T) {
	pl, ids := examplePlanner(t)
	manual, err := pl.PlanManually(stgq.STGQuery{
		SGQuery: stgq.SGQuery{Initiator: ids["v7"], P: 4, S: 1},
		M:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if manual.Window.Len() != 3 {
		t.Errorf("manual window %+v, want length 3", manual.Window)
	}
	k, plan, err := pl.PlanWithSmallestK(stgq.STGQuery{
		SGQuery: stgq.SGQuery{Initiator: ids["v7"], P: 4, S: 1},
		M:       3,
	}, manual.TotalDistance)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalDistance > manual.TotalDistance {
		t.Errorf("automatic plan %v worse than manual %v", plan.TotalDistance, manual.TotalDistance)
	}
	if k > manual.ObservedK {
		t.Errorf("smallest k %d exceeds manual k_h %d", k, manual.ObservedK)
	}
}

func TestQueryErrors(t *testing.T) {
	pl, ids := examplePlanner(t)
	if _, err := pl.FindGroup(stgq.SGQuery{Initiator: 99, P: 3, S: 1, K: 1}); !errors.Is(err, stgq.ErrPersonNotFound) {
		t.Errorf("unknown initiator: %v", err)
	}
	if _, err := pl.FindGroup(stgq.SGQuery{Initiator: ids["v7"], P: 3, S: 0, K: 1}); !errors.Is(err, stgq.ErrBadQuery) {
		t.Errorf("s=0: %v", err)
	}
	if _, err := pl.FindGroup(stgq.SGQuery{Initiator: ids["v7"], P: 40, S: 1, K: 1}); !errors.Is(err, stgq.ErrNoFeasibleGroup) {
		t.Errorf("oversized p: %v", err)
	}
	if err := pl.SetAvailable(ids["v7"], -1, 3); !errors.Is(err, stgq.ErrBadQuery) {
		t.Errorf("negative slot: %v", err)
	}
	if err := pl.SetAvailable(stgq.PersonID(99), 0, 3); !errors.Is(err, stgq.ErrPersonNotFound) {
		t.Errorf("unknown person: %v", err)
	}
}

func TestPersonLookupAndAccessors(t *testing.T) {
	pl, ids := examplePlanner(t)
	got, err := pl.PersonByName("v7")
	if err != nil || got != ids["v7"] {
		t.Errorf("PersonByName: %v, %v", got, err)
	}
	if _, err := pl.PersonByName("nobody"); err == nil {
		t.Error("unknown name should fail")
	}
	if pl.Name(ids["v2"]) != "v2" {
		t.Error("Name lookup wrong")
	}
	if pl.NumPeople() != 6 || pl.NumFriendships() != 9 {
		t.Errorf("counts: %d people, %d edges", pl.NumPeople(), pl.NumFriendships())
	}
	if pl.Horizon() != 7 {
		t.Errorf("horizon = %d", pl.Horizon())
	}
}

func TestSchedulesMutableBetweenQueries(t *testing.T) {
	pl, ids := examplePlanner(t)
	q := stgq.STGQuery{
		SGQuery: stgq.SGQuery{Initiator: ids["v7"], P: 4, S: 1, K: 1},
		M:       3,
	}
	before, err := pl.PlanActivity(q)
	if err != nil {
		t.Fatal(err)
	}
	// v6 cancels everything: the optimal group must change or vanish.
	if err := pl.SetBusy(ids["v6"], 0, 7); err != nil {
		t.Fatal(err)
	}
	after, err := pl.PlanActivity(q)
	if err == nil {
		if after.TotalDistance <= before.TotalDistance {
			t.Errorf("after v6 cancels, distance %v should exceed %v (or be infeasible)",
				after.TotalDistance, before.TotalDistance)
		}
	} else if !errors.Is(err, stgq.ErrNoFeasibleGroup) {
		t.Fatal(err)
	}
}

func TestFromDataset(t *testing.T) {
	d := dataset.Real194(42, 2)
	pl := stgq.FromDataset(d)
	if pl.NumPeople() != dataset.Real194Size {
		t.Fatalf("people = %d", pl.NumPeople())
	}
	q := stgq.PersonID(d.PickInitiator(75))
	res, err := pl.FindGroup(stgq.SGQuery{Initiator: q, P: 4, S: 1, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Members) != 4 || res.TotalDistance <= 0 {
		t.Errorf("implausible result: %+v", res)
	}
	// Cross-check against the exhaustive baseline on the view FindGroup
	// searched.
	rg, _, _, err := pl.QueryView(q, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	base, err := baseline.SGQ(rg, 4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if base.TotalDistance != res.TotalDistance {
		t.Errorf("engines disagree: %v vs %v", res.TotalDistance, base.TotalDistance)
	}
}

func TestWindowFormat(t *testing.T) {
	w := stgq.TimeWindow{Start: 36, End: 40}
	if got := w.Format(); got != "day1 18:00 – day1 19:30" {
		t.Errorf("Format = %q", got)
	}
	if (stgq.TimeWindow{}).Format() != "(empty)" {
		t.Error("empty window format wrong")
	}
	if w.Len() != 4 {
		t.Error("Len wrong")
	}
}

func TestDisconnect(t *testing.T) {
	pl, ids := examplePlanner(t)
	q := stgq.SGQuery{Initiator: ids["v7"], P: 4, S: 1, K: 1}
	before, err := pl.FindGroup(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Disconnect(ids["v2"], ids["v4"]); err != nil {
		t.Fatal(err)
	}
	if pl.NumFriendships() != 8 {
		t.Fatalf("friendships = %d, want 8", pl.NumFriendships())
	}
	after, err := pl.FindGroup(q)
	if err != nil {
		t.Fatal(err)
	}
	if after.TotalDistance <= before.TotalDistance {
		t.Errorf("removing an optimal edge should worsen the answer: %v vs %v",
			after.TotalDistance, before.TotalDistance)
	}
	if err := pl.Disconnect(ids["v2"], ids["v4"]); err == nil {
		t.Error("double disconnect should fail")
	}
}

// TestMutationHook checks the observer seam: every successful mutation is
// reported exactly once, in order, while failed mutations are not; a
// failing wait function surfaces to the caller.
func TestMutationHook(t *testing.T) {
	pl := stgq.NewPlanner(8)
	var seen []stgq.Mutation
	var waits int
	pl.SetMutationHook(func(_ context.Context, m stgq.Mutation) func() error {
		seen = append(seen, m)
		return func() error { waits++; return nil }
	})
	a := pl.MustAddPerson("a")
	b := pl.MustAddPerson("b")
	if err := pl.Connect(a, b, 5); err != nil {
		t.Fatal(err)
	}
	if err := pl.SetAvailable(a, 0, 8); err != nil {
		t.Fatal(err)
	}
	if err := pl.SetBusy(a, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := pl.Disconnect(a, b); err != nil {
		t.Fatal(err)
	}
	// Failed mutations must not be observed.
	if err := pl.Connect(a, a, 1); err == nil {
		t.Fatal("self loop should fail")
	}
	if err := pl.SetAvailable(stgq.PersonID(99), 0, 1); err == nil {
		t.Fatal("unknown person should fail")
	}
	wantOps := []stgq.MutationOp{
		stgq.MutAddPerson, stgq.MutAddPerson, stgq.MutConnect,
		stgq.MutSetAvailable, stgq.MutSetBusy, stgq.MutDisconnect,
	}
	if len(seen) != len(wantOps) {
		t.Fatalf("observed %d mutations, want %d", len(seen), len(wantOps))
	}
	for i, m := range seen {
		if m.Op != wantOps[i] {
			t.Errorf("mutation %d: op %v, want %v", i, m.Op, wantOps[i])
		}
	}
	if waits != len(wantOps) {
		t.Errorf("wait called %d times, want %d", waits, len(wantOps))
	}

	// A failing wait propagates to the mutator.
	wantErr := errors.New("fsync exploded")
	pl.SetMutationHook(func(context.Context, stgq.Mutation) func() error {
		return func() error { return wantErr }
	})
	if _, err := pl.AddPerson("c"); !errors.Is(err, wantErr) {
		t.Errorf("AddPerson err = %v, want %v", err, wantErr)
	}
	if err := pl.Connect(a, b, 2); !errors.Is(err, wantErr) {
		t.Errorf("Connect err = %v, want %v", err, wantErr)
	}
}

// TestFromDatasetThenMutate is the regression test for the base-calendar
// bug: editing availability on a dataset-backed planner used to throw away
// every schedule the dataset had loaded.
func TestFromDatasetThenMutate(t *testing.T) {
	d := dataset.Real194(42, 2)
	pl := stgq.FromDataset(d)
	freeBefore := countFree(d.Cal)
	// One person cancels one evening; everyone else's schedule must stay.
	if err := pl.SetBusy(0, 0, pl.Horizon()); err != nil {
		t.Fatal(err)
	}
	got := pl.Export(nil)
	freeAfter := countFree(got.Cal)
	lost := freeBefore - freeAfter
	if lost <= 0 || lost > pl.Horizon() {
		t.Fatalf("free slots %d → %d: only person 0's slots should disappear", freeBefore, freeAfter)
	}
	// And a later re-grant layers on top of the dataset schedule.
	if err := pl.SetAvailable(0, 0, 4); err != nil {
		t.Fatal(err)
	}
	if countFree(pl.Export(nil).Cal) != freeAfter+4 {
		t.Fatal("re-granted slots not visible")
	}
}

func countFree(c *schedule.Calendar) int {
	total := 0
	for u := 0; u < c.Users(); u++ {
		row := c.Row(u)
		for s := row.NextSet(0); s != -1; s = row.NextSet(s + 1) {
			total++
		}
	}
	return total
}

// TestLegacyDatasetWithoutLocations pins backward compatibility: a
// dataset file written before the locations field existed must load
// cleanly, with every person unlocated (excluded from spatial pruning).
func TestLegacyDatasetWithoutLocations(t *testing.T) {
	// Export a dataset and strip the locations by round-tripping a
	// planner that never saw a SetLocation.
	pl := stgq.NewPlanner(14)
	pl.MustAddPerson("ana")
	pl.MustAddPerson("bo")
	var buf bytes.Buffer
	if err := pl.Export(nil).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"locations"`)) {
		t.Fatal("location-free dataset serialized a locations field")
	}
	d, err := dataset.Load(&buf)
	if err != nil {
		t.Fatalf("legacy dataset (no locations field) failed to load: %v", err)
	}
	if d.Locations != nil {
		t.Fatalf("legacy dataset loaded locations %v, want none", d.Locations)
	}
	restored := stgq.FromDataset(d)
	if got := restored.NumLocated(); got != 0 {
		t.Fatalf("legacy dataset restored %d located people, want 0", got)
	}
	// Geo-social queries over a location-free population are infeasible,
	// not an error class of their own.
	_, err = restored.PlanGeoActivity(stgq.GSGQuery{
		SGQuery: stgq.SGQuery{Initiator: 0, P: 1, S: 1, K: 0},
		Radius:  1000,
	})
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("no feasible group")) {
		t.Fatalf("geo query on unlocated population: err = %v, want no-feasible-group", err)
	}
}

// TestExportRoundTrip: Export → dataset.Save/Load → FromDataset must
// answer queries identically.
func TestExportRoundTrip(t *testing.T) {
	pl, ids := examplePlanner(t)
	if err := pl.SetSchedulePolicy(ids["v3"], stgq.ShareFriends); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pl.Export(nil).Save(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := dataset.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pl2 := stgq.FromDataset(d)
	q := stgq.STGQuery{SGQuery: stgq.SGQuery{Initiator: ids["v7"], P: 4, S: 1, K: 1}, M: 3}
	want, err := pl.PlanActivity(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pl2.PlanActivity(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalDistance != want.TotalDistance || got.Window != want.Window {
		t.Fatalf("round trip changed the plan: %+v vs %+v", got, want)
	}
	if pl2.Name(ids["v7"]) != "v7" {
		t.Error("names lost in round trip")
	}
	if got := pl2.SchedulePolicy(ids["v3"]); got != stgq.ShareFriends {
		t.Errorf("policy lost in round trip: %v", got)
	}
}

// TestConcurrentMutationsAndQueries exercises the planner's internal
// synchronization: parallel writers and readers must be race-free and
// every query must see a consistent snapshot (run under -race).
func TestConcurrentMutationsAndQueries(t *testing.T) {
	pl, ids := examplePlanner(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				switch i % 3 {
				case 0:
					pl.MustAddPerson("")
				case 1:
					_ = pl.Connect(ids["v2"], ids["v3"], float64(1+i%9))
				default:
					_ = pl.SetAvailable(ids["v4"], 0, 7)
				}
			}
		}(w)
	}
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, err := pl.PlanActivity(stgq.STGQuery{
					SGQuery: stgq.SGQuery{Initiator: ids["v7"], P: 3, S: 1, K: 1},
					M:       2,
				})
				if err != nil && !errors.Is(err, stgq.ErrNoFeasibleGroup) {
					t.Error(err)
					return
				}
			}
		}()
	}
	time.Sleep(2 * time.Millisecond) // let writers and readers overlap
	close(stop)
	wg.Wait()
}

func TestAddPersonNameCap(t *testing.T) {
	pl := stgq.NewPlanner(8)
	if _, err := pl.AddPerson(strings.Repeat("x", stgq.MaxNameLen+1)); !errors.Is(err, stgq.ErrBadQuery) {
		t.Fatalf("oversized name: err = %v, want ErrBadQuery", err)
	}
	if pl.NumPeople() != 0 {
		t.Fatal("oversized name must not register anyone")
	}
	if _, err := pl.AddPerson(strings.Repeat("x", 100)); err != nil {
		t.Fatal(err)
	}
}

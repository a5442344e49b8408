package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/schedule"
)

func TestParallelMatchesSequentialExample3(t *testing.T) {
	g, ids := figure3Graph(t)
	cal := figure3Calendar(t, g, ids)
	rg, _ := g.ExtractRadiusGraph(ids["v7"], 1)
	calUser := make([]int, rg.N())
	for i, o := range rg.Orig {
		calUser[i] = o
	}
	seq, _, err := STGSelect(rg, cal, calUser, 4, 1, 3, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	par, stats, err := STGSelectParallel(rg, cal, calUser, 4, 1, 3, DefaultOptions(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if par.TotalDistance != seq.TotalDistance {
		t.Errorf("parallel %v != sequential %v", par.TotalDistance, seq.TotalDistance)
	}
	if par.Interval != seq.Interval {
		t.Errorf("interval %+v != %+v", par.Interval, seq.Interval)
	}
	if stats.PivotsProcessed+stats.PivotsSkipped != 2 {
		t.Errorf("pivot accounting: %+v", stats)
	}
}

func TestParallelWorkerFallbacks(t *testing.T) {
	g, ids := figure3Graph(t)
	cal := figure3Calendar(t, g, ids)
	rg, _ := g.ExtractRadiusGraph(ids["v7"], 1)
	calUser := make([]int, rg.N())
	for i, o := range rg.Orig {
		calUser[i] = o
	}
	// workers ≤ 1 → sequential path.
	one, _, err := STGSelectParallel(rg, cal, calUser, 4, 1, 3, DefaultOptions(), 1)
	if err != nil || one.TotalDistance != 67 {
		t.Errorf("workers=1: %+v, %v", one, err)
	}
	// More workers than pivots is clamped.
	many, _, err := STGSelectParallel(rg, cal, calUser, 4, 1, 3, DefaultOptions(), 64)
	if err != nil || many.TotalDistance != 67 {
		t.Errorf("workers=64: %+v, %v", many, err)
	}
	// p=1 short-circuit.
	solo, _, err := STGSelectParallel(rg, cal, calUser, 1, 0, 3, DefaultOptions(), 4)
	if err != nil || solo.TotalDistance != 0 {
		t.Errorf("p=1: %+v, %v", solo, err)
	}
	// Validation still applies.
	if _, _, err := STGSelectParallel(rg, cal, calUser, 4, 1, 0, DefaultOptions(), 4); !errors.Is(err, ErrBadParams) {
		t.Errorf("m=0: %v", err)
	}
	// Infeasible stays infeasible.
	empty := schedule.NewCalendar(rg.N(), 7)
	emptyUsers := make([]int, rg.N())
	for i := range emptyUsers {
		emptyUsers[i] = i
	}
	if _, _, err := STGSelectParallel(rg, empty, emptyUsers, 3, 1, 3, DefaultOptions(), 4); !errors.Is(err, ErrNoFeasibleGroup) {
		t.Errorf("empty calendar: %v", err)
	}
}

// TestQuickParallelSTGSelect: random instances, parallel distance must
// equal sequential (run under -race in CI).
func TestQuickParallelSTGSelect(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rg := randomRadiusGraph(r, 5+r.Intn(5), 0.4, 1+r.Intn(2))
		nn := rg.N()
		horizon := 8 + r.Intn(16)
		m := 2 + r.Intn(3)
		cal := schedule.NewCalendar(nn, horizon)
		for u := 0; u < nn; u++ {
			for s := 0; s < horizon; s++ {
				if r.Float64() < 0.75 {
					cal.SetAvailable(u, s)
				}
			}
		}
		calUser := make([]int, nn)
		for i := range calUser {
			calUser[i] = i
		}
		p := 2 + r.Intn(3)
		k := r.Intn(3)
		seq, _, errS := STGSelect(rg, cal, calUser, p, k, m, DefaultOptions())
		par, _, errP := STGSelectParallel(rg, cal, calUser, p, k, m, DefaultOptions(), 3)
		if (errS == nil) != (errP == nil) {
			t.Logf("seed %d: seq err %v, par err %v", seed, errS, errP)
			return false
		}
		if errS != nil {
			return true
		}
		if seq.TotalDistance != par.TotalDistance {
			t.Logf("seed %d: seq %v, par %v", seed, seq.TotalDistance, par.TotalDistance)
			return false
		}
		return par.Interval.Len() >= m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestParallelBudgetBoundsWholeQuery: Options.MaxVertices bounds the
// admission tests of the whole query, summed over pivots and workers, as
// it does for STGSelect. A budget hit is reported as ErrBudgetExceeded,
// never as an unproven ErrNoFeasibleGroup.
func TestParallelBudgetBoundsWholeQuery(t *testing.T) {
	const workers = 2
	d := dataset.Synthetic(600, 1, 7)
	budget := DefaultOptions()
	budget.MaxVertices = 20
	for q := 0; q < 5; q++ {
		rg, err := d.Graph.ExtractRadiusGraph(q, 2)
		if err != nil {
			t.Fatal(err)
		}
		opt, _, err := STGSelect(rg, d.Cal, rg.Orig, 5, 1, 6, DefaultOptions())
		if err != nil {
			t.Fatalf("q=%d unbudgeted: %v", q, err)
		}
		_, _, seqErr := STGSelect(rg, d.Cal, rg.Orig, 5, 1, 6, budget)
		par, stats, parErr := STGSelectParallel(rg, d.Cal, rg.Orig, 5, 1, 6, budget, workers)
		if !errors.Is(seqErr, ErrBudgetExceeded) || !errors.Is(parErr, ErrBudgetExceeded) {
			t.Errorf("q=%d: sequential %v, parallel %v; want ErrBudgetExceeded from both", q, seqErr, parErr)
		}
		// Each worker runs at most one admission test past the budget, and
		// then takes no further pivot.
		if stats.VerticesExamined > budget.MaxVertices+workers-1 {
			t.Errorf("q=%d: %d admission tests under a budget of %d", q, stats.VerticesExamined, budget.MaxVertices)
		}
		if taken := stats.PivotsProcessed + stats.PivotsSkipped; taken >= int64(len(d.Cal.PivotSlots(6))) {
			t.Errorf("q=%d: all %d pivots taken after the budget was spent", q, taken)
		}
		if par != nil && par.TotalDistance < opt.TotalDistance {
			t.Errorf("q=%d: anytime answer %v beats the optimum %v", q, par.TotalDistance, opt.TotalDistance)
		}
	}
}

package core

import (
	"math"
	"runtime"
	"sync"

	"repro/internal/bitset"
	"repro/internal/schedule"
	"repro/internal/socialgraph"
)

// STGSelectParallel is STGSelect with pivot-level parallelism: pivot time
// slots are independent searches (Lemma 4 partitions the temporal
// dimension), so they distribute naturally over worker goroutines. Workers
// share the incumbent total distance, so a good solution found under one
// pivot prunes the others, exactly as in the sequential algorithm — the
// result is the same optimum (though ties may resolve to a different
// optimal group than the sequential order would).
//
// workers ≤ 1 falls back to the sequential STGSelect. The paper's
// algorithms are single-threaded (it was CPLEX that used all 8 cores of
// their machine); this is the engine-side counterpart, a natural extension
// the paper leaves open.
func STGSelectParallel(rg *socialgraph.RadiusGraph, cal *schedule.Calendar, calUser []int, p, k, m int, opt Options, workers int) (*STGroup, Stats, error) {
	if workers <= 1 {
		return STGSelect(rg, cal, calUser, p, k, m, opt)
	}
	if err := validateSTG(rg, cal, calUser, p, k, m); err != nil {
		return nil, Stats{}, err
	}
	if err := opt.validate(); err != nil {
		return nil, Stats{}, err
	}
	if workers > runtime.GOMAXPROCS(0) {
		workers = runtime.GOMAXPROCS(0)
	}
	pivots := cal.PivotSlots(m)
	if len(pivots) == 0 {
		return nil, Stats{}, ErrNoFeasibleGroup
	}
	if workers > len(pivots) {
		workers = len(pivots)
	}

	var (
		mu       sync.Mutex
		best     *STGroup
		bestDist = math.Inf(1)
		total    Stats
		wg       sync.WaitGroup
		next     int
	)
	shared := func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return bestDist
	}
	offer := func(g *STGroup, st Stats) {
		mu.Lock()
		defer mu.Unlock()
		total.Add(st)
		if g != nil && g.TotalDistance < bestDist {
			bestDist = g.TotalDistance
			best = g
		}
	}
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= len(pivots) {
			return 0, false
		}
		pv := pivots[next]
		next++
		return pv, true
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := newEngine(rg, p, k, opt)
			t := newTemporalState(e.n, m)
			e.tmp = t
			e.initTemporalRHS(m)
			e.sharedBound = shared
			defer func() { offer(nil, e.stats) }() // flush trailing skip counts
			eligible := bitset.New(e.n)
			for {
				pivot, ok := take()
				if !ok {
					return
				}
				if !prepPivot(e, cal, calUser, eligible, cal.NewWindow(pivot, m)) {
					e.stats.PivotsSkipped++
					continue
				}
				e.stats.PivotsProcessed++
				e.bestDist = shared()
				e.bestSet.Clear()
				if p == 1 {
					if e.bestDist > 0 {
						offer(&STGroup{
							Group:    Group{Members: []int{0}, TotalDistance: 0},
							Interval: Period{Start: t.curLo, End: t.curHi},
							Pivot:    pivot,
						}, Stats{SolutionsFound: 1})
					}
					continue
				}
				e.reset(eligible)
				if e.vsCount+e.vaCount >= p {
					e.expand(0)
				}
				if e.bestSet.Count() == p {
					offer(&STGroup{
						Group: Group{
							Members:       e.bestSet.Indices(),
							TotalDistance: e.bestDist,
						},
						Interval: Period{Start: e.bestLo, End: e.bestHi},
						Pivot:    e.bestPiv,
					}, e.stats)
				} else {
					offer(nil, e.stats)
				}
				e.stats = Stats{}
			}
		}()
	}
	wg.Wait()

	if best == nil {
		return nil, total, ErrNoFeasibleGroup
	}
	// Widen the clipped interval exactly as the sequential path does.
	best.Interval = widenInterval(cal, calUser, best.Members, best.Pivot)
	return best, total, nil
}

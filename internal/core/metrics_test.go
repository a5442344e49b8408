package core

import "testing"

// TestEngineMetricsOncePerQuery holds every query kind to one metrics
// rule: a call that passes validation adds exactly 1 to
// stgq_engine_queries_total{kind} and 1 to the stgq_engine_search_seconds
// count, and 1 to the stgq_engine_candidate_seconds count exactly when it
// is temporal (m ≥ 1), whatever its outcome — an answer, p = 1, no
// candidates left by the peel, or an initiator outside the radius. A call
// that fails validation adds nothing.
func TestEngineMetricsOncePerQuery(t *testing.T) {
	g, ids := figure3Graph(t)
	cal := figure3Calendar(t, g, ids)
	rg, _ := g.ExtractRadiusGraph(ids["v7"], 1)
	calUser := make([]int, rg.N())
	for i, o := range rg.Orig {
		calUser[i] = o
	}
	spat := make([]float64, rg.N())
	outside := make([]float64, rg.N())
	outside[0] = -1
	opt := DefaultOptions()
	want := func(counted bool) uint64 {
		if counted {
			return 1
		}
		return 0
	}

	for _, tc := range []struct {
		name     string
		kind     string
		temporal bool
		valid    bool
		run      func() error
	}{
		{"sg answer", "sg", false, true, func() error { _, _, err := SGSelect(rg, 4, 1, nil, opt); return err }},
		{"sg p=1", "sg", false, true, func() error { _, _, err := SGSelect(rg, 1, 0, nil, opt); return err }},
		{"sg infeasible at reset", "sg", false, true, func() error { _, _, err := SGSelect(rg, 10, 5, nil, opt); return err }},
		{"sg invalid", "sg", false, false, func() error { _, _, err := SGSelect(rg, 0, 1, nil, opt); return err }},
		{"stg answer", "stg", true, true, func() error { _, _, err := STGSelect(rg, cal, calUser, 4, 1, 3, opt); return err }},
		{"stg p=1", "stg", true, true, func() error { _, _, err := STGSelect(rg, cal, calUser, 1, 0, 3, opt); return err }},
		{"stg infeasible at reset", "stg", true, true, func() error { _, _, err := STGSelect(rg, cal, calUser, 10, 5, 3, opt); return err }},
		{"stg invalid", "stg", true, false, func() error { _, _, err := STGSelect(rg, cal, calUser, 4, 1, 0, opt); return err }},
		{"gsg m=0 answer", "gsg", false, true, func() error { _, _, err := GSGSelect(rg, spat, nil, nil, 4, 1, 0, opt); return err }},
		{"gsg m=0 p=1", "gsg", false, true, func() error { _, _, err := GSGSelect(rg, spat, nil, nil, 1, 0, 0, opt); return err }},
		{"gsg m=0 infeasible at reset", "gsg", false, true, func() error { _, _, err := GSGSelect(rg, spat, nil, nil, 10, 5, 0, opt); return err }},
		{"gsg m=0 initiator outside", "gsg", false, true, func() error { _, _, err := GSGSelect(rg, outside, nil, nil, 4, 1, 0, opt); return err }},
		{"gsg m=3 answer", "gsg", true, true, func() error { _, _, err := GSGSelect(rg, spat, cal, calUser, 4, 1, 3, opt); return err }},
		{"gsg m=3 p=1", "gsg", true, true, func() error { _, _, err := GSGSelect(rg, spat, cal, calUser, 1, 0, 3, opt); return err }},
		{"gsg m=3 initiator outside", "gsg", true, true, func() error { _, _, err := GSGSelect(rg, outside, cal, calUser, 4, 1, 3, opt); return err }},
		{"gsg invalid", "gsg", false, false, func() error { _, _, err := GSGSelect(rg, spat, nil, nil, 4, 1, -1, opt); return err }},
	} {
		queries, searches, candidates := mQueries.With(tc.kind).Value(), mSearchSeconds.Count(), mCandidateSeconds.Count()
		err := tc.run()
		if got := mQueries.With(tc.kind).Value() - queries; got != want(tc.valid) {
			t.Errorf("%s (err %v): queries_total{kind=%q} moved by %d, want %d", tc.name, err, tc.kind, got, want(tc.valid))
		}
		if got := mSearchSeconds.Count() - searches; got != want(tc.valid) {
			t.Errorf("%s (err %v): search_seconds count moved by %d, want %d", tc.name, err, got, want(tc.valid))
		}
		if got := mCandidateSeconds.Count() - candidates; got != want(tc.valid && tc.temporal) {
			t.Errorf("%s (err %v): candidate_seconds count moved by %d, want %d", tc.name, err, got, want(tc.valid && tc.temporal))
		}
	}
}

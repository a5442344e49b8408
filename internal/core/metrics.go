package core

import "repro/internal/obsv"

// Engine metrics mirror the paper's evaluation axes: how much time a
// query spends generating candidates per pivot window (Definition 4 +
// Lemma 4) versus branch-and-bound search, and how often each pruning
// strategy fires. The hot loops touch nothing — per-call Stats are
// accumulated into the counters once, at query end.
var (
	mCandidateSeconds = obsv.NewHistogram("stgq_engine_candidate_seconds",
		"Per-query time spent generating pivot candidates (prepPivot).", nil)
	mSearchSeconds = obsv.NewHistogram("stgq_engine_search_seconds",
		"Per-query time spent in branch-and-bound search.", nil)
	mPrunes = obsv.NewCounterVec("stgq_engine_prunes_total",
		"Search-tree prunes and rejections, by strategy.", "strategy")
	mQueries = obsv.NewCounterVec("stgq_engine_queries_total",
		"Engine queries executed, by kind.", "kind")
)

// recordStats folds one query's Stats into the process counters.
func recordStats(kind string, st Stats) {
	mQueries.With(kind).Inc()
	addPrune := func(strategy string, n int64) {
		if n > 0 {
			mPrunes.With(strategy).Add(uint64(n))
		}
	}
	addPrune("distance", st.DistancePrunes)
	addPrune("acquaintance", st.AcquaintancePrunes)
	addPrune("availability", st.AvailabilityPrunes)
	addPrune("exterior", st.ExteriorRejects)
	addPrune("interior", st.InteriorRejects)
	addPrune("temporal", st.TemporalRejects)
	addPrune("core", st.CorePeeled)
	addPrune("cascade", st.CoreCascaded)
}

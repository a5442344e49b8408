package replica

import "repro/internal/obsv"

// Replication metrics answer the operator's two questions — is the
// follower keeping up (lag, apply latency) and is the link healthy
// (stream messages by kind, reconnects, bootstraps). The lag gauge
// updates on every record and heartbeat; on the leader side, the streamer
// counts messages it sends so a leader's /metrics shows fan-out activity.
// A snapshot header and the byte section after it are one message.
var (
	mFramesIn = obsv.NewCounterVec("stgq_replica_stream_frames_total",
		"Stream messages received by the follower, by kind.", "kind")
	mFramesOut = obsv.NewCounter("stgq_replica_stream_sent_frames_total",
		"Stream messages sent by this leader to its followers.")
	mApplySeconds = obsv.NewHistogram("stgq_replica_apply_seconds",
		"Time to apply one replicated record (planner + local journal).", nil)
	mLagRecords = obsv.NewGauge("stgq_replica_lag_records",
		"Last-heard leader position minus locally applied position.")
	mReconnects = obsv.NewCounter("stgq_replica_reconnects_total",
		"Stream reconnects after errors (clean rotations excluded).")
	mBootstraps = obsv.NewCounter("stgq_replica_bootstraps_total",
		"Completed snapshot re-bootstraps.")
)

// noteLag refreshes the lag gauge from the two positions.
func noteLag(leaderSeq, applied uint64) {
	lag := uint64(0)
	if leaderSeq > applied {
		lag = leaderSeq - applied
	}
	mLagRecords.Set(float64(lag))
}

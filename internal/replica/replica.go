// Package replica is the journal-shipping replication subsystem: a leader
// streams its committed journal records to followers, which replay them
// into their own durable stores and serve read-only query traffic. SGQ and
// STGQ queries are read-heavy, NP-hard searches that dwarf mutation cost —
// the classic case for read replicas — and the journal's total order of
// sequence numbers makes the replication stream trivial to define: a
// follower at sequence number n needs exactly the committed records n+1,
// n+2, … .
//
// # Topology
//
//	writers ──► leader stgqd ──(WAL + snapshots)──► data dir
//	                 │ GET /replication/stream?after=n   (long-poll, ndjson)
//	     ┌───────────┼───────────┐
//	     ▼           ▼           ▼
//	 follower    follower    follower      each: own data dir, read-only
//	 /query/*    /query/*    /query/*      HTTP service, 403 + leader
//	                                       hint on mutations
//
// The leader side (Streamer) serves committed records straight from the
// journal's segment files — tailing shares no locks with the write path.
// When a follower's position has been compacted away (the leader folded it
// into a snapshot and deleted the segments), the stream opens with a
// snapshot bootstrap instead and the follower resets its store from it.
//
// The follower side (Follower) applies each record through the same
// journal.Apply path recovery uses, with its own journal store's mutation
// hook installed — so every applied record is re-journaled and fsynced
// locally, and a restarted (or promoted) follower recovers from its own
// disk without re-bootstrapping from the leader.
//
// # Consistency model
//
// Replication is asynchronous: the leader acknowledges writes after its
// own fsync, not the followers'. Each follower applies records in
// sequence-number order, so it always holds a prefix of the leader's
// history — reads are monotonic and prefix-consistent per follower, merely
// stale. Staleness is observable: Follower.Status reports the applied and
// leader sequence numbers, the record lag and the time since the leader
// was last heard from (heartbeats bound it even when idle).
//
// # Wire protocol
//
// One HTTP GET per stream. A records stream is newline-delimited JSON
// messages:
//
//	→ GET /replication/stream?after=<seq>[&bootstrap=1]
//	← {"k":"records","after":<seq>,"seq":<leaderDurable>,"epoch":<e>}  header, then
//	← {"k":"r","frame":"<base64 journal frame>"}            records
//	← {"k":"hb","seq":<leaderDurable>,"epoch":<e>}          idle heartbeats
//
// or, when the position is compacted (or a bootstrap is forced), one
// header line and one byte section:
//
//	← {"k":"snapshot","seq":<snapSeq>,"epoch":<e>,"fork":<f>,"horizon":<h>,"bytes":<n>}
//	← <n raw bytes: the leader's snap-<seq>.frames file>    then the leader closes
//
// The follower reads the n bytes whole and replays them (checking every
// frame's CRC and numbering 1..N) before it replaces its store, so a
// stream cut short, or a snapshot it cannot replay, leaves it untouched;
// then it reconnects for the records after the snapshot.
//
// The leader closes every stream after MaxConnected; followers reconnect
// (with backoff after errors) and resume from their own last sequence
// number, so a dropped connection can at worst duplicate records, which
// the follower skips.
//
// # Failover: epochs, fencing, promotion
//
// Each durable history belongs to a leader epoch (persisted in the
// journal's meta file, advertised on every stream header and heartbeat).
// The follower enforces three rules against the advertised epoch:
//
//   - below its own local epoch: the "leader" is a revived ex-leader from
//     before a failover — the stream is refused outright; neither records
//     nor a snapshot from a fenced timeline may touch the local store.
//   - exactly one above its own, with the local position at or before the
//     advertised fork point (the seq where the promotion departed the old
//     timeline): the local history is provably a shared prefix; the
//     follower durably adopts the new epoch (so a later promotion of this
//     follower outranks the whole observed chain) and keeps streaming.
//   - any other jump — a local tail past the fork (the dead leader's
//     orphaned writes, even if the new leader's durable seq has since
//     raced past it) or a multi-epoch jump whose intermediate forks are
//     unknown: the follower forces a snapshot re-bootstrap onto the new
//     history rather than risk splicing divergent timelines.
//
// Promote (the handler behind the service's POST /promote) performs the
// failover itself: it seals replication, waits out any in-flight apply,
// closes the follower's store, bumps the epoch in the data dir, and
// re-opens the store writable. The caller (the HTTP service) then serves
// mutations and the replication stream from it — every surviving
// follower re-homes on its next reconnect, and the dead leader is fenced
// the moment it comes back.
package replica

// Message kinds of the stream.
const (
	kindRecords   = "records"  // header: record messages follow
	kindSnapshot  = "snapshot" // header: the snapshot's bytes follow
	kindRecord    = "r"
	kindHeartbeat = "hb"
	kindError     = "err"
)

// wireMsg is one ndjson message — a union of the header, record,
// heartbeat and error shapes. A live record travels as its journal frame,
// so the follower decodes it with the same codec (and CRC check) its own
// recovery uses.
type wireMsg struct {
	Kind  string `json:"k"`
	After uint64 `json:"after,omitempty"` // kindRecords: resume position
	Seq   uint64 `json:"seq,omitempty"`   // snapshot seq; hb/header: leader durable seq
	// Epoch is the leader's epoch, advertised on stream headers and
	// heartbeats — the fencing coordinate. A follower rejects streams
	// from a leader whose epoch is below its own (a revived, demoted
	// ex-leader), and a pre-epoch leader (0) is treated as epoch 1.
	Epoch uint64 `json:"epoch,omitempty"`
	// Fork is the sequence number at which the leader's epoch began (its
	// promotion point), sent on stream headers. A follower crossing an
	// epoch boundary holds a shared prefix of the new history iff its
	// applied position is at or before the fork; a longer local tail is
	// the dead leader's orphaned writes and forces a re-bootstrap.
	Fork uint64 `json:"fork,omitempty"`
	// Horizon is the leader's schedule horizon in slots, sent on
	// snapshot headers: the follower's store adopts it with the state.
	Horizon int `json:"horizon,omitempty"`
	// Bytes is the size of the snapshot file, sent on snapshot headers:
	// exactly that many raw bytes follow the header line.
	Bytes int64  `json:"bytes,omitempty"`
	Err   string `json:"err,omitempty"`
	// Frame is a record (kindRecord) as the journal's own CRC frame
	// (journal.EncodeFrame): the bytes the leader's segment holds.
	Frame []byte `json:"frame,omitempty"`
}

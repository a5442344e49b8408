package replica

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/journal"
)

// Streamer defaults; all three are per-Streamer tunables.
const (
	// DefaultChunkRecords bounds one read-and-send burst.
	DefaultChunkRecords = 1024
	// DefaultHeartbeat is the idle-stream heartbeat interval. Heartbeats
	// carry the leader's durable sequence number, so followers can
	// report lag (and detect a dead leader) even when nothing mutates.
	DefaultHeartbeat = time.Second
	// DefaultMaxConnected bounds one stream's lifetime; followers
	// reconnect and resume, so slow or abandoned connections never
	// accumulate unboundedly.
	DefaultMaxConnected = 30 * time.Second
)

// Streamer is the leader side of replication: an http.Handler that serves
// GET /replication/stream. It reads committed records back from the
// journal's segment files, so streaming shares no locks with the write
// path, and long-polls on the store's durability notifier when caught up.
type Streamer struct {
	// Store is the journal whose committed records are streamed.
	Store *journal.Store
	// ChunkRecords bounds the records per frame batch (default
	// DefaultChunkRecords).
	ChunkRecords int
	// Heartbeat is the idle-frame cadence carrying the leader's durable
	// seq (default DefaultHeartbeat).
	Heartbeat time.Duration
	// MaxConnected rotates a stream after this long, so followers
	// re-resolve a moved leader (default DefaultMaxConnected).
	MaxConnected time.Duration
}

// NewStreamer returns a Streamer over st with default tuning.
func NewStreamer(st *journal.Store) *Streamer { return &Streamer{Store: st} }

// ServeHTTP implements the stream endpoint. Query parameters:
//
//	after      stream committed records with Seq > after (default 0)
//	bootstrap  "1" forces a snapshot bootstrap regardless of position
func (st *Streamer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var after uint64
	if v := r.URL.Query().Get("after"); v != "" {
		var err error
		if after, err = strconv.ParseUint(v, 10, 64); err != nil {
			http.Error(w, "bad after parameter", http.StatusBadRequest)
			return
		}
	}
	chunk := st.ChunkRecords
	if chunk <= 0 {
		chunk = DefaultChunkRecords
	}

	// First read decides the stream shape: records from the follower's
	// position, or a snapshot bootstrap when that position is compacted
	// away (or a bootstrap is explicitly requested). The cursor persists
	// for the stream's lifetime, so a caught-up stream only ever reads
	// the active segment's new tail.
	cur := st.Store.TailFrom(after)
	var (
		recs []journal.Record
		err  error
	)
	if r.URL.Query().Get("bootstrap") == "1" {
		err = journal.ErrCompacted
	} else {
		recs, err = cur.Read(chunk)
	}
	if errors.Is(err, journal.ErrCompacted) {
		st.serveSnapshot(w)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	st.serveRecords(w, r, after, cur, recs, chunk)
}

// serveSnapshot sends a snapshot header, the snapshot's frames and the
// end message.
func (st *Streamer) serveSnapshot(w http.ResponseWriter) {
	frames, seq, err := st.Store.ReplicationSnapshot()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	if !send(enc, wireMsg{Kind: kindSnapshot, Seq: seq, Epoch: st.Store.Epoch(), Fork: st.Store.EpochStart(), Horizon: st.Store.Planner().Horizon()}) {
		return
	}
	for len(frames) > 0 {
		frame, rest, err := journal.SplitFrame(frames)
		if err != nil {
			send(enc, wireMsg{Kind: kindError, Err: err.Error()})
			return
		}
		if !send(enc, wireMsg{Kind: kindRecord, Frame: frame}) {
			return
		}
		frames = rest
	}
	send(enc, wireMsg{Kind: kindSnapshotEnd})
}

// send writes one message, counting it; false means the client is gone.
func send(enc *json.Encoder, m wireMsg) bool {
	if enc.Encode(m) != nil {
		return false
	}
	mFramesOut.Inc()
	return true
}

// serveRecords streams record frames, long-polling for new commits and
// heartbeating while idle, until the client disconnects or MaxConnected
// elapses.
func (st *Streamer) serveRecords(w http.ResponseWriter, r *http.Request, after uint64, cur *journal.TailCursor, recs []journal.Record, chunk int) {
	hb := st.Heartbeat
	if hb <= 0 {
		hb = DefaultHeartbeat
	}
	maxConn := st.MaxConnected
	if maxConn <= 0 {
		maxConn = DefaultMaxConnected
	}
	fl, _ := w.(http.Flusher)
	flush := func() {
		if fl != nil {
			fl.Flush()
		}
	}
	enc := json.NewEncoder(w)

	w.Header().Set("Content-Type", "application/x-ndjson")
	epoch := st.Store.Epoch()
	if !send(enc, wireMsg{Kind: kindRecords, After: after, Seq: st.Store.DurableSeq(), Epoch: epoch, Fork: st.Store.EpochStart()}) {
		return
	}
	deadline := time.Now().Add(maxConn)
	for {
		for _, rec := range recs {
			frame, err := journal.EncodeFrame(rec)
			if err != nil {
				send(enc, wireMsg{Kind: kindError, Err: err.Error()})
				return
			}
			if !send(enc, wireMsg{Kind: kindRecord, Frame: frame}) {
				return
			}
		}
		flush()
		if time.Now().After(deadline) {
			return // clean close; the follower reconnects and resumes
		}
		wctx, cancel := context.WithTimeout(r.Context(), hb)
		werr := st.Store.WaitDurable(wctx, cur.Pos())
		cancel()
		if werr != nil {
			if r.Context().Err() != nil {
				return // client gone
			}
			if errors.Is(werr, context.DeadlineExceeded) {
				if !send(enc, wireMsg{Kind: kindHeartbeat, Seq: st.Store.DurableSeq(), Epoch: epoch}) {
					return
				}
				flush()
				recs = nil
				continue
			}
			// Store closed (leader shutting down) or other terminal error.
			send(enc, wireMsg{Kind: kindError, Err: werr.Error()})
			return
		}
		var err error
		recs, err = cur.Read(chunk)
		if err != nil {
			// ErrCompacted mid-stream (a very slow follower crossed a
			// compaction) included: report and close; the reconnect is
			// answered with a snapshot bootstrap.
			send(enc, wireMsg{Kind: kindError, Err: err.Error()})
			return
		}
	}
}

package replica

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/journal"
)

const (
	// chunkRecords bounds the records of one records section.
	chunkRecords = 1024
	// heartbeat is the idle-stream heartbeat interval. Heartbeats carry
	// the leader's durable sequence number, so followers can report lag
	// (and detect a dead leader) even when nothing mutates.
	heartbeat = time.Second
	// maxConnected bounds one stream's lifetime; followers reconnect and
	// resume, so they re-resolve a moved leader and slow or abandoned
	// connections never accumulate unboundedly.
	maxConnected = 30 * time.Second
)

// Streamer is the leader side of replication: an http.Handler that serves
// GET /replication/stream. It reads committed records back from the
// journal's segment files, so streaming shares no locks with the write
// path, and long-polls on the store's durability notifier when caught up.
type Streamer struct {
	// Store is the journal whose committed records are streamed.
	Store *journal.Store
}

// NewStreamer returns a Streamer over st.
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

	// First read decides the stream shape: records from the follower's
	// position, or a snapshot bootstrap when that position is compacted
	// away (or a bootstrap is explicitly requested). The cursor persists
	// for the stream's lifetime, so a caught-up stream only ever reads
	// the active segment's new tail.
	cur := st.Store.TailFrom(after)
	var (
		frames []byte
		err    error
	)
	if r.URL.Query().Get("bootstrap") == "1" {
		err = journal.ErrCompacted
	} else {
		frames, err = cur.Read(chunkRecords)
	}
	if errors.Is(err, journal.ErrCompacted) {
		st.serveSnapshot(w)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	st.serveRecords(w, r, after, cur, frames)
}

// serveSnapshot sends a snapshot header and then the snapshot file's
// bytes, and ends the stream.
func (st *Streamer) serveSnapshot(w http.ResponseWriter) {
	frames, seq, err := st.Store.ReplicationSnapshot()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	// A short write is the follower's cut-short stream.
	send(w, wireMsg{Kind: kindSnapshot, Seq: seq, Epoch: st.Store.Epoch(), Fork: st.Store.EpochStart(),
		Horizon: st.Store.Planner().Horizon()}, frames)
}

// send writes one message: its JSON line, which announces the section's
// size, and then the section's bytes (none for a line alone). It counts
// the message; false means the client is gone.
func send(w io.Writer, m wireMsg, section []byte) bool {
	m.Bytes = int64(len(section))
	if json.NewEncoder(w).Encode(m) != nil {
		return false
	}
	if _, err := w.Write(section); err != nil {
		return false
	}
	mFramesOut.Inc()
	return true
}

// serveRecords streams records sections, long-polling for new commits and
// heartbeating while idle, until the client disconnects or maxConnected
// elapses.
func (st *Streamer) serveRecords(w http.ResponseWriter, r *http.Request, after uint64, cur *journal.TailCursor, frames []byte) {
	fl, _ := w.(http.Flusher)
	flush := func() {
		if fl != nil {
			fl.Flush()
		}
	}

	w.Header().Set("Content-Type", "application/octet-stream")
	epoch := st.Store.Epoch()
	if !send(w, wireMsg{Kind: kindRecords, After: after, Seq: st.Store.DurableSeq(), Epoch: epoch, Fork: st.Store.EpochStart()}, nil) {
		return
	}
	deadline := time.Now().Add(maxConnected)
	for {
		if len(frames) > 0 && !send(w, wireMsg{Kind: kindRecord}, frames) {
			return
		}
		flush()
		if time.Now().After(deadline) {
			return // clean close; the follower reconnects and resumes
		}
		wctx, cancel := context.WithTimeout(r.Context(), heartbeat)
		werr := st.Store.WaitDurable(wctx, cur.Pos())
		cancel()
		if werr != nil {
			if r.Context().Err() != nil {
				return // client gone
			}
			if errors.Is(werr, context.DeadlineExceeded) {
				if !send(w, wireMsg{Kind: kindHeartbeat, Seq: st.Store.DurableSeq(), Epoch: epoch}, nil) {
					return
				}
				flush()
				frames = nil
				continue
			}
			// Store closed (leader shutting down) or other terminal error.
			send(w, wireMsg{Kind: kindError, Err: werr.Error()}, nil)
			return
		}
		var err error
		frames, err = cur.Read(chunkRecords)
		if err != nil {
			// ErrCompacted mid-stream (a very slow follower crossed a
			// compaction) included: report and close; the reconnect is
			// answered with a snapshot bootstrap.
			send(w, wireMsg{Kind: kindError, Err: err.Error()}, nil)
			return
		}
	}
}

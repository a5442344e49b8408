package service

// This file is the service half of the cluster's read-your-writes
// contract (see docs/consistency.md). Durable leaders stamp every
// acknowledged mutation with the journal's durable sequence number
// (X-STGQ-Write-Seq); any durable server honors a read barrier
// (X-STGQ-Min-Seq) by holding the query until its own state has reached
// that sequence number — or answering 412 when it cannot within the
// bounded wait, so a routing layer (the cluster gateway) can fall back
// to a fresher backend instead of serving pre-write state.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/journal"
	"repro/internal/obsv"
)

// WriteSeqHeader is the response header durable leaders attach to every
// acknowledged mutation: the journal's durable sequence number at the
// moment the write was acknowledged, i.e. a position at or past the
// write itself. A client (or the cluster gateway, per session) echoes it
// on subsequent reads — directly as MinSeqHeader, or via the gateway's
// X-STGQ-Write-Seq / X-STGQ-Session handling — to be guaranteed to
// observe its own write. In-memory servers have no replication
// coordinate and send no header.
const WriteSeqHeader = "X-STGQ-Write-Seq"

// MinSeqHeader is the request header carrying a read barrier for the
// query endpoints: the server answers only once its durable (leader) or
// applied (follower) sequence number has reached the given value. A
// server that cannot reach the floor within its bounded wait answers
// 412 Precondition Failed (plus Retry-After) rather than serving state
// older than the caller's own writes. Malformed values are a 400.
const MinSeqHeader = "X-STGQ-Min-Seq"

// AppliedSeqHeader is the response header query endpoints attach on
// durable servers: a lower bound on the sequence number of the state the
// answer was computed from (durable seq on leaders, applied seq on
// followers), captured after the read barrier is satisfied and before
// the engine runs. A caching layer may treat the response as "valid as
// of at least this seq" — the state can only have been newer, never
// older. In-memory servers send no header.
const AppliedSeqHeader = "X-STGQ-Applied-Seq"

// EpochHeader is the response header carrying the leader epoch of the
// history the answering server follows, alongside AppliedSeqHeader. The
// two headers are one journal.Pos, which orders cached results across
// failovers exactly as it orders backends.
const EpochHeader = "X-STGQ-Epoch"

// The position codec: the only code that reads or writes the four
// headers above. Values are decimal uint64s.

// SetSeq writes seq as the value of a seq-valued header (WriteSeqHeader
// or MinSeqHeader).
func SetSeq(h http.Header, name string, seq uint64) {
	h.Set(name, strconv.FormatUint(seq, 10))
}

// ParseSeq reads a seq-valued header. An absent header reads as 0 (no
// floor); a malformed one is an error whose text names the header and
// the value, fit for a 400 response.
func ParseSeq(h http.Header, name string) (uint64, error) {
	v := h.Get(name)
	if v == "" {
		return 0, nil
	}
	seq, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, errors.New("bad " + name + " header: " + v)
	}
	return seq, nil
}

// StampPos writes pos as AppliedSeqHeader and EpochHeader.
func StampPos(h http.Header, pos journal.Pos) {
	h.Set(AppliedSeqHeader, strconv.FormatUint(pos.Seq, 10))
	h.Set(EpochHeader, strconv.FormatUint(pos.Epoch, 10))
}

// StampedPos reads the position StampPos wrote; ok is false unless both
// headers are present and well-formed.
func StampedPos(h http.Header) (pos journal.Pos, ok bool) {
	seq, err := strconv.ParseUint(h.Get(AppliedSeqHeader), 10, 64)
	if err != nil {
		return pos, false
	}
	epoch, err := strconv.ParseUint(h.Get(EpochHeader), 10, 64)
	if err != nil {
		return pos, false
	}
	return journal.Pos{Epoch: epoch, Seq: seq}, true
}

// DefaultBarrierWait bounds how long a query holding a MinSeqHeader
// barrier waits for replication to catch up before answering 412. It
// trades read latency against leader offload: long enough for a healthy
// follower one group-commit behind, short enough that a stalled replica
// degrades to the leader promptly.
const DefaultBarrierWait = 2 * time.Second

// noteWriteSeq stamps a just-acknowledged mutation response with the
// store's durable sequence number. Mutations on a durable server return
// only after their record is fsynced, so DurableSeq here is at or past
// the write's own sequence number — a floor that makes the write
// visible under any read barrier at that value. Must run before the
// response status is written. In-memory servers stamp nothing.
func (s *Server) noteWriteSeq(w http.ResponseWriter) {
	s.mu.RLock()
	st := s.store
	s.mu.RUnlock()
	if st != nil {
		SetSeq(w.Header(), WriteSeqHeader, st.DurableSeq())
	}
}

// noteAppliedSeq stamps a query response with AppliedSeqHeader and
// EpochHeader. It must run after awaitMinSeq (so the stamp is at or past
// any barrier the caller set) and before the response status is written.
// Capturing the position before the engine runs makes the stamp a
// conservative lower bound: concurrent mutations can only make the
// served state newer than the header claims, which is the sound
// direction for cache admission.
func (s *Server) noteAppliedSeq(w http.ResponseWriter) {
	s.mu.RLock()
	st, fo := s.store, s.follower
	s.mu.RUnlock()
	switch {
	case fo != nil:
		StampPos(w.Header(), fo.Pos())
	case st != nil:
		StampPos(w.Header(), st.Pos())
	}
}

// awaitMinSeq enforces the MinSeqHeader read barrier for one request.
// It returns false when a response has already been written: 400 for a
// malformed header, 412 when the barrier cannot be satisfied within the
// bounded wait (BarrierWait, default DefaultBarrierWait) — including on
// an in-memory server, which has no sequence coordinate at all.
func (s *Server) awaitMinSeq(w http.ResponseWriter, r *http.Request) bool {
	seq, err := ParseSeq(r.Header, MinSeqHeader)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return false
	}
	if seq == 0 {
		return true // no barrier: everything is at least at seq 0
	}
	s.mu.RLock()
	st, fo := s.store, s.follower
	s.mu.RUnlock()
	wait := s.BarrierWait
	if wait <= 0 {
		wait = DefaultBarrierWait
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	waitStart := time.Now()
	defer mBarrierWait.ObserveSince(waitStart)
	defer obsv.StagesFrom(r.Context()).Time("svc_barrier")()
	var werr error
	switch {
	case fo != nil:
		werr = fo.WaitApplied(ctx, seq)
	case st != nil:
		// The leader is the source of the sequence numbers, so normally it
		// already holds seq; a floor past its durable position names a
		// write this history never acknowledged (e.g. one lost to a
		// failover) and the wait runs out honestly.
		if st.DurableSeq() < seq {
			werr = st.WaitDurable(ctx, seq-1)
		}
	default:
		werr = errors.New("in-memory server has no replication position")
	}
	if werr == nil {
		return true
	}
	// Retry-After: the barrier is about replication lag, which a healthy
	// cluster clears in well under a second.
	mBarrier412.Inc()
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusPreconditionFailed, errorResponse{
		Error: fmt.Sprintf("read barrier: state has not reached seq %d: %v", seq, werr),
	})
	return false
}

package gateway

import "sync"

// SessionHeader is the request header naming a client's sticky
// read-your-writes session: an opaque identifier the client keeps for
// the lifetime of one interactive planning loop. The gateway remembers,
// per session, the highest write sequence number it has acknowledged
// (taken from the leader's X-STGQ-Write-Seq response header) and routes
// that session's reads only to state at or past it — so a user who just
// journaled an availability edit can immediately re-plan without a
// lagging follower answering from pre-write state. Sessions are a
// gateway-local, best-effort memory (bounded; not shared between
// gateway instances): clients that must not depend on it echo
// X-STGQ-Write-Seq themselves.
const SessionHeader = "X-STGQ-Session"

// DefaultSessionCap bounds the session table when Config.SessionCap is
// zero. 4096 concurrent interactive sessions per gateway is far past
// any single front door this system targets; an evicted session
// degrades to ordinary staleness-bounded reads, never to an error.
const DefaultSessionCap = 4096

// sessionTable remembers, per session id, the highest acknowledged
// write sequence number. It is deliberately approximate where that is
// cheap and safe: eviction is FIFO by first insertion (a long-lived
// session may be evicted while active and re-inserted on its next
// write), and losing an entry only loses the routing hint — the
// consistency contract survives via the leader fallback and the
// client-echoed service.WriteSeqHeader.
type sessionTable struct {
	mu    sync.Mutex
	cap   int
	seqs  map[string]uint64
	order []string // insertion order, the eviction queue
}

func newSessionTable(cap int) *sessionTable {
	return &sessionTable{cap: cap, seqs: make(map[string]uint64)}
}

// note records seq for the session, keeping the maximum seen. Sequence
// numbers only move forward: a late-arriving response from before a
// newer write must not lower the session's floor.
func (t *sessionTable) note(id string, seq uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur, ok := t.seqs[id]; ok {
		if seq > cur {
			t.seqs[id] = seq
		}
		return
	}
	if len(t.order) >= t.cap {
		oldest := t.order[0]
		t.order = t.order[1:]
		delete(t.seqs, oldest)
	}
	t.seqs[id] = seq
	t.order = append(t.order, id)
}

// get returns the session's write floor (0: unknown session).
func (t *sessionTable) get(id string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seqs[id]
}

// size returns the number of tracked sessions.
func (t *sessionTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.seqs)
}

package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/service"
)

// Prober defaults.
const (
	// DefaultProbeInterval is how often every backend's /status is polled.
	DefaultProbeInterval = time.Second
	// DefaultProbeTimeout bounds one probe request; a backend that cannot
	// answer /status within it is unhealthy.
	DefaultProbeTimeout = 2 * time.Second
	// promoteTimeout bounds one POST /promote during auto-failover. A
	// promotion closes the follower's store (final snapshot included) and
	// re-opens it with a full recovery, so it is allowed far longer than
	// a probe.
	promoteTimeout = 30 * time.Second
	// maxWatermarks bounds the retained leader-seq timeline. At the
	// default probe interval that is over four minutes of history; a
	// follower behind the oldest retained mark is at least that stale,
	// which already exceeds any plausible read bound.
	maxWatermarks = 256
)

// watermark records when the gateway first observed the leader's durable
// sequence number at (or past) seq. The list is the gateway's staleness
// clock: a follower whose applied position is below a mark's seq has been
// behind the leader since at least that mark's time.
type watermark struct {
	seq uint64
	at  time.Time
}

// Run probes every backend until ctx is cancelled. One round runs at
// startup immediately so the director has a view before the first tick.
func (g *Gateway) Run(ctx context.Context) {
	g.ProbeOnce(ctx)
	t := time.NewTicker(g.probeEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			g.ProbeOnce(ctx)
		case <-ctx.Done():
			return
		}
	}
}

// ProbeOnce probes every backend concurrently and updates the pool view,
// the discovered leader and the staleness watermarks. Run calls it on a
// timer; tests and operators may call it directly for a synchronous
// refresh.
func (g *Gateway) ProbeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, b := range g.backends {
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			b.setHealth(g.probe(ctx, b))
		}(b)
	}
	wg.Wait()
	now := time.Now()

	// The fencing floor: the highest epoch any healthy backend reports,
	// remembered across rounds. A leader claim below it describes a
	// history that has already been superseded by a promotion — adopting
	// it would route mutations onto a fenced timeline. This is what
	// fences a revived dead leader: it keeps its old epoch, so not even
	// a longer (orphaned) history lets it outrank the promoted follower.
	var maxEpoch uint64
	for _, b := range g.backends {
		if h := b.health(); h.Healthy && h.Pos.Epoch > maxEpoch {
			maxEpoch = h.Pos.Epoch
		}
	}
	g.mu.Lock()
	g.maxEpoch = max(g.maxEpoch, maxEpoch)
	maxEpoch = g.maxEpoch
	g.mu.Unlock()

	// Adopt the most advanced self-reported leader at the floor.
	if leader, pos := g.mostAdvanced("leader", maxEpoch); leader != nil {
		g.leader.Store(leader.URL)
		g.noteLeaderSeq(pos.Seq, now)
		g.mu.Lock()
		g.leaderSeenAt = now
		g.mu.Unlock()
		return
	}

	// No healthy leader in the pool this round. If the adopted write
	// endpoint just probed unhealthy, forget it: keeping it would proxy
	// every mutation to a dead URL until the dial fails, when a fast
	// 503 + Retry-After tells clients to back off and come back after
	// failover. A 403-hint-adopted leader outside the configured pool
	// has no pool entry to consult, so it is probed directly here —
	// nothing else ever health-checks it.
	if cur := g.leaderURL(); cur != "" {
		if b := g.backendFor(cur); b != nil {
			if h := b.health(); h.Probed && !h.Healthy {
				g.leader.Store("")
			}
		} else if h := g.probe(ctx, &Backend{URL: cur}); h.Healthy && h.Role == "leader" && h.Pos.Epoch >= maxEpoch {
			// Alive, still leading and at (or above) the fencing floor,
			// merely unlisted: it counts as a seen leader, so
			// auto-failover must not promote against it. A claim below
			// the floor is a revived fenced ex-leader and falls through
			// to be forgotten like any dead one.
			g.mu.Lock()
			g.leaderSeenAt = now
			g.mu.Unlock()
			return
		} else {
			g.leader.Store("")
		}
	}
	g.maybeFailover(ctx, now)
}

// maybeFailover promotes the most caught-up healthy follower once the
// cluster has been leaderless for the configured grace period. Called at
// the end of every leaderless probe round; a no-op unless auto-failover
// is enabled.
func (g *Gateway) maybeFailover(ctx context.Context, now time.Time) {
	if g.autoFailover <= 0 {
		return
	}
	g.mu.Lock()
	if g.leaderSeenAt.IsZero() {
		// Leaderless from the first round (the leader died before this
		// gateway started): the grace period counts from now.
		g.leaderSeenAt = now
	}
	due := now.Sub(g.leaderSeenAt) >= g.autoFailover
	floor := g.maxEpoch
	g.mu.Unlock()
	if !due {
		return
	}
	// The most caught-up healthy follower by position: its
	// history is the longest surviving prefix of the dead leader's, so
	// promoting it loses the fewest replicated-but-unserved records —
	// and nothing acknowledged to a client that the cluster still holds.
	// Followers below the fencing floor are not candidates at all: their
	// history was superseded by an earlier promotion they never re-homed
	// onto, and promoting one (its bump would land exactly ON the floor,
	// slipping past the adoption filter) would resurrect the fenced
	// timeline and drop every write the real current epoch acknowledged.
	cand, _ := g.mostAdvanced("follower", floor)
	if cand == nil {
		g.noteFailover("auto-failover pending: no promotable follower (none healthy at the current epoch)", false)
		return // retry every round until a candidate appears
	}
	// One promotion attempt per grace window: restart the clock before
	// issuing the call so a slow promotion is not re-fired against a
	// second follower by the next probe round (two same-epoch leaders).
	g.mu.Lock()
	g.leaderSeenAt = now
	g.mu.Unlock()
	if err := g.promote(ctx, cand); err != nil {
		g.noteFailover("promote "+cand.URL+": "+err.Error(), false)
		return
	}
	g.noteFailover("promoted "+cand.URL, true)
	// Adopt the new leader immediately instead of waiting a probe round.
	cand.setHealth(g.probe(ctx, cand))
	if h := cand.health(); h.Healthy && h.Role == "leader" {
		g.leader.Store(cand.URL)
		g.noteLeaderSeq(h.Pos.Seq, time.Now())
		g.mu.Lock()
		g.maxEpoch = max(g.maxEpoch, h.Pos.Epoch)
		g.leaderSeenAt = time.Now()
		g.mu.Unlock()
	}
}

// mostAdvanced returns the healthy backend in role whose position is
// highest, with that position, among those at or above the fencing epoch
// floor; nil when none qualifies. Epochs order histories, and the seq
// only breaks ties within one.
func (g *Gateway) mostAdvanced(role string, floor uint64) (*Backend, journal.Pos) {
	var best *Backend
	var bestPos journal.Pos
	for _, b := range g.backends {
		h := b.health()
		if !h.Healthy || h.Role != role || h.Pos.Epoch < floor {
			continue
		}
		if best == nil || h.Pos.Compare(bestPos) > 0 {
			best, bestPos = b, h.Pos
		}
	}
	return best, bestPos
}

// promote issues one POST /promote against a follower backend.
func (g *Gateway) promote(ctx context.Context, b *Backend) error {
	ctx, cancel := context.WithTimeout(ctx, promoteTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.URL+"/promote", nil)
	if err != nil {
		return err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s: %s", resp.Status, body)
	}
	return nil
}

// noteFailover records the outcome of the latest auto-failover decision
// for GET /gateway/status.
func (g *Gateway) noteFailover(msg string, promoted bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if promoted {
		g.failovers++
		mFailovers.Inc()
	}
	g.lastFailover = msg
}

// probe fetches one backend's /status.
func (g *Gateway) probe(ctx context.Context, b *Backend) health {
	h := health{Probed: true, At: time.Now()}
	ctx, cancel := context.WithTimeout(ctx, DefaultProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.URL+"/status", nil)
	if err != nil {
		h.Err = err.Error()
		return h
	}
	resp, err := g.client.Do(req)
	if err != nil {
		h.Err = err.Error()
		return h
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 512)) //nolint:errcheck
		h.Err = fmt.Sprintf("status %s", resp.Status)
		return h
	}
	var st service.StatusResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err != nil {
		h.Err = "bad status body: " + err.Error()
		return h
	}
	h.Healthy = st.Healthy
	h.Role = st.Role
	h.Pos = journal.Pos{Epoch: st.Epoch, Seq: st.DurableSeq}
	if h.Pos.Epoch == 0 && h.Role != "" {
		// A durable backend from before epochs existed: its history is
		// the first (and so far only) generation.
		h.Pos.Epoch = 1
	}
	return h
}

// noteLeaderSeq appends a watermark when the leader's durable sequence
// number advanced past the newest retained mark. A sequence number BELOW
// the newest mark means the adopted leader's history regressed — a
// failover promoted a follower that had not applied the old leader's
// tail. Marks above its position describe a history that no longer
// exists; keeping them would inflate every follower's staleness estimate
// forever (no follower of the new leader can ever pass them), so they
// are dropped and the clock restarts from the new leader's position.
func (g *Gateway) noteLeaderSeq(seq uint64, at time.Time) {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := len(g.marks)
	for n > 0 && g.marks[n-1].seq > seq {
		n--
	}
	g.marks = g.marks[:n]
	if n > 0 && seq == g.marks[n-1].seq {
		return
	}
	g.marks = append(g.marks, watermark{seq: seq, at: at})
	if len(g.marks) > maxWatermarks {
		g.marks = append(g.marks[:0], g.marks[len(g.marks)-maxWatermarks:]...)
	}
}

// staleness estimates, in seconds, how long the state at applied sequence
// number appliedSeq has been behind the leader: the age of the earliest
// watermark whose seq exceeds it. 0 means caught up with everything the
// gateway has observed; -1 means unknown (no leader observed yet). The
// estimate is a lower bound — a backend can only be staler than the
// gateway's observation history shows — so a backend it rejects is
// certainly over the bound, while one it admits may have been observed too
// recently to tell.
func (g *Gateway) staleness(appliedSeq uint64) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.marks) == 0 {
		return -1
	}
	for _, m := range g.marks {
		if m.seq > appliedSeq {
			return time.Since(m.at).Seconds()
		}
	}
	return 0
}

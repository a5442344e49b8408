package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	stgq "repro"
	"repro/internal/journal"
)

// Follower reconnect backoff bounds (exponential between them).
const (
	DefaultMinBackoff = 100 * time.Millisecond
	DefaultMaxBackoff = 5 * time.Second
)

// errSealed reports replication input arriving after Promote sealed the
// follower: the local store is (about to be) a leader and must not apply
// another leader's records.
var errSealed = errors.New("replica: follower sealed for promotion")

// Config describes a follower.
type Config struct {
	// LeaderURL is the leader's base URL (e.g. http://leader:8080); the
	// stream endpoint path is appended.
	LeaderURL string
	// Dir is the follower's own data dir. Applied records are journaled
	// into it, so a restarted (or promoted) follower recovers from its
	// own disk.
	Dir string
	// Store tunes the follower's journal store, and the store Promote
	// re-opens: group commit never waits for company, so the serial
	// applier and a promoted leader's concurrent writers share one
	// setting.
	Store journal.Options
	// Client issues the stream requests; http.DefaultClient (no timeout,
	// as a long-poll needs) when nil.
	Client *http.Client
	// MinBackoff/MaxBackoff bound the reconnect backoff after errors.
	// Negative values are rejected; zero means the default; MaxBackoff
	// below MinBackoff is clamped up to MinBackoff.
	MinBackoff, MaxBackoff time.Duration
}

// Status is a point-in-time view of replication progress, exposed by the
// follower service's GET /status.
type Status struct {
	// Leader is the URL this follower replicates from.
	Leader string `json:"leader"`
	// Connected is true while a replication stream is live.
	Connected bool `json:"connected"`
	// AppliedSeq is the highest sequence number applied (and re-journaled)
	// locally.
	AppliedSeq uint64 `json:"appliedSeq"`
	// Epoch is the follower's local leader epoch: the epoch its durable
	// history was written under, raised when the replicated leader
	// advertises a newer one (a failover happened upstream).
	Epoch uint64 `json:"epoch"`
	// LeaderSeq is the leader's durable sequence number as of the last
	// record or heartbeat received.
	LeaderSeq uint64 `json:"leaderSeq"`
	// LagRecords is LeaderSeq minus AppliedSeq: how many records behind
	// the last-heard leader position this follower is.
	LagRecords uint64 `json:"lagRecords"`
	// LagSeconds is the time since the leader was last heard from
	// (records or heartbeats); -1 before the first contact.
	LagSeconds float64 `json:"lagSeconds"`
	// LocatedPeople is the number of people with an applied location in
	// the replayed planner — the spatial coverage this follower can serve
	// geo-social queries from. It advances as MutSetLocation records are
	// applied (or arrive folded into a bootstrap snapshot).
	LocatedPeople uint64 `json:"locatedPeople"`
	// Reconnects counts stream reconnects after errors (clean leader-side
	// stream rotations excluded).
	Reconnects uint64 `json:"reconnects"`
	// Bootstraps counts completed snapshot re-bootstraps.
	Bootstraps uint64 `json:"bootstraps"`
	// Bootstrapping is true while a snapshot re-bootstrap is wiping and
	// re-seeding the follower's store: the served planner is about to be
	// replaced wholesale, so the follower must not be advertised as a
	// healthy (merely stale) read backend.
	Bootstrapping bool `json:"bootstrapping,omitempty"`
	// LastError is the most recent replication failure ("" while healthy).
	LastError string `json:"lastError,omitempty"`
}

// Follower replicates a leader's journal into its own durable store and
// exposes the replayed planner for read-only queries. Create with
// NewFollower, drive with Run, serve queries via Planner, and — on
// failover — turn it into the new leader with Promote.
type Follower struct {
	cfg    Config
	client *http.Client

	mu sync.RWMutex // guards st (swapped on snapshot bootstrap)
	st *journal.Store

	// ingestMu serializes everything that writes replicated state into
	// the store — applyWire and resetFromSnapshot — so Promote can seal
	// the follower and then know no apply is in flight. Lock order:
	// ingestMu before mu.
	ingestMu sync.Mutex

	connected   atomic.Bool
	applied     atomic.Uint64
	epoch       atomic.Uint64
	leaderSeq   atomic.Uint64
	lastContact atomic.Int64 // unix nanos; 0 = never
	reconnects  atomic.Uint64
	bootstraps  atomic.Uint64
	// located mirrors the replayed planner's NumLocated so Status can
	// report spatial coverage without touching the store lock. Written
	// under ingestMu (applyWire, resetFromSnapshot) and at construction.
	located atomic.Uint64
	lastErr atomic.Value // string
	// forceBootstrap requests a snapshot reset on the next connect —
	// set when local apply diverges from the leader's history.
	forceBootstrap atomic.Bool
	// bootstrapping is true while resetFromSnapshot is in progress.
	bootstrapping atomic.Bool
	// sealed stops replication input ahead of a promotion; closed also
	// covers the promoted state (the store's ownership moved on).
	sealed atomic.Bool
	closed atomic.Bool

	// appliedCh wakes WaitApplied callers whenever the applied position
	// advances — or the follower stops for good, so barrier waiters fail
	// fast instead of running out their deadline against a dead replica.
	appliedCh journal.Notifier
}

// NewFollower opens (or recovers) the follower's own store in cfg.Dir and
// returns the follower. Run starts replication; until then the follower
// serves whatever its own disk held.
func NewFollower(cfg Config) (*Follower, error) {
	if cfg.LeaderURL == "" {
		return nil, errors.New("replica: missing leader URL")
	}
	if cfg.Dir == "" {
		return nil, errors.New("replica: missing data dir")
	}
	if cfg.MinBackoff < 0 || cfg.MaxBackoff < 0 {
		return nil, fmt.Errorf("replica: negative backoff bounds (min %v, max %v)", cfg.MinBackoff, cfg.MaxBackoff)
	}
	if cfg.MinBackoff == 0 {
		cfg.MinBackoff = DefaultMinBackoff
	}
	if cfg.MaxBackoff == 0 {
		cfg.MaxBackoff = DefaultMaxBackoff
	}
	if cfg.MaxBackoff < cfg.MinBackoff {
		// Resetting to DefaultMaxBackoff here would re-break the
		// invariant for any MinBackoff above it; the tightest bound that
		// keeps the backoff well-formed is MinBackoff itself (constant
		// backoff).
		cfg.MaxBackoff = cfg.MinBackoff
	}
	if journal.ResetPending(cfg.Dir) {
		// A previous snapshot bootstrap was interrupted mid-reset; what
		// the dir holds is neither the old state (condemned) nor a
		// complete seed. Discard it and bootstrap afresh.
		if err := journal.AbortReset(cfg.Dir); err != nil {
			return nil, err
		}
	}
	st, err := journal.Open(cfg.Dir, cfg.Store)
	if err != nil {
		return nil, err
	}
	f := &Follower{cfg: cfg, client: cfg.Client, st: st}
	if f.client == nil {
		f.client = http.DefaultClient
	}
	f.applied.Store(st.LastSeq())
	f.epoch.Store(st.Epoch())
	f.located.Store(uint64(st.Planner().NumLocated()))
	if rec := st.Recovery(); st.LastSeq() == 0 && rec.SnapshotSeq == 0 && rec.People == 0 {
		// A brand-new follower syncs its initial state from a leader
		// snapshot rather than replaying the whole journal record by
		// record (each one fsynced locally) — and adopts the leader's
		// schedule horizon and epoch with it, which cfg.Store cannot
		// know.
		f.forceBootstrap.Store(true)
	}
	return f, nil
}

// Planner returns the current replayed planner. The pointer is swapped on
// snapshot bootstrap, so callers must fetch it per request, not cache it.
func (f *Follower) Planner() *stgq.Planner { return f.store().Planner() }

// JournalStats returns the follower's own journal statistics.
func (f *Follower) JournalStats() journal.Stats { return f.store().Stats() }

// Pos returns the follower's applied position — its local leader epoch
// and the highest journal sequence number applied to its planner —
// without touching the store lock or building the full status. The seq
// is read first: an epoch adopted in between then pairs the newer epoch
// with a seq at or before its fork point, which both histories share.
func (f *Follower) Pos() journal.Pos {
	seq := f.applied.Load()
	return journal.Pos{Epoch: f.epoch.Load(), Seq: seq}
}

// WaitApplied blocks until the follower's applied position has reached
// seq (AppliedSeq >= seq), the context is done, or the follower has
// stopped replicating for good (closed or sealed for promotion). It is
// the follower half of the cluster's read-your-writes barrier: a read
// carrying an X-STGQ-Min-Seq floor parks here until the write it wants
// to observe has been applied locally. Unlike journal.WaitDurable, the
// wait survives a snapshot re-bootstrap swapping the store out from
// under it — the applied position, not any one store, is what advances.
func (f *Follower) WaitApplied(ctx context.Context, seq uint64) error {
	for {
		if f.applied.Load() >= seq {
			return nil
		}
		ch := f.appliedCh.Wait()
		// Re-check both the position and the liveness AFTER registering:
		// an advance (or a close) that slipped in between would otherwise
		// leave this waiter parked on a channel nobody broadcasts again.
		if f.applied.Load() >= seq {
			return nil
		}
		if f.closed.Load() || f.sealed.Load() {
			return fmt.Errorf("replica: wait for seq %d: %w", seq, journal.ErrClosed)
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Defunct reports that the follower has stopped replicating for good:
// it was closed, or a promotion attempt sealed it (and, on failure, left
// no writable store behind). A defunct follower's state is frozen and
// must not be advertised as a healthy read backend.
func (f *Follower) Defunct() bool { return f.closed.Load() }

// StatusView returns the current planner and journal stats without ever
// blocking: ok is false while a snapshot re-bootstrap holds the store
// lock for the swap. The follower's /status handler uses it so health
// probes get a prompt unhealthy answer during a bootstrap instead of
// stalling behind the lock — the Bootstrapping flag alone cannot close
// that window, since a reset can begin between reading the flag and
// touching the store.
func (f *Follower) StatusView() (pl *stgq.Planner, st journal.Stats, ok bool) {
	if !f.mu.TryRLock() {
		return nil, journal.Stats{}, false
	}
	defer f.mu.RUnlock()
	return f.st.Planner(), f.st.Stats(), true
}

func (f *Follower) store() *journal.Store {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.st
}

// Status reports replication progress.
func (f *Follower) Status() Status {
	applied := f.applied.Load()
	leader := f.leaderSeq.Load()
	lag := uint64(0)
	if leader > applied {
		lag = leader - applied
	}
	lagSec := -1.0
	if t := f.lastContact.Load(); t > 0 {
		lagSec = time.Since(time.Unix(0, t)).Seconds()
	}
	s := Status{
		Leader:        f.cfg.LeaderURL,
		Connected:     f.connected.Load(),
		AppliedSeq:    applied,
		Epoch:         f.epoch.Load(),
		LeaderSeq:     leader,
		LagRecords:    lag,
		LagSeconds:    lagSec,
		LocatedPeople: f.located.Load(),
		Reconnects:    f.reconnects.Load(),
		Bootstraps:    f.bootstraps.Load(),
		Bootstrapping: f.bootstrapping.Load(),
	}
	if v, ok := f.lastErr.Load().(string); ok {
		s.LastError = v
	}
	return s
}

// Run replicates until ctx is cancelled, reconnecting with exponential
// backoff after errors (a stream the leader closed cleanly reconnects
// immediately, without counting toward the Reconnects metric). Call Close
// afterwards to close the follower's store. Run returns early when
// Promote seals the follower.
func (f *Follower) Run(ctx context.Context) {
	backoff := f.cfg.MinBackoff
	for ctx.Err() == nil && !f.closed.Load() && !f.sealed.Load() {
		err := f.streamOnce(ctx)
		f.connected.Store(false)
		if err == nil {
			// Clean leader-side close (stream rotation) or a completed
			// bootstrap: normal operation, not a failure — reset the
			// failure state so /status reads healthy.
			backoff = f.cfg.MinBackoff
			f.lastErr.Store("")
			continue
		}
		if ctx.Err() != nil || f.closed.Load() || f.sealed.Load() {
			return
		}
		f.lastErr.Store(err.Error())
		f.reconnects.Add(1)
		mReconnects.Inc()
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return
		}
		backoff = min(backoff*2, f.cfg.MaxBackoff)
	}
}

// Promote seals replication and re-opens the follower's durable store as
// a writable leader at epoch+1 — the failover step. The returned store
// serves writes (and the replication stream) for the rest of the
// cluster; its ownership passes to the caller, and the follower itself
// becomes inert (Run exits, Close is a no-op, Planner keeps answering
// from the promoted store). The epoch bump fences the dead predecessor:
// should it revive, its streams advertise the old epoch and every
// follower of the new history rejects them.
func (f *Follower) Promote() (*journal.Store, error) {
	f.sealed.Store(true)
	// Barrier waiters must not ride out their deadlines against a replica
	// that has stopped applying; they re-check the seal on wakeup.
	f.appliedCh.Broadcast()
	// With the seal visible, draining ingestMu guarantees no replicated
	// record or snapshot reset is mid-write when the store closes.
	f.ingestMu.Lock()
	defer f.ingestMu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed.Load() {
		return nil, fmt.Errorf("replica: promote: %w", journal.ErrClosed)
	}
	f.connected.Store(false)
	fork := f.st.LastSeq() // where the new epoch's history departs
	// A close error (e.g. the final snapshot skipped) is survivable: the
	// journal remains authoritative and the re-open replays it.
	if err := f.st.Close(); err != nil {
		f.lastErr.Store("promote: close: " + err.Error())
	}
	epoch, err := journal.BumpEpoch(f.cfg.Dir, fork)
	if err != nil {
		f.closed.Store(true)
		return nil, err
	}
	st, err := journal.Open(f.cfg.Dir, f.cfg.Store)
	if err != nil {
		f.closed.Store(true)
		return nil, err
	}
	f.st = st
	f.applied.Store(st.LastSeq())
	f.epoch.Store(epoch)
	f.closed.Store(true) // Close must not close the store the caller now owns
	f.appliedCh.Broadcast()
	return st, nil
}

// streamOnce opens one stream and consumes it to the end. A nil return is
// a clean leader-side close (reconnect immediately); errors back off.
func (f *Follower) streamOnce(ctx context.Context) error {
	if f.sealed.Load() {
		return errSealed
	}
	after := f.store().LastSeq()
	url := f.cfg.LeaderURL + "/replication/stream?after=" + strconv.FormatUint(after, 10)
	if f.forceBootstrap.Load() {
		url += "&bootstrap=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("replica: leader returned %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	dec := json.NewDecoder(resp.Body)
	var hdr wireMsg
	if err := dec.Decode(&hdr); err != nil {
		return fmt.Errorf("replica: stream header: %w", err)
	}
	f.touch()
	// Fencing: every stream header advertises the leader's epoch (a
	// pre-epoch leader sends none and counts as 1). A leader behind the
	// follower's own epoch is a revived, already-superseded ex-leader —
	// its history must not be applied NOR bootstrapped from, or the
	// follower would roll back onto a fenced timeline.
	leaderEpoch := max(hdr.Epoch, 1)
	localEpoch := f.epoch.Load()
	if leaderEpoch < localEpoch {
		return fmt.Errorf("replica: fenced: leader %s advertises epoch %d behind local epoch %d",
			f.cfg.LeaderURL, leaderEpoch, localEpoch)
	}
	switch hdr.Kind {
	case kindSnapshot:
		mFramesIn.With("snapshot").Inc()
		frames, err := readSection(io.MultiReader(dec.Buffered(), resp.Body), hdr.Bytes)
		if err != nil {
			return fmt.Errorf("replica: snapshot at seq %d: %w", hdr.Seq, err)
		}
		f.touch()
		if err := f.resetFromSnapshot(hdr.Seq, leaderEpoch, hdr.Fork, hdr.Horizon, frames); err != nil {
			return err
		}
		f.forceBootstrap.Store(false)
		f.bootstraps.Add(1)
		mBootstraps.Inc()
		f.noteLeaderSeq(hdr.Seq)
		return nil // reconnect immediately; the next stream sends the tail
	case kindRecords:
		if leaderEpoch > localEpoch {
			// The leader was promoted since the follower's history was
			// written. The header's fork is where the leader's epoch
			// departed from its predecessor's timeline, so the local
			// history is provably a shared prefix only for a single-step
			// epoch jump with the local position at or before the fork.
			// Anything else — a local tail past the fork (the dead
			// leader's orphaned writes; the leader's durable seq may by
			// now have advanced past it, so the fork, not the durable
			// seq, is the divergence test), or a multi-epoch jump whose
			// intermediate fork points are unknown — could silently
			// splice divergent histories and forces a rebuild from the
			// new history's snapshot instead.
			if leaderEpoch != localEpoch+1 || after > hdr.Fork {
				f.forceBootstrap.Store(true)
				return fmt.Errorf("replica: leader epoch %d (fork seq %d) vs local epoch %d at seq %d: divergent history, re-bootstrapping",
					leaderEpoch, hdr.Fork, localEpoch, after)
			}
			if err := f.adoptEpoch(leaderEpoch, hdr.Fork); err != nil {
				return err
			}
		}
		f.connected.Store(true)
		f.noteLeaderSeq(hdr.Seq)
		for {
			var msg wireMsg
			if err := dec.Decode(&msg); err != nil {
				if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
					return nil // leader closed the stream (MaxConnected)
				}
				return err
			}
			f.touch()
			switch msg.Kind {
			case kindHeartbeat:
				mFramesIn.With("heartbeat").Inc()
				// A mid-stream epoch change means the upstream identity
				// changed under a stable URL (a gateway re-routed the
				// stream across a failover): abandon the stream and let
				// the reconnect re-run the header checks.
				if hb := max(msg.Epoch, 1); hb != leaderEpoch {
					return fmt.Errorf("replica: leader epoch changed mid-stream (%d → %d)", leaderEpoch, hb)
				}
				f.noteLeaderSeq(msg.Seq)
			case kindRecord:
				mFramesIn.With("record").Inc()
				if err := f.applyFrame(ctx, msg.Frame); err != nil {
					return err
				}
			case kindError:
				mFramesIn.With("error").Inc()
				return fmt.Errorf("replica: leader: %s", msg.Err)
			default:
				return fmt.Errorf("replica: unexpected frame kind %q", msg.Kind)
			}
		}
	default:
		return fmt.Errorf("replica: unexpected stream header kind %q", hdr.Kind)
	}
}

// adoptEpoch durably raises the follower's epoch to the leader's (which
// began at startSeq), so a later promotion of this follower lands
// strictly above the entire observed history. Like every other ingest
// path it is serialized against Promote: writing the adopted epoch's
// meta under a just-promoted store would overwrite the promotion's own
// epoch/fork record.
func (f *Follower) adoptEpoch(epoch, startSeq uint64) error {
	f.ingestMu.Lock()
	defer f.ingestMu.Unlock()
	if f.sealed.Load() {
		return errSealed
	}
	if err := f.store().AdvanceEpoch(epoch, startSeq); err != nil {
		return fmt.Errorf("replica: adopting leader epoch %d: %w", epoch, err)
	}
	f.epoch.Store(epoch)
	return nil
}

// applyFrame applies one record frame to the follower's planner (and,
// through the store's mutation hook, its own journal). Records at or
// below the applied position — duplicates after a reconnect — are
// skipped; a frame that does not decode, a gap or a divergent apply
// forces a snapshot bootstrap on the next connect.
func (f *Follower) applyFrame(ctx context.Context, frame []byte) error {
	rec, err := journal.DecodeFrame(frame)
	if err != nil {
		f.forceBootstrap.Store(true)
		return fmt.Errorf("replica: record frame: %w", err)
	}
	f.ingestMu.Lock()
	defer f.ingestMu.Unlock()
	if f.sealed.Load() {
		return errSealed
	}
	st := f.store()
	applied := st.LastSeq()
	if rec.Seq <= applied {
		return nil
	}
	if rec.Seq != applied+1 {
		return fmt.Errorf("replica: sequence gap: applied %d, leader sent %d", applied, rec.Seq)
	}
	applyStart := time.Now()
	if err := journal.Apply(ctx, st.Planner(), rec); err != nil {
		// Divergence from the leader's history (or a local journal
		// failure mid-apply): the local state can no longer be trusted
		// to be a prefix, so rebuild from a leader snapshot.
		f.forceBootstrap.Store(true)
		return err
	}
	if got := st.LastSeq(); got != rec.Seq {
		f.forceBootstrap.Store(true)
		return fmt.Errorf("replica: local store assigned seq %d for leader record %d", got, rec.Seq)
	}
	mApplySeconds.ObserveSince(applyStart)
	if rec.Mut.Op == stgq.MutSetLocation {
		// Re-read rather than increment: a move relocates an already-
		// located person, so the count tracks coverage, not record volume.
		f.located.Store(uint64(st.Planner().NumLocated()))
	}
	f.applied.Store(rec.Seq)
	f.appliedCh.Broadcast()
	f.noteLeaderSeq(rec.Seq)
	return nil
}

// readSection reads the byte section of a snapshot stream: r starts at
// the newline that ends the header, and the leader closes the stream
// after exactly n bytes. A stream cut short, or one that goes on past n
// bytes (a leader that sends snapshots some other way), is an error, and
// nothing has touched the store by then.
func readSection(r io.Reader, n int64) ([]byte, error) {
	if n < 0 || n == math.MaxInt64 {
		return nil, fmt.Errorf("header announces %d bytes", n)
	}
	buf := make([]byte, 1+n)
	got, err := io.ReadFull(r, buf)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("cut short after %d of %d bytes: %w", max(got-1, 0), n, err)
	}
	if buf[0] != '\n' {
		return nil, errors.New("no newline after the header")
	}
	if _, err := io.ReadFull(r, make([]byte, 1)); err != io.EOF {
		return nil, fmt.Errorf("the stream goes on after %d bytes", n)
	}
	return buf[1:], nil
}

// resetFromSnapshot replaces the follower's store with the leader's
// snapshot frames at seq, adopting the leader's horizon and epoch (begun
// at epochStart) with it. The frames are replayed before the old store is
// closed: a snapshot this follower cannot replay leaves it as it was.
func (f *Follower) resetFromSnapshot(seq, epoch, epochStart uint64, horizon int, frames []byte) error {
	snap, err := journal.ReplaySnapshot(frames, horizon)
	if err != nil {
		return fmt.Errorf("replica: snapshot at seq %d: %w", seq, err)
	}
	f.ingestMu.Lock()
	defer f.ingestMu.Unlock()
	if f.sealed.Load() {
		return errSealed
	}
	// Flag the reset before taking the lock: /status handlers that are not
	// yet blocked on the swapped planner must already see the follower as
	// bootstrapping (unhealthy), not stale-but-healthy.
	f.bootstrapping.Store(true)
	defer f.bootstrapping.Store(false)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed.Load() {
		return journal.ErrClosed
	}
	// A close error cannot stop the reset: the local state is being
	// discarded either way.
	_ = f.st.Close()
	st, err := journal.ResetFromSnapshot(f.cfg.Dir, seq, epoch, epochStart, snap, f.cfg.Store)
	if err != nil {
		return err
	}
	f.st = st
	f.applied.Store(st.LastSeq())
	f.appliedCh.Broadcast()
	f.epoch.Store(st.Epoch())
	f.located.Store(uint64(st.Planner().NumLocated()))
	return nil
}

func (f *Follower) touch() { f.lastContact.Store(time.Now().UnixNano()) }

func (f *Follower) noteLeaderSeq(seq uint64) {
	for {
		cur := f.leaderSeq.Load()
		if seq <= cur || f.leaderSeq.CompareAndSwap(cur, seq) {
			noteLag(f.leaderSeq.Load(), f.applied.Load())
			return
		}
	}
}

// Close stops accepting replicated records and closes the follower's
// store. Cancel Run's context first; Close does not wait for it. After a
// Promote, Close is a no-op: the promoted store belongs to the caller.
func (f *Follower) Close() error {
	// The closed flag is claimed under the store lock: deciding it
	// earlier would race an in-flight Promote (which checks the flag
	// under the same lock) and close the promoted store its new owner
	// was just handed.
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed.Swap(true) {
		return nil
	}
	f.appliedCh.Broadcast() // wake barrier waiters into the closed check
	return f.st.Close()
}

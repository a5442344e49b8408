package journal

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// This file is the tailing/subscription seam of the journal: everything a
// replication leader needs to re-read its own committed history. Records
// are read straight from the segment files (never through the planner), so
// tailing shares no locks with the write path and a slow reader can never
// stall group commit.

// ErrCompacted reports that records after the requested position no longer
// exist as journal records: a snapshot folded them in and compaction
// retired their segments. The caller must restart from the latest snapshot
// (see ReplicationSnapshot).
var ErrCompacted = errors.New("journal: records compacted into a snapshot")

// LastSeq returns the highest sequence number assigned so far (records
// with that number may still be waiting for group commit).
func (s *Store) LastSeq() uint64 { return s.seq.Load() }

// DurableSeq returns the highest sequence number known fsynced. Every
// record up to it can be read back with a TailFrom cursor (unless
// compaction retired it, in which case the latest snapshot covers it).
func (s *Store) DurableSeq() uint64 {
	return max(s.b.DurableSeq(), s.rec.LastSeq)
}

// TailCursor incrementally reads committed records from the journal's
// segment files, remembering the byte offset of the next unread frame —
// so a caught-up reader pays only for the new tail of the active segment,
// not a rescan of the whole file, on every wakeup. Offsets stay valid
// because segments are strictly append-only while the store is open
// (truncation only ever happens during recovery); a segment deleted by
// compaction surfaces as ErrCompacted. A cursor is not safe for
// concurrent use; each replication stream owns one.
type TailCursor struct {
	s    *Store
	next uint64 // next sequence number to return
	path string // current segment file ("": locate on next Read)
	off  int64  // byte offset of the next unread frame in path
	buf  []byte // reused read window (per-commit wakeups must not churn 256 KiB allocations)
}

// TailFrom returns a cursor positioned after afterSeq.
func (s *Store) TailFrom(afterSeq uint64) *TailCursor {
	return &TailCursor{s: s, next: afterSeq + 1}
}

// Pos returns the sequence number of the last record the cursor returned
// (the position a reconnecting reader would resume after).
func (c *TailCursor) Pos() uint64 { return c.next - 1 }

// Read returns up to limit committed records from the cursor's position,
// advancing it. nil means nothing committed beyond the position yet (wait
// on WaitDurable); ErrCompacted means the position was folded into a
// snapshot and the reader must bootstrap.
func (c *TailCursor) Read(limit int) ([]Record, error) {
	if limit <= 0 {
		limit = 1024
	}
	upTo := c.s.DurableSeq()
	var out []Record
	for c.next <= upTo && len(out) < limit {
		if c.path == "" {
			path, _, err := c.locate(upTo)
			if err != nil {
				return nil, err
			}
			c.path, c.off = path, 0
		}
		consumed, err := c.scanSegment(&out, upTo, limit)
		switch {
		case os.IsNotExist(err):
			// Compaction deleted the segment under us; re-locate (and
			// report ErrCompacted from there if our records are gone).
			c.path = ""
			continue
		case err != nil:
			return nil, err
		case consumed > 0:
			continue // more may follow in this segment
		}
		// No new bytes here: either the writer rotated onward, or the
		// records are not visible yet.
		path, nextFirst, err := c.locate(upTo)
		if err != nil {
			return nil, err
		}
		if path == c.path {
			if nextFirst != 0 {
				// The segment is sealed and exhausted, yet the journal
				// continues at nextFirst > c.next: the records between
				// were lost to a partially-failed compaction. Without
				// this check the caller would spin — WaitDurable returns
				// immediately (the watermark is far ahead) but no read
				// ever progresses.
				return nil, c.s.missingRecordErr(c.next, nextFirst)
			}
			break // nothing more on disk; caller waits for commits
		}
		c.path, c.off = path, 0
	}
	return out, nil
}

// tailReadWindow bounds one scanSegment read. Bounding keeps catch-up
// over a large segment linear (each call reads roughly what it consumes,
// not offset-to-EOF every time); typical frames are tens of bytes, so one
// window holds far more than a ChunkRecords batch.
const tailReadWindow = 256 << 10

// scanSegment reads the unread tail of the current segment, appending
// records in (c.next-1, upTo] to out and advancing the cursor. It returns
// the bytes consumed (0: no complete new frame yet).
func (c *TailCursor) scanSegment(out *[]Record, upTo uint64, limit int) (int, error) {
	f, err := os.Open(c.path)
	if err != nil {
		return 0, err // ENOENT is the caller's re-locate signal
	}
	defer f.Close()
	window := tailReadWindow
	for {
		if cap(c.buf) < window {
			c.buf = make([]byte, window)
		}
		buf := c.buf[:window]
		n, err := f.ReadAt(buf, c.off)
		if err != nil && err != io.EOF {
			return 0, fmt.Errorf("journal: %w", err)
		}
		data := buf[:n]
		// Frames past upTo are written but not yet known durable: the
		// scan stops before them (and before any incomplete trailing
		// frame from an in-flight append) so the cursor re-reads them
		// once they commit.
		recs, consumed := scanFramesLimit(data, upTo, limit-len(*out))
		if consumed == 0 && n == window && window < headerSize+maxPayload {
			// The window is full yet holds no complete frame: a record
			// bigger than the window (a near-MaxNameLen name). Retry
			// once with a window every legal frame fits in.
			window = headerSize + maxPayload
			continue
		}
		c.off += int64(consumed)
		for _, rec := range recs {
			if rec.Seq < c.next {
				continue // re-scan after a mid-segment relocate
			}
			if rec.Seq != c.next {
				return 0, c.s.missingRecordErr(c.next, rec.Seq)
			}
			*out = append(*out, rec)
			c.next++
		}
		return consumed, nil
	}
}

// locate finds the segment file holding the cursor's next record.
// nextFirst is the firstSeq of the segment after the chosen one (0 when
// the chosen segment is the last): Read uses it to tell "active segment,
// records not written yet" from "sealed segment exhausted with a hole
// after it".
func (c *TailCursor) locate(upTo uint64) (path string, nextFirst uint64, err error) {
	segs, err := listSegments(c.s.dir)
	if err != nil {
		return "", 0, fmt.Errorf("journal: %w", err)
	}
	for i, seg := range segs {
		if i+1 < len(segs) && segs[i+1].firstSeq <= c.next {
			continue // next lives in a later segment
		}
		if seg.firstSeq > c.next {
			// The records directly after the position no longer exist.
			return "", 0, c.s.missingRecordErr(c.next, seg.firstSeq)
		}
		if i+1 < len(segs) {
			nextFirst = segs[i+1].firstSeq
		}
		return seg.path, nextFirst, nil
	}
	return "", 0, c.s.missingRecordErr(c.next, upTo+1)
}

// missingRecordErr classifies a hole at sequence number missing: records
// covered by the latest snapshot were legitimately compacted away; a hole
// above the snapshot is real corruption.
func (s *Store) missingRecordErr(missing, found uint64) error {
	if missing <= s.lastSnap.Load() {
		return ErrCompacted
	}
	return fmt.Errorf("%w: journal hole %d → %d", ErrCorrupt, missing, found)
}

// WaitDurable blocks until a record with sequence number greater than
// afterSeq is durable, the context is done, or the store is closed.
func (s *Store) WaitDurable(ctx context.Context, afterSeq uint64) error {
	for {
		if s.DurableSeq() > afterSeq {
			return nil
		}
		ch := s.durNotify.Wait()
		if s.DurableSeq() > afterSeq {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		case <-s.closeCh:
			return ErrClosed
		}
	}
}

// ReplicationSnapshot returns the bytes of the newest snapshot file, which
// a follower bootstraps from (ReplaySnapshot takes them as they are), and
// the sequence number it covers. Without one it takes one first; a store
// that never journaled a record still has none, and its snapshot is no
// frames at sequence 0. The file is read outside snapMu: a snapshot cycle
// that retires it before it is opened sends the read to its successor.
func (s *Store) ReplicationSnapshot() ([]byte, uint64, error) {
	if _, ok, err := latestSnapshot(s.dir); err == nil && !ok {
		if err := s.Snapshot(); err != nil {
			return nil, 0, err
		}
	}
	for {
		snap, ok, err := latestSnapshot(s.dir)
		switch {
		case err != nil:
			return nil, 0, fmt.Errorf("journal: snapshot: %w", err)
		case !ok && s.lastSnap.Load() != 0:
			return nil, 0, fmt.Errorf("journal: snapshot at seq %d missing from disk", s.lastSnap.Load())
		case !ok:
			return nil, 0, nil
		}
		frames, err := os.ReadFile(snap.path)
		if err == nil {
			return frames, snap.seq, nil
		}
		if !os.IsNotExist(err) {
			return nil, 0, fmt.Errorf("journal: snapshot: %w", err)
		}
	}
}

// Notifier is a broadcast edge: waiters grab the current channel with
// Wait, a Broadcast closes it (waking everyone) and resets. No
// allocation happens unless someone is waiting. The zero value is
// ready to use. The journal's durability notifier and the replication
// follower's applied-seq notifier are both instances; the usage pattern
// is: check the condition, Wait() a channel, re-check the condition
// (an advance between the check and the Wait would otherwise be
// missed), then select on the channel.
type Notifier struct {
	mu sync.Mutex
	ch chan struct{}
}

// Wait returns the channel the next Broadcast will close.
func (n *Notifier) Wait() <-chan struct{} {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ch == nil {
		n.ch = make(chan struct{})
	}
	return n.ch
}

// Broadcast wakes every current waiter (a no-op with none).
func (n *Notifier) Broadcast() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ch != nil {
		close(n.ch)
		n.ch = nil
	}
}

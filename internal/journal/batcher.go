package journal

import (
	"sync"
	"sync/atomic"
	"time"
)

// Batcher is the group-commit stage: records enqueued by many concurrent
// writers are drained by a single writer goroutine and appended (with one
// fsync) per batch. A batch is committed as soon as a record arrives and
// holds everything already queued, up to maxBatch records; records that
// arrive while that write+fsync runs form the next batch, so the previous
// fsync is the batching window. Every caller gets an individual ack
// carrying the batch's append error.
type Batcher struct {
	app      Appender
	maxBatch int

	in    chan batchItem
	flush chan chan error
	stop  chan struct{}
	done  chan struct{}

	closeMu  sync.RWMutex // excludes Enqueue deposits during Close
	closed   bool
	closeErr error // first commit error of the final drain; read after done

	durable atomic.Uint64 // highest seq known durable
	batches atomic.Uint64
	records atomic.Uint64
}

// Ack is the per-record group-commit acknowledgement: the batch's append
// error plus the record's share of the wait, split into the time spent
// queued before the batch started (EnqueueWait) and the batch's own
// write+fsync time (Fsync). The store forwards the split into per-request
// stage attribution (journal_enqueue / journal_fsync).
type Ack struct {
	// Err is the batch's append error (nil on success, ErrClosed after
	// Close).
	Err error
	// EnqueueWait is how long the record sat queued before its batch
	// started committing.
	EnqueueWait time.Duration
	// Fsync is the batch's write+fsync duration (shared by every record
	// in the batch).
	Fsync time.Duration
}

type batchItem struct {
	rec Record
	ack chan Ack
	at  time.Time // enqueue time, for the enqueue/ack latency split
}

// DefaultMaxBatch caps the records of one group commit of a Store.
const DefaultMaxBatch = 512

// NewBatcher starts the writer goroutine. maxBatch caps the records of one
// commit and falls back to DefaultMaxBatch when non-positive; no record
// ever waits for company, only for the commit ahead of it.
func NewBatcher(app Appender, maxBatch int) *Batcher {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	b := &Batcher{
		app:      app,
		maxBatch: maxBatch,
		in:       make(chan batchItem, 4*maxBatch),
		flush:    make(chan chan error),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go b.loop()
	return b
}

// Enqueue hands a record to the writer goroutine and returns the ack
// channel (buffered: the writer never blocks on it). Callers that must not
// stall — e.g. a mutation hook holding the planner lock — enqueue first
// and wait on the ack after releasing their locks.
//
// The deposit happens under a read lock that Close excludes: once Close
// has the write lock no further records can enter the channel, so the
// writer's final drain is complete and no ack is ever stranded.
//
// When the channel (4×maxBatch records) is full the deposit blocks until
// the writer catches up. This is deliberate backpressure: under a
// sustained fsync backlog, mutations — and, because the hook enqueues
// under the planner write lock, queries too — slow to journal speed
// rather than letting unacknowledged records pile up without bound.
func (b *Batcher) Enqueue(rec Record) <-chan Ack {
	it := batchItem{rec: rec, ack: make(chan Ack, 1), at: time.Now()}
	b.closeMu.RLock()
	if b.closed {
		it.ack <- Ack{Err: ErrClosed}
	} else {
		b.in <- it // writer drains until stop closes, so this cannot wedge
	}
	b.closeMu.RUnlock()
	return it.ack
}

// Append is Enqueue plus waiting for the group commit.
func (b *Batcher) Append(rec Record) error {
	return (<-b.Enqueue(rec)).Err
}

// Flush blocks until everything enqueued before the call has been
// committed, and returns the first commit error since the previous Flush,
// whichever commit hit it: its own or one an arrival started (callers who
// need a durability barrier — e.g. before compaction — must not proceed on
// error). Each error is returned by one Flush only. On a closed batcher it
// returns nil: Close already flushed.
func (b *Batcher) Flush() error {
	ack := make(chan error, 1)
	select {
	case b.flush <- ack:
		return <-ack
	case <-b.stop:
		return nil
	}
}

// DurableSeq returns the highest sequence number known to have been
// fsynced.
func (b *Batcher) DurableSeq() uint64 { return b.durable.Load() }

// Counters returns lifetime batch/record counts.
func (b *Batcher) Counters() (batches, records uint64) {
	return b.batches.Load(), b.records.Load()
}

// Close flushes pending records and stops the writer, returning the first
// commit error of the final drain (the affected enqueuers also get it via
// their acks). Records enqueued after Close are acked with ErrClosed.
func (b *Batcher) Close() error {
	b.closeMu.Lock()
	if !b.closed {
		// In-flight Enqueues held the read lock, so their deposits are
		// already in the channel; the writer's final drain commits them.
		b.closed = true
		close(b.stop)
	}
	b.closeMu.Unlock()
	<-b.done
	return b.closeErr // written before done closes
}

func (b *Batcher) loop() {
	defer close(b.done)

	var (
		batch      []batchItem
		unreported error // first commit error no Flush has returned yet
	)
	commit := func() error {
		start := time.Now()
		recs := make([]Record, len(batch))
		for i, it := range batch {
			recs[i] = it.rec
			mAppendEnqueue.Observe(start.Sub(it.at).Seconds())
		}
		err := b.app.Append(recs)
		fsync := time.Since(start)
		mAppendFsync.Observe(fsync.Seconds())
		mBatchRecords.Observe(float64(len(recs)))
		if err == nil {
			b.durable.Store(recs[len(recs)-1].Seq)
			b.batches.Add(1)
			b.records.Add(uint64(len(recs)))
		} else if unreported == nil {
			unreported = err
		}
		for _, it := range batch {
			mAppendAck.Observe(time.Since(it.at).Seconds())
			it.ack <- Ack{Err: err, EnqueueWait: start.Sub(it.at), Fsync: fsync}
		}
		batch = nil
		return err
	}
	// drain moves already-queued items into the batch without blocking.
	drain := func() {
		for len(batch) < b.maxBatch {
			select {
			case it := <-b.in:
				batch = append(batch, it)
			default:
				return
			}
		}
	}

	for {
		select {
		case it := <-b.in:
			// Commit at once with whatever else is already queued; later
			// arrivals queue behind this write+fsync and form the next
			// batch.
			batch = append(batch, it)
			drain()
			commit()

		case ack := <-b.flush:
			// Commit everything already queued, in maxBatch chunks; the
			// barrier only succeeds when no commit since the previous
			// Flush failed, whoever started it.
			for drain(); len(batch) > 0; drain() {
				commit()
			}
			ack <- unreported
			unreported = nil

		case <-b.stop:
			// Drain whatever racing Enqueues already got into the
			// channel, commit, and exit.
			for drain(); len(batch) > 0; drain() {
				if err := commit(); err != nil && b.closeErr == nil {
					b.closeErr = err
				}
			}
			return
		}
	}
}

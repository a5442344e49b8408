package journal

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	stgq "repro"
)

func rec(seq uint64) Record {
	return Record{Seq: seq, Mut: stgq.Mutation{Op: stgq.MutSetBusy, Person: 0, From: 0, To: 1}}
}

// TestBatcherHammer fires mutations from many goroutines and checks every
// record is durably stored exactly once, in sequence order, and every
// caller is acked.
func TestBatcherHammer(t *testing.T) {
	log := &MemLog{}
	b := NewBatcher(log, 64)
	defer b.Close()

	const (
		writers   = 32
		perWriter = 200
		totalRecs = writers * perWriter
	)
	var next atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan error, totalRecs)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := b.Append(rec(next.Add(1))); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	got := log.Records()
	if len(got) != totalRecs {
		t.Fatalf("stored %d records, want %d", len(got), totalRecs)
	}
	seen := make(map[uint64]bool, totalRecs)
	for _, r := range got {
		if seen[r.Seq] {
			t.Fatalf("seq %d stored twice", r.Seq)
		}
		seen[r.Seq] = true
	}
	if b.DurableSeq() == 0 {
		t.Fatal("durable seq not advanced")
	}
	if batches, records := b.Counters(); batches == 0 || records != totalRecs {
		t.Fatalf("counters: %d batches, %d records", batches, records)
	}
}

// TestBatcherGroupsCommits checks concurrent appends share fsyncs when the
// sink is slow — the whole point of group commit.
func TestBatcherGroupsCommits(t *testing.T) {
	log := &MemLog{SyncDelay: 2 * time.Millisecond}
	b := NewBatcher(log, 256)
	defer b.Close()

	const total = 400
	var next atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 20; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < total/20; i++ {
				if err := b.Append(rec(next.Add(1))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := log.Appends(); got >= total/2 {
		t.Fatalf("%d fsyncs for %d records — group commit not batching", got, total)
	}
}

func TestBatcherPropagatesSinkErrors(t *testing.T) {
	log := &MemLog{}
	b := NewBatcher(log, 8)
	defer b.Close()

	boom := errors.New("disk on fire")
	log.Fail(boom)
	if err := b.Append(rec(1)); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	log.Fail(nil)
	if err := b.Append(rec(2)); err != nil {
		t.Fatalf("recovered append failed: %v", err)
	}
}

func TestBatcherFlushReportsCommitError(t *testing.T) {
	log := &MemLog{}
	b := NewBatcher(log, 1<<20)
	defer b.Close()

	boom := errors.New("disk gone")
	log.Fail(boom)
	ack := b.Enqueue(rec(1))
	if err := b.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush over a failing sink returned %v, want %v", err, boom)
	}
	if a := <-ack; !errors.Is(a.Err, boom) {
		t.Fatalf("caller ack = %v, want %v", a.Err, boom)
	}
}

// TestBatcherFlushReportsAnArrivalCommitError checks that a Flush reports
// a commit that failed before it was called, one the record's arrival
// started, and that it reports that error only once.
func TestBatcherFlushReportsAnArrivalCommitError(t *testing.T) {
	log := &MemLog{}
	b := NewBatcher(log, 1<<20)
	defer b.Close()

	boom := errors.New("disk gone")
	log.Fail(boom)
	if a := <-b.Enqueue(rec(1)); !errors.Is(a.Err, boom) {
		t.Fatalf("caller ack = %v, want %v", a.Err, boom)
	}
	log.Fail(nil)
	if err := b.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush after a failed commit returned %v, want %v", err, boom)
	}
	if err := b.Flush(); err != nil {
		t.Fatalf("second Flush returned %v, want nil", err)
	}
}

func TestBatcherFlushDrainsBeyondMaxBatch(t *testing.T) {
	log := &MemLog{}
	b := NewBatcher(log, 4) // tiny batches
	defer b.Close()

	const total = 19
	acks := make([]<-chan Ack, total)
	for i := range acks {
		acks[i] = b.Enqueue(rec(uint64(i + 1)))
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := len(log.Records()); n != total {
		t.Fatalf("flush committed %d of %d records", n, total)
	}
	for i, ack := range acks {
		select {
		case a := <-ack:
			if a.Err != nil {
				t.Fatalf("ack %d: %v", i, a.Err)
			}
		default:
			t.Fatalf("ack %d not delivered after Flush", i)
		}
	}
}

func TestBatcherFlushIsABarrier(t *testing.T) {
	log := &MemLog{}
	b := NewBatcher(log, 1<<20) // no size cap in reach
	defer b.Close()

	acks := make([]<-chan Ack, 10)
	for i := range acks {
		acks[i] = b.Enqueue(rec(uint64(i + 1)))
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, ack := range acks {
		select {
		case a := <-ack:
			if a.Err != nil {
				t.Fatalf("ack %d: %v", i, a.Err)
			}
		default:
			t.Fatalf("ack %d not delivered after Flush", i)
		}
	}
	if n := len(log.Records()); n != 10 {
		t.Fatalf("stored %d records, want 10", n)
	}
}

func TestBatcherCloseFlushesAndRejects(t *testing.T) {
	log := &MemLog{}
	b := NewBatcher(log, 1<<20)
	ack := b.Enqueue(rec(1))
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if a := <-ack; a.Err != nil {
		t.Fatalf("pending record lost on close: %v", a.Err)
	}
	if n := len(log.Records()); n != 1 {
		t.Fatalf("stored %d records, want 1", n)
	}
	if err := b.Append(rec(2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := b.Flush(); err != nil {
		t.Fatalf("flush after close: %v", err)
	}
}

// TestBatcherTimerFlush checks that a lone writer commits without waiting:
// its record is committed on arrival, with no timer and no Flush.
func TestBatcherTimerFlush(t *testing.T) {
	log := &MemLog{}
	b := NewBatcher(log, 1<<20)
	defer b.Close()
	start := time.Now()
	if err := b.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("timer flush took %v", d)
	}
}

// gatedLog is an Appender whose first Append blocks until the test closes
// release, so the test decides exactly what queues behind that commit. It
// records the sequence numbers each Append received.
type gatedLog struct {
	entered chan struct{} // closed when the first Append starts
	release chan struct{} // closed by the test to let the first Append return

	mu    sync.Mutex
	calls [][]uint64
}

func newGatedLog() *gatedLog {
	return &gatedLog{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedLog) Append(recs []Record) error {
	seqs := make([]uint64, len(recs))
	for i, r := range recs {
		seqs[i] = r.Seq
	}
	g.mu.Lock()
	first := len(g.calls) == 0
	g.calls = append(g.calls, seqs)
	g.mu.Unlock()
	if first {
		close(g.entered)
		<-g.release
	}
	return nil
}

func (g *gatedLog) Close() error { return nil }

func (g *gatedLog) Calls() [][]uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.calls
}

// TestBatcherCommitsWhatQueuedBehindACommit pins batch formation without
// timing: a lone record is committed on arrival, with no Flush, and the K
// records enqueued while that commit is blocked form the next commit, or
// ⌈K/MaxBatch⌉ commits in order when K exceeds MaxBatch.
func TestBatcherCommitsWhatQueuedBehindACommit(t *testing.T) {
	for _, tc := range []struct{ maxBatch, k int }{
		{8, 1}, {8, 5}, {8, 8}, {4, 10}, {3, 12},
	} {
		log := newGatedLog()
		b := NewBatcher(log, tc.maxBatch)

		lone := b.Enqueue(rec(1))
		select {
		case <-log.entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("maxBatch %d: a lone record was not committed without a Flush", tc.maxBatch)
		}
		acks := make([]<-chan Ack, tc.k)
		for i := range acks {
			acks[i] = b.Enqueue(rec(uint64(i + 2)))
		}
		close(log.release)
		if a := <-lone; a.Err != nil {
			t.Fatalf("lone record: %v", a.Err)
		}
		for i, ack := range acks {
			if a := <-ack; a.Err != nil {
				t.Fatalf("record %d: %v", i+2, a.Err)
			}
		}

		want := [][]uint64{{1}}
		for lo := 0; lo < tc.k; lo += tc.maxBatch {
			var chunk []uint64
			for i := lo; i < min(lo+tc.maxBatch, tc.k); i++ {
				chunk = append(chunk, uint64(i+2))
			}
			want = append(want, chunk)
		}
		if got := log.Calls(); !reflect.DeepEqual(got, want) {
			t.Errorf("maxBatch %d, K %d: commits %v, want %v", tc.maxBatch, tc.k, got, want)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

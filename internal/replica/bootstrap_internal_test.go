package replica

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/journal"
)

// importedLeader returns a durable store holding ds and its stream
// endpoint.
func importedLeader(tb testing.TB, ds *dataset.Dataset) (*journal.Store, *httptest.Server) {
	tb.Helper()
	st, err := journal.ImportDataset(tb.TempDir(), ds, journal.Options{SnapshotEvery: -1})
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(NewStreamer(st))
	tb.Cleanup(func() {
		st.Close()
		ts.Close()
	})
	return st, ts
}

// TestBootstrapMetrics pins what one bootstrap moves on /metrics: the
// follower counts one bootstrap and one snapshot message, and the leader
// counts one sent message for the whole snapshot, not one per frame. The
// registry is process-wide, so the test compares deltas.
func TestBootstrapMetrics(t *testing.T) {
	ds := dataset.Synthetic(50, 1, 1)
	_, ts := importedLeader(t, ds)
	f, err := NewFollower(Config{LeaderURL: ts.URL, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	boots, snaps, sent := mBootstraps.Value(), mFramesIn.With("snapshot").Value(), mFramesOut.Value()
	if err := f.streamOnce(context.Background()); err != nil { // a fresh follower's first stream bootstraps
		t.Fatal(err)
	}
	if got := f.Planner().NumPeople(); got != ds.Graph.NumVertices() {
		t.Fatalf("bootstrapped %d people, want %d", got, ds.Graph.NumVertices())
	}
	for _, c := range []struct {
		name        string
		before, now uint64
	}{
		{"stgq_replica_bootstraps_total", boots, mBootstraps.Value()},
		{`stgq_replica_stream_frames_total{kind="snapshot"}`, snaps, mFramesIn.With("snapshot").Value()},
		{"stgq_replica_stream_sent_frames_total", sent, mFramesOut.Value()},
	} {
		if c.now-c.before != 1 {
			t.Errorf("%s moved by %d over one bootstrap, want 1", c.name, c.now-c.before)
		}
	}
}

// BenchmarkSnapshotBootstrap times a follower going from an empty dir to
// caught up with a leader that holds dataset.Synthetic(10000, 1, 2), and
// reports the snapshot's bytes per second. It fails when a bootstrap
// breaks or when the leader sends a message per frame.
func BenchmarkSnapshotBootstrap(b *testing.B) {
	ds := dataset.Synthetic(10000, 1, 2)
	leader, ts := importedLeader(b, ds)
	frames, _, err := leader.ReplicationSnapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frames)))
	people := ds.Graph.NumVertices()
	b.ResetTimer()
	for range b.N {
		sent := mFramesOut.Value()
		f, err := NewFollower(Config{LeaderURL: ts.URL, Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			f.Run(ctx)
			close(done)
		}()
		deadline := time.Now().Add(time.Minute)
		for st := f.Status(); st.Bootstraps == 0 || st.AppliedSeq < leader.LastSeq(); st = f.Status() {
			if time.Now().After(deadline) {
				b.Fatalf("follower not caught up: %+v", st)
			}
			time.Sleep(time.Millisecond)
		}
		cancel()
		<-done
		if got := f.Planner().NumPeople(); got != people {
			b.Fatalf("bootstrapped %d people, want %d", got, people)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		if n := mFramesOut.Value() - sent; n >= uint64(people) {
			b.Fatalf("the leader sent %d messages for one bootstrap of %d people", n, people)
		}
	}
}

package replica

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	stgq "repro"
	"repro/internal/dataset"
	"repro/internal/journal"
)

// TestResetFromSnapshotTogglesBootstrapping pins the health contract of
// satellite gateways: Status reports Bootstrapping while (and only while)
// a snapshot reset is replacing the follower's store, and the reset
// leaves the follower at the snapshot's sequence number and epoch.
func TestResetFromSnapshotTogglesBootstrapping(t *testing.T) {
	f, err := NewFollower(Config{LeaderURL: "http://leader.invalid:8080", Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Status().Bootstrapping {
		t.Fatal("fresh follower reports bootstrapping")
	}

	ds := dataset.Synthetic(20, 7, 1)
	// Observe the flag mid-reset through the atomic the status path reads:
	// it must already be set before the store lock is taken.
	f.bootstrapping.Store(true)
	if !f.Status().Bootstrapping {
		t.Fatal("Status does not surface the bootstrapping flag")
	}
	f.bootstrapping.Store(false)

	var frames []byte
	var n uint64
	for m := range stgq.DatasetMutations(ds) {
		n++
		frame, err := journal.EncodeFrame(journal.Record{Seq: n, Mut: m})
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame...)
	}
	if err := f.resetFromSnapshot(5, 3, 0, ds.Cal.Horizon(), frames); err != nil {
		t.Fatal(err)
	}
	st := f.Status()
	if st.Bootstrapping {
		t.Fatalf("bootstrapping still set after reset: %+v", st)
	}
	if st.AppliedSeq != 5 {
		t.Fatalf("applied seq %d after reset, want 5", st.AppliedSeq)
	}
	if st.Epoch != 3 {
		t.Fatalf("epoch %d after reset, want the leader's epoch 3", st.Epoch)
	}
	if got := f.Planner().NumPeople(); got != 20 {
		t.Fatalf("reset planner has %d people, want 20", got)
	}

	// StatusView must refuse (not block) while the reset holds the store
	// lock — the non-blocking path the follower's /status handler uses.
	if _, _, ok := f.StatusView(); !ok {
		t.Fatal("StatusView not ok on an idle follower")
	}
	f.mu.Lock()
	if _, _, ok := f.StatusView(); ok {
		t.Fatal("StatusView acquired the store lock mid-reset")
	}
	f.mu.Unlock()
}

// TestBackoffNormalization is the regression table for the MaxBackoff
// clamp: resetting an inverted MaxBackoff to DefaultMaxBackoff left
// MaxBackoff < MinBackoff whenever MinBackoff exceeded 5s, which made the
// reconnect loop's min(backoff*2, MaxBackoff) shrink the backoff below
// its configured floor. Negative bounds are rejected outright.
func TestBackoffNormalization(t *testing.T) {
	cases := []struct {
		name     string
		min, max time.Duration
		wantMin  time.Duration
		wantMax  time.Duration
		wantErr  bool
	}{
		{name: "defaults", min: 0, max: 0, wantMin: DefaultMinBackoff, wantMax: DefaultMaxBackoff},
		{name: "explicit", min: time.Second, max: 10 * time.Second, wantMin: time.Second, wantMax: 10 * time.Second},
		{name: "inverted small", min: 2 * time.Second, max: time.Second, wantMin: 2 * time.Second, wantMax: 2 * time.Second},
		// The regression: MinBackoff above DefaultMaxBackoff with no
		// MaxBackoff set must clamp to MinBackoff, not to the (smaller)
		// default.
		{name: "min above default max", min: 10 * time.Second, max: 0, wantMin: 10 * time.Second, wantMax: 10 * time.Second},
		{name: "inverted above default max", min: 10 * time.Second, max: 6 * time.Second, wantMin: 10 * time.Second, wantMax: 10 * time.Second},
		{name: "negative min", min: -time.Second, max: time.Second, wantErr: true},
		{name: "negative max", min: time.Second, max: -time.Second, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := NewFollower(Config{
				LeaderURL:  "http://leader.invalid:8080",
				Dir:        t.TempDir(),
				MinBackoff: tc.min,
				MaxBackoff: tc.max,
			})
			if tc.wantErr {
				if err == nil {
					f.Close()
					t.Fatal("negative backoff accepted")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if f.cfg.MinBackoff != tc.wantMin || f.cfg.MaxBackoff != tc.wantMax {
				t.Fatalf("normalized to min %v max %v, want min %v max %v",
					f.cfg.MinBackoff, f.cfg.MaxBackoff, tc.wantMin, tc.wantMax)
			}
			if f.cfg.MaxBackoff < f.cfg.MinBackoff {
				t.Fatalf("invariant broken: max %v < min %v", f.cfg.MaxBackoff, f.cfg.MinBackoff)
			}
		})
	}
}

// TestFollowerRejectsBadRecordFrames: a records message whose section
// holds no frame (including the mirror-field shape older leaders sent),
// a damaged frame, a frame cut off by the section's end, or frames whose
// sequence numbers skip is rejected before any of it reaches the planner,
// and the follower re-bootstraps on its next connect instead of applying
// a zero-value mutation or a part of the section.
func TestFollowerRejectsBadRecordFrames(t *testing.T) {
	frame := func(seq uint64, name string) []byte {
		b, err := journal.EncodeFrame(journal.Record{Seq: seq, Mut: stgq.Mutation{Op: stgq.MutAddPerson, Name: name}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	good := frame(1, "ana")
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x20
	records := func(section ...[]byte) string {
		b := bytes.Join(section, nil)
		return fmt.Sprintf("{\"k\":\"r\",\"bytes\":%d}\n%s", len(b), b)
	}
	for name, raw := range map[string]string{
		"no frame":           `{"k":"r"}` + "\n",
		"mirror fields":      `{"k":"r","seq":1,"op":1,"name":"ana"}` + "\n",
		"bit flip":           records(flipped),
		"ends inside frame":  records(good, frame(2, "bo")[:5]),
		"second frame skips": records(good, frame(3, "cy")),
	} {
		t.Run(name, func(t *testing.T) {
			f, err := NewFollower(Config{LeaderURL: "http://leader.invalid:8080", Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			f.forceBootstrap.Store(false) // a fresh follower starts with one pending
			if err := applyRecords(t, f, raw); !errors.Is(err, journal.ErrCorrupt) {
				t.Fatalf("applySection = %v, want ErrCorrupt", err)
			}
			if !f.forceBootstrap.Load() {
				t.Fatal("a bad frame did not force a bootstrap")
			}
			if st := f.Status(); st.AppliedSeq != 0 || f.Planner().NumPeople() != 0 {
				t.Fatalf("bad frame applied: seq %d, %d people", st.AppliedSeq, f.Planner().NumPeople())
			}
		})
	}
	// The intact frame applies.
	f, err := NewFollower(Config{LeaderURL: "http://leader.invalid:8080", Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := applyRecords(t, f, records(good)); err != nil {
		t.Fatal(err)
	}
	if got := f.Planner().Name(0); got != "ana" || f.Status().AppliedSeq != 1 {
		t.Fatalf("good frame: name %q, status %+v", got, f.Status())
	}
}

// applyRecords reads one records message from raw, its line and its
// section, as the stream loop does, and has f apply the section.
func applyRecords(t *testing.T, f *Follower, raw string) error {
	t.Helper()
	br := bufio.NewReader(strings.NewReader(raw))
	msg, err := readMsg(br)
	if err != nil || msg.Kind != kindRecord {
		t.Fatalf("records line: %+v, %v", msg, err)
	}
	frames, err := readSection(br, msg.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	return f.applySection(context.Background(), frames)
}

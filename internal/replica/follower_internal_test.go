package replica

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
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

	if err := f.resetFromSnapshot(5, 3, 0, ds); err != nil {
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

// TestFollowerRejectsBadRecordFrames: a record message whose journal
// frame is missing (including the mirror-field shape older leaders sent)
// or damaged is rejected before it reaches the planner, and the follower
// re-bootstraps on its next connect instead of applying a zero-value
// mutation.
func TestFollowerRejectsBadRecordFrames(t *testing.T) {
	good, err := journal.EncodeFrame(journal.Record{Seq: 1, Mut: stgq.Mutation{Op: stgq.MutAddPerson, Name: "ana"}})
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x20
	for name, raw := range map[string]string{
		"no frame":      `{"k":"r"}`,
		"mirror fields": `{"k":"r","seq":1,"op":1,"name":"ana"}`,
		"bit flip":      `{"k":"r","frame":"` + base64.StdEncoding.EncodeToString(flipped) + `"}`,
	} {
		t.Run(name, func(t *testing.T) {
			f, err := NewFollower(Config{LeaderURL: "http://leader.invalid:8080", Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			f.forceBootstrap.Store(false) // a fresh follower starts with one pending
			var msg wireMsg
			if err := json.Unmarshal([]byte(raw), &msg); err != nil {
				t.Fatal(err)
			}
			if err := f.applyFrame(context.Background(), msg.Frame); !errors.Is(err, journal.ErrCorrupt) {
				t.Fatalf("applyFrame = %v, want ErrCorrupt", err)
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
	if err := f.applyFrame(context.Background(), good); err != nil {
		t.Fatal(err)
	}
	if got := f.Planner().Name(0); got != "ana" || f.Status().AppliedSeq != 1 {
		t.Fatalf("good frame: name %q, status %+v", got, f.Status())
	}
}

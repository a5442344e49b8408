package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	stgq "repro"
	"repro/internal/dataset"
)

// ErrNotEmpty reports an ImportDataset into a data dir that already holds
// durable state; importing would silently shadow or corrupt it.
var ErrNotEmpty = errors.New("journal: data dir is not empty")

// ImportDataset initializes dir (created if needed) with ds as its initial
// state, written as a snapshot at sequence 0 — the bulk-import path for
// starting a durable store from a generated dataset. A subsequent Open
// recovers the dataset and journals new mutations on top of it. The
// import refuses with ErrNotEmpty when dir already holds a snapshot,
// journal segments or a meta file. Before anything is written, the
// snapshot is replayed onto an empty planner as the next boot will replay
// it, so a dataset that recovery would refuse (say, a name over
// stgq.MaxNameLen) is refused here, with the person or edge named.
func ImportDataset(dir string, ds *dataset.Dataset) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	unlock, err := lockDir(dir)
	if err != nil {
		return err
	}
	defer unlock()
	empty, err := storeEmpty(dir)
	if err != nil {
		return err
	}
	if !empty {
		return fmt.Errorf("%w: %s", ErrNotEmpty, dir)
	}
	frames, err := encodeSnapshot(ds)
	if err != nil {
		return err
	}
	if err := replaySnapshot(frames, stgq.NewPlanner(ds.Cal.Horizon())); err != nil {
		return fmt.Errorf("journal: import: %w", err)
	}
	return seedDir(dir, 0, 1, 0, ds.Cal.Horizon(), frames)
}

// resetMarkerName flags a ResetFromSnapshot in progress. Any state found
// alongside it — old files a crash left half-wiped, or a new seed whose
// marker removal never landed — must not be trusted as a prefix of the
// leader's history; AbortReset discards it.
const resetMarkerName = "RESETTING"

// ResetFromSnapshot replaces whatever durable state dir holds with the
// given snapshot: every segment, snapshot and meta file is removed, then
// frames (snapshot frames as Store.ReplicationSnapshot returns them) are
// written as the snapshot for seq at the given schedule horizon, leader
// epoch and epoch fork point (a replication follower adopts all three
// along with the leader's state; epoch 0 is normalized to 1). A replication
// follower uses it to bootstrap from the leader when its own position
// has been compacted away. The store of dir must be closed. The
// wipe-and-seed runs under a durable RESETTING marker: a crash anywhere
// inside leaves the marker behind, and ResetPending/AbortReset let the
// next boot detect the torso and discard it instead of resuming from
// half-wiped state.
func ResetFromSnapshot(dir string, seq, epoch, epochStart uint64, horizon int, frames []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	unlock, err := lockDir(dir)
	if err != nil {
		return err
	}
	defer unlock()
	m, err := os.Create(filepath.Join(dir, resetMarkerName))
	if err != nil {
		return fmt.Errorf("journal: reset marker: %w", err)
	}
	if err := m.Close(); err != nil {
		return fmt.Errorf("journal: reset marker: %w", err)
	}
	syncDir(dir) // the marker must survive a crash before the wipe does
	if err := wipeStoreFiles(dir); err != nil {
		return err
	}
	if err := seedDir(dir, seq, epoch, epochStart, horizon, frames); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(dir, resetMarkerName)); err != nil {
		return fmt.Errorf("journal: reset marker: %w", err)
	}
	syncDir(dir)
	return nil
}

// ResetPending reports whether dir holds the torso of an interrupted
// ResetFromSnapshot.
func ResetPending(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, resetMarkerName))
	return err == nil
}

// AbortReset discards the torso of an interrupted ResetFromSnapshot:
// every store file and the marker are removed, leaving an empty dir for a
// fresh bootstrap. The discarded state was condemned the moment the reset
// began, so nothing of value is lost.
func AbortReset(dir string) error {
	unlock, err := lockDir(dir)
	if err != nil {
		return err
	}
	defer unlock()
	if err := wipeStoreFiles(dir); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(dir, resetMarkerName)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("journal: reset marker: %w", err)
	}
	syncDir(dir)
	return nil
}

// seedDir writes the snapshot and the meta file that together make dir
// recover to the state of frames at the given sequence number, horizon,
// epoch and epoch fork point. The meta file goes last: a crash before it
// leaves a snapshot that Open refuses, never a meta file that recovers an
// empty planner.
func seedDir(dir string, seq, epoch, epochStart uint64, horizon int, frames []byte) error {
	if err := writeSnapshot(dir, seq, frames); err != nil {
		return err
	}
	return writeMeta(dir, storeMeta{HorizonSlots: horizon, Epoch: max(epoch, 1), EpochStartSeq: epochStart})
}

// storeEmpty reports whether dir holds no durable store state (snapshots,
// segments or meta). Foreign files (LOCK, temp files) are ignored.
func storeEmpty(dir string) (bool, error) {
	if _, err := os.Stat(filepath.Join(dir, metaFileName)); err == nil {
		return false, nil
	} else if !os.IsNotExist(err) {
		return false, fmt.Errorf("journal: %w", err)
	}
	for _, kind := range [][2]string{{segPrefix, segSuffix}, {snapPrefix, snapSuffix}} {
		files, err := listNumbered(dir, kind[0], kind[1])
		if err != nil {
			return false, fmt.Errorf("journal: %w", err)
		}
		if len(files) > 0 {
			return false, nil
		}
	}
	return true, nil
}

// wipeStoreFiles removes every snapshot, segment, meta and temp file of
// dir.
func wipeStoreFiles(dir string) error {
	if err := os.Remove(filepath.Join(dir, metaFileName)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("journal: %w", err)
	}
	for _, kind := range [][2]string{{segPrefix, segSuffix}, {snapPrefix, snapSuffix}} {
		files, err := listNumbered(dir, kind[0], kind[1])
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		for _, f := range files {
			if err := os.Remove(f.path); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("journal: %w", err)
			}
		}
	}
	if tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp")); err == nil {
		for _, p := range tmps {
			_ = os.Remove(p)
		}
	}
	syncDir(dir)
	return nil
}

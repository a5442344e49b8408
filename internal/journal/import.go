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
// state, written as a snapshot at sequence 0, and returns the store open
// on it (at ds's horizon, whatever opts says) — the bulk-import path for
// starting a durable store from a generated dataset. The import refuses
// with ErrNotEmpty when dir already holds a snapshot, journal segments or
// a meta file. Before anything is written, the snapshot is replayed as
// the next boot would replay it, so a dataset that recovery would refuse
// (say, a name over stgq.MaxNameLen) is refused here, with the person or
// edge named; the store serves the planner that replay built.
func ImportDataset(dir string, ds *dataset.Dataset, opts Options) (*Store, error) {
	return open(dir, opts, func() (*stgq.Planner, error) {
		empty, err := storeEmpty(dir)
		if err != nil {
			return nil, err
		}
		if !empty {
			return nil, fmt.Errorf("%w: %s", ErrNotEmpty, dir)
		}
		frames, err := encodeSnapshot(ds)
		if err != nil {
			return nil, err
		}
		snap, err := ReplaySnapshot(frames, ds.Cal.Horizon())
		if err != nil {
			return nil, fmt.Errorf("journal: import: %w", err)
		}
		return snap.pl, seedDir(dir, 0, 1, 0, snap)
	})
}

// resetMarkerName flags a ResetFromSnapshot in progress. Any state found
// alongside it — old files a crash left half-wiped, or a new seed whose
// marker removal never landed — must not be trusted as a prefix of the
// leader's history; AbortReset discards it.
const resetMarkerName = "RESETTING"

// ResetFromSnapshot replaces whatever durable state dir holds with snap
// and returns the store open on snap's planner: every segment, snapshot
// and meta file is removed, then snap's frames are written as the
// snapshot for seq at snap's horizon, leader epoch and epoch fork point (a
// replication follower adopts all three along with the leader's state;
// epoch 0 is normalized to 1). A replication follower uses it to
// bootstrap from the leader when its own position has been compacted
// away; having replayed the leader's frames first, it closes its store
// only for a snapshot it can replay. The wipe-and-seed runs under a
// durable RESETTING marker: a crash anywhere inside leaves the marker
// behind, and ResetPending/AbortReset let the next boot detect the torso
// and discard it instead of resuming from half-wiped state.
func ResetFromSnapshot(dir string, seq, epoch, epochStart uint64, snap Snapshot, opts Options) (*Store, error) {
	return open(dir, opts, func() (*stgq.Planner, error) {
		if err := os.WriteFile(filepath.Join(dir, resetMarkerName), nil, 0o644); err != nil {
			return nil, fmt.Errorf("journal: reset marker: %w", err)
		}
		syncDir(dir) // the marker must survive a crash before the wipe does
		if err := wipeStoreFiles(dir); err != nil {
			return nil, err
		}
		if err := seedDir(dir, seq, epoch, epochStart, snap); err != nil {
			return nil, err
		}
		if err := os.Remove(filepath.Join(dir, resetMarkerName)); err != nil {
			return nil, fmt.Errorf("journal: reset marker: %w", err)
		}
		syncDir(dir)
		return snap.pl, nil
	})
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
// recover to snap's state at the given sequence number, epoch and epoch
// fork point. The meta file goes last: a crash before it leaves a
// snapshot that Open refuses, never a meta file that recovers an empty
// planner.
func seedDir(dir string, seq, epoch, epochStart uint64, snap Snapshot) error {
	if err := writeSnapshot(dir, seq, snap.frames); err != nil {
		return err
	}
	return writeMeta(dir, storeMeta{HorizonSlots: snap.pl.Horizon(), Epoch: max(epoch, 1), EpochStartSeq: epochStart})
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

// wipeStoreFiles removes every snapshot, segment and meta file of dir.
// Temp files are left to the next open, which removes them first.
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
	syncDir(dir)
	return nil
}

package journal

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	stgq "repro"
	"repro/internal/dataset"
)

// Snapshot files are snap-<seq>.frames: the planner state after applying
// every record with Seq ≤ seq, as journal frames numbered 1..N
// (stgq.DatasetMutations of the exported state), to replay onto an empty
// planner of the meta file's horizon. Writes go through a temp file +
// fsync + rename so a crash mid-snapshot leaves the previous snapshot
// intact. Open refuses the dataset-JSON snapshots of older versions.
const (
	snapPrefix       = "snap-"
	snapSuffix       = ".frames"
	legacySnapSuffix = ".json"
)

func snapshotPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%020d%s", snapPrefix, seq, snapSuffix))
}

// encodeSnapshot returns ds as snapshot frames.
func encodeSnapshot(ds *dataset.Dataset) ([]byte, error) {
	var frames []byte
	var n uint64
	for m := range stgq.DatasetMutations(ds) {
		n++
		var err error
		if frames, err = appendFrame(frames, Record{Seq: n, Mut: m}); err != nil {
			return nil, fmt.Errorf("journal: snapshot frame %d: %w", n, err)
		}
	}
	return frames, nil
}

// replaySnapshot applies snapshot frames to pl, which must be empty. Any
// damage is ErrCorrupt: a snapshot is written whole, so unlike a segment
// it has no torn tail to forgive.
func replaySnapshot(frames []byte, pl *stgq.Planner) error {
	for n, off := uint64(1), 0; off < len(frames); n++ {
		rec, size, err := readFrame(frames[off:])
		if err != nil {
			return fmt.Errorf("%w: snapshot frame %d at byte %d: %v", ErrCorrupt, n, off, err)
		}
		if rec.Seq != n {
			return fmt.Errorf("%w: snapshot frame %d numbered %d", ErrCorrupt, n, rec.Seq)
		}
		//stgqcheck:ignore ctxflow a snapshot replays onto a planner no hook observes yet
		if err := Apply(context.Background(), pl, rec); err != nil {
			who := fmt.Sprintf("person %d", rec.Mut.Person)
			if rec.Mut.Op == stgq.MutConnect {
				who = fmt.Sprintf("edge %d–%d", rec.Mut.A, rec.Mut.B)
			}
			return fmt.Errorf("%v of %s: %w", rec.Mut.Op, who, err)
		}
		off += size
	}
	return nil
}

// writeSnapshot durably writes frames as the snapshot for seq and deletes
// any older snapshots.
func writeSnapshot(dir string, seq uint64, frames []byte) error {
	err := atomicWriteFile(dir, snapshotPath(dir, seq), func(f *os.File) error {
		_, err := f.Write(frames)
		return err
	})
	if err != nil {
		return err
	}
	// Retire superseded snapshots; recovery only ever reads the newest.
	snaps, err := listNumbered(dir, snapPrefix, snapSuffix)
	if err != nil {
		return nil // the snapshot itself is durable; cleanup is advisory
	}
	for _, s := range snaps {
		if s.seq < seq {
			_ = os.Remove(s.path)
		}
	}
	return nil
}

// readLatestSnapshot returns the newest snapshot's frames and the
// sequence number it covers, or ok=false when dir holds none.
func readLatestSnapshot(dir string) (frames []byte, seq uint64, ok bool, err error) {
	snaps, err := listNumbered(dir, snapPrefix, snapSuffix)
	if err != nil || len(snaps) == 0 {
		return nil, 0, false, err
	}
	newest := snaps[len(snaps)-1]
	frames, err = os.ReadFile(newest.path)
	if err != nil {
		return nil, 0, false, fmt.Errorf("journal: snapshot: %w", err)
	}
	return frames, newest.seq, true, nil
}

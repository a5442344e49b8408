package journal

import (
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

// Snapshot is a snapshot's frames together with the planner they replay
// to. ReplaySnapshot makes one; ImportDataset and ResetFromSnapshot seed a
// data dir with its frames and serve its planner, so the replay that
// checks a snapshot is the one the store runs on.
type Snapshot struct {
	frames []byte
	pl     *stgq.Planner
}

// ReplaySnapshot replays frames — journal frames numbered 1..N, as
// ReplicationSnapshot returns them — onto an empty planner of horizon
// slots, built by stgq.BuildPlanner: no one sees the planner before the
// last frame has applied. Any damage is ErrCorrupt: a snapshot is written
// whole, so unlike a segment it has no torn tail to forgive. A frame the
// planner refuses is an error naming the frame and the person or edge.
func ReplaySnapshot(frames []byte, horizon int) (Snapshot, error) {
	var (
		n   uint64
		rec Record
		bad error
	)
	muts := func(yield func(*stgq.Mutation) bool) {
		for off := 0; off < len(frames); {
			n++
			var size int
			var err error
			if rec, size, err = ReadFrame(frames[off:]); err != nil {
				bad = fmt.Errorf("%w: snapshot frame %d at byte %d: %v", ErrCorrupt, n, off, err)
				return
			}
			if rec.Seq != n {
				bad = fmt.Errorf("%w: snapshot frame %d numbered %d", ErrCorrupt, n, rec.Seq)
				return
			}
			if !yield(&rec.Mut) {
				return
			}
			off += size
		}
	}
	pl, err := stgq.BuildPlanner(horizon, muts)
	if bad != nil {
		return Snapshot{}, bad
	}
	if err != nil {
		who := fmt.Sprintf("person %d", rec.Mut.Person)
		if rec.Mut.Op == stgq.MutConnect {
			who = fmt.Sprintf("edge %d–%d", rec.Mut.A, rec.Mut.B)
		}
		return Snapshot{}, fmt.Errorf("snapshot frame %d: %v of %s: %w", n, rec.Mut.Op, who, err)
	}
	return Snapshot{frames: frames, pl: pl}, nil
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

// latestSnapshot returns the newest snapshot file of dir and the sequence
// number it covers, or ok=false when dir holds none.
func latestSnapshot(dir string) (snap numberedFile, ok bool, err error) {
	snaps, err := listNumbered(dir, snapPrefix, snapSuffix)
	if err != nil || len(snaps) == 0 {
		return numberedFile{}, false, err
	}
	return snaps[len(snaps)-1], true, nil
}

package platform

// CheckpointManager ties snapshots and the segmented journal into a
// compaction loop, and RecoverDir is its inverse: load the newest valid
// snapshot, replay only the segment tail.  Together they bound recovery
// to O(state + tail) no matter how many events the market has ingested.
//
// Checkpoint procedure (all under the manager's mutex):
//
//  1. atomically write a snapshot of the state at its current seq S;
//  2. prune old snapshots down to Keep generations — the extra
//     generations are the fallback chain recovery walks when the newest
//     snapshot turns out corrupt;
//  3. rotate the segmented journal, so the post-S tail starts on a fresh
//     segment;
//  4. retire sealed segments whose every event is ≤ the OLDEST retained
//     snapshot's seq — each kept generation keeps its replay tail, so the
//     fallback chain stays replayable end to end.
//
// A crash anywhere in this procedure is safe: snapshots publish by
// atomic rename, segment retirement only deletes fully-covered files,
// and every step is idempotent on retry.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// CheckpointOptions configures the snapshot/compaction policy.
type CheckpointOptions struct {
	// EveryRounds takes a checkpoint after this many closed rounds;
	// 0 means manual checkpoints only (Checkpoint / POST /v1/checkpoint).
	EveryRounds int
	// Keep is how many snapshot generations to retain (default 2).  Older
	// generations are the fallback chain when the newest snapshot fails
	// its CRC on recovery.
	Keep int
	// Hook injects simulated crashes (tests only; nil in production).
	Hook CrashHook
}

// CheckpointResult reports what one checkpoint did.
type CheckpointResult struct {
	Path            string       `json:"path"`
	Snapshot        SnapshotInfo `json:"snapshot"`
	SegmentsRetired int          `json:"segments_retired"`
	SnapshotsPruned int          `json:"snapshots_pruned"`
}

// CheckpointManager snapshots a State on a round policy into its
// segmented journal's directory and retires the journal history its
// snapshots cover.  Safe for concurrent use.
type CheckpointManager struct {
	mu          sync.Mutex
	state       *State
	seg         *SegmentedLog
	opts        CheckpointOptions
	roundsSince int
}

// NewCheckpointManager wires a manager over a state and the segmented
// journal it compacts; snapshots are written into the journal's directory.
func NewCheckpointManager(state *State, seg *SegmentedLog, opts CheckpointOptions) (*CheckpointManager, error) {
	if state == nil {
		return nil, fmt.Errorf("platform: nil state")
	}
	if seg == nil {
		return nil, fmt.Errorf("platform: nil segmented log")
	}
	if opts.Keep <= 0 {
		opts.Keep = 2
	}
	if opts.EveryRounds < 0 {
		return nil, fmt.Errorf("platform: EveryRounds %d negative", opts.EveryRounds)
	}
	return &CheckpointManager{state: state, seg: seg, opts: opts}, nil
}

// SnapshotDir returns where this manager writes snapshots (the segmented
// log's directory) — the directory GET /v1/snapshot serves from.
func (cm *CheckpointManager) SnapshotDir() string { return cm.seg.Dir() }

// RoundClosed notifies the manager that a round committed; it takes a
// checkpoint when the policy says so.  took reports whether a checkpoint
// was taken (and succeeded).
func (cm *CheckpointManager) RoundClosed() (took bool, err error) {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	cm.roundsSince++
	if cm.opts.EveryRounds <= 0 || cm.roundsSince < cm.opts.EveryRounds {
		return false, nil
	}
	if _, err := cm.checkpointLocked(); err != nil {
		// roundsSince is left as-is: the next round retries the overdue
		// checkpoint instead of waiting a whole fresh interval.
		return false, err
	}
	return true, nil
}

// Checkpoint takes a snapshot now, regardless of the round policy.
func (cm *CheckpointManager) Checkpoint() (CheckpointResult, error) {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return cm.checkpointLocked()
}

func (cm *CheckpointManager) checkpointLocked() (CheckpointResult, error) {
	var res CheckpointResult
	path, info, err := WriteSnapshot(cm.seg.Dir(), cm.state, cm.opts.Hook)
	if err != nil {
		return res, err
	}
	res.Path, res.Snapshot = path, info
	pruned, oldestKept := cm.pruneLocked()
	res.SnapshotsPruned = pruned
	// Rotation and retirement are best-effort: the snapshot is already
	// durable, and an unrotated or unretired segment only costs a little
	// extra replay next recovery.  Retirement is bounded by the OLDEST
	// retained snapshot, not the one just written: every kept generation
	// must keep its replay tail on disk, or falling back past a corrupt
	// newest snapshot would hit a journal gap.
	if err := cm.seg.Rotate(); err == nil {
		res.SegmentsRetired, _ = cm.seg.RetireThrough(oldestKept)
	}
	cm.roundsSince = 0
	return res, nil
}

// pruneLocked removes snapshot generations beyond Keep and any *.tmp
// orphans left by crashed snapshot writes.  oldestKept is the seq of the
// oldest snapshot still on disk after pruning — the retirement bound:
// journal segments past it must survive so every retained generation
// keeps its replay tail.
func (cm *CheckpointManager) pruneLocked() (pruned int, oldestKept uint64) {
	dir := cm.seg.Dir()
	snaps, err := listSnapshots(dir)
	if err != nil {
		return 0, 0
	}
	kept := 0
	for _, p := range snaps { // newest first
		seq, _ := parseSnapshotSeq(filepath.Base(p))
		if kept < cm.opts.Keep {
			kept++
			oldestKept = seq
			continue
		}
		if os.Remove(p) == nil {
			pruned++
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return pruned, oldestKept
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "snapshot-") && strings.HasSuffix(name, ".tmp") {
			if os.Remove(filepath.Join(dir, name)) == nil {
				pruned++
			}
		}
	}
	return pruned, oldestKept
}

// RecoveryInfo describes how a RecoverDir run reconstructed the state.
type RecoveryInfo struct {
	// SnapshotPath is the snapshot recovery started from ("" when it
	// replayed from genesis).
	SnapshotPath string
	// Snapshot describes that snapshot.
	Snapshot SnapshotInfo
	// CorruptSnapshots lists snapshots that failed their CRC and were
	// skipped on the way to a valid one.
	CorruptSnapshots []string
	// SegmentsReplayed / EventsReplayed measure the tail: how much journal
	// had to be read on top of the snapshot.
	SegmentsReplayed int
	EventsReplayed   int
	// EventsSkipped counts events already covered by the snapshot inside
	// straddling segments.
	EventsSkipped int
	// TailDropped is the newest segment's torn-tail diagnostic, if any.
	TailDropped error
}

// RecoverDir reconstructs a State from a checkpoint directory: the
// newest snapshot that decodes cleanly (corrupt ones are skipped — the
// CRC failure chain), then the journal segments past it, tolerating a
// torn tail on the newest segment only.  Mid-history corruption or a
// sequence gap is a hard error: recovery must never silently invent a
// state that skips committed events.
func RecoverDir(dir string, numCategories int) (*State, *RecoveryInfo, error) {
	info := &RecoveryInfo{}
	snaps, err := listSnapshots(dir)
	if err != nil {
		return nil, info, err
	}
	var state *State
	for _, p := range snaps {
		st, si, err := ReadSnapshotFile(p)
		if err != nil {
			if errors.Is(err, ErrSnapshotCorrupt) {
				info.CorruptSnapshots = append(info.CorruptSnapshots, p)
				continue
			}
			return nil, info, err
		}
		if si.NumCategories != numCategories {
			return nil, info, fmt.Errorf("platform: snapshot %s has %d categories, want %d",
				p, si.NumCategories, numCategories)
		}
		state, info.SnapshotPath, info.Snapshot = st, p, si
		break
	}
	if state == nil {
		if state, err = NewState(numCategories); err != nil {
			return nil, info, err
		}
	}
	base := state.Seq()

	segs, err := listSegments(dir)
	if err != nil {
		return nil, info, err
	}
	for i, sg := range segs {
		// A segment is provably covered by the snapshot when the next
		// segment starts at or before base+1 (events are contiguous, so
		// this one holds nothing past base).  The newest segment is always
		// read.
		if i+1 < len(segs) && segs[i+1].FirstSeq <= base+1 {
			continue
		}
		f, err := os.Open(sg.Path)
		if err != nil {
			return nil, info, err
		}
		events, _, dropped := readLogPartialOffset(f)
		f.Close()
		if dropped != nil {
			if i != len(segs)-1 {
				return nil, info, fmt.Errorf("platform: segment %s corrupt mid-history: %v", sg.Path, dropped)
			}
			info.TailDropped = dropped
		}
		for _, e := range events {
			if e.Seq != 0 && e.Seq <= state.Seq() {
				info.EventsSkipped++
				continue
			}
			if e.Seq != 0 && e.Seq != state.Seq()+1 {
				return nil, info, fmt.Errorf("platform: journal gap: segment %s jumps to seq %d after %d",
					sg.Path, e.Seq, state.Seq())
			}
			if _, err := state.Apply(e); err != nil {
				return nil, info, fmt.Errorf("platform: replaying segment %s seq %d: %w", sg.Path, e.Seq, err)
			}
			info.EventsReplayed++
		}
		info.SegmentsReplayed++
	}
	return state, info, nil
}

// OpenMarketDir assembles one market directory for serving: recover its
// state (RecoverDir), reopen its segmented journal for appending —
// OpenSegmentedLog truncates any torn tail, so new events never land
// after corrupt bytes — and, when cpOpts is non-nil, attach a checkpoint
// manager over the two.  A single-market primary, each shard of a sharded
// one, and a promoted standby all open their directories through here.
func OpenMarketDir(dir string, numCategories int, segOpts SegmentOptions, cpOpts *CheckpointOptions) (*State, *SegmentedLog, *CheckpointManager, *RecoveryInfo, error) {
	state, info, err := RecoverDir(dir, numCategories)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("platform: recovering %s: %w", dir, err)
	}
	seg, err := OpenSegmentedLog(dir, segOpts)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("platform: opening journal in %s: %w", dir, err)
	}
	var cm *CheckpointManager
	if cpOpts != nil {
		if cm, err = NewCheckpointManager(state, seg, *cpOpts); err != nil {
			seg.Close()
			return nil, nil, nil, nil, err
		}
	}
	return state, seg, cm, info, nil
}

package experiments

// X-Rob2: recovery time vs. journal length, with and without
// checkpointing.  The flat journal replays its whole history on every
// restart — recovery cost grows linearly with uptime — while the
// checkpointed directory loads the newest snapshot and replays only the
// post-snapshot tail, so recovery stays O(state + tail) no matter how
// long the service has been running.  The runner also enforces the
// bounded-recovery contract directly: at the full journal length the
// checkpointed recovery must replay at most one segment of tail.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/market"
	"repro/internal/platform"
)

func init() {
	register(Experiment{
		ID:    "X-Rob2",
		Title: "crash recovery time vs. journal length, with and without checkpoints",
		Expected: "flat-journal recovery replays the whole history, so its time grows with uptime; " +
			"checkpointed recovery replays ≤1 segment of tail at every length — its cost is " +
			"O(state + tail), paying only for the live state (snapshot decode), never for history; " +
			"both reconstruct byte-identical states",
		Run: runRob2,
	})
}

func runRob2(w io.Writer, cfg RunConfig) error {
	const numCategories = 30 // market.FreelanceTraceConfig's universe
	total := cfg.pick(50000, 5000)
	// High churn keeps the live state bounded while history keeps growing —
	// the regime where checkpointing pays: state ≪ history.
	events, err := platform.SyntheticTrace(platform.TraceConfig{
		Market:     market.FreelanceTraceConfig(0, 0),
		Events:     total,
		RoundEvery: 50,
		ChurnProb:  0.45,
	}, cfg.Seed)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "xrob2-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	fmt.Fprintf(w, "synthetic trace: %d events, round marker every 50, checkpoint every 20 rounds\n", total)
	t := newTable(w, "events", "flat-replayed", "flat-time", "ckpt-replayed", "ckpt-segments", "ckpt-time")
	for _, n := range []int{total / 5, total / 2, total} {
		subset := events[:n]

		// Baseline: one flat journal file, replayed from genesis.
		flatPath := filepath.Join(dir, fmt.Sprintf("flat-%d.mbaj", n))
		f, err := os.Create(flatPath)
		if err != nil {
			return err
		}
		flatLog := platform.NewLog(f)
		for _, e := range subset {
			if err := flatLog.Append(e); err != nil {
				f.Close()
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
		rf, err := os.Open(flatPath)
		if err != nil {
			return err
		}
		start := time.Now()
		flatState, replayErr, dropped := platform.RecoverLog(numCategories, rf)
		flatTime := time.Since(start)
		rf.Close()
		if replayErr != nil {
			return replayErr
		}
		if dropped != nil {
			return fmt.Errorf("flat journal unexpectedly torn: %w", dropped)
		}

		// Checkpointed: segmented journal + snapshot every 20 rounds, the
		// mbaserve -snapshot-dir configuration.
		ckptDir := filepath.Join(dir, fmt.Sprintf("ckpt-%d", n))
		state, err := platform.NewState(numCategories)
		if err != nil {
			return err
		}
		seg, err := platform.OpenSegmentedLog(ckptDir, platform.SegmentOptions{MaxBytes: 8 << 20})
		if err != nil {
			return err
		}
		cm, err := platform.NewCheckpointManager(state, seg, platform.CheckpointOptions{EveryRounds: 20, Keep: 2})
		if err != nil {
			return err
		}
		for _, e := range subset {
			if _, err := state.ApplyJournaled(e, seg.Append); err != nil {
				return err
			}
			if e.Kind == platform.EventRoundClosed {
				if _, err := cm.RoundClosed(); err != nil {
					return err
				}
			}
		}
		start = time.Now()
		ckptState, info, err := platform.RecoverDir(ckptDir, numCategories)
		ckptTime := time.Since(start)
		if err != nil {
			return err
		}

		// Both paths must land on the same state, byte for byte.
		var a, b bytes.Buffer
		if _, err := flatState.EncodeSnapshot(&a); err != nil {
			return err
		}
		if _, err := ckptState.EncodeSnapshot(&b); err != nil {
			return err
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			return fmt.Errorf("at %d events: flat and checkpointed recovery disagree", n)
		}
		// The bounded-recovery contract this experiment exists to assert:
		// with checkpoints, recovery replays at most one segment of tail.
		if info.SegmentsReplayed > 1 {
			return fmt.Errorf("at %d events: checkpointed recovery replayed %d segments, want ≤ 1",
				n, info.SegmentsReplayed)
		}
		if err := seg.Close(); err != nil {
			return err
		}

		t.row(fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", n),
			flatTime.Round(time.Microsecond).String(),
			fmt.Sprintf("%d", info.EventsReplayed),
			fmt.Sprintf("%d", info.SegmentsReplayed),
			ckptTime.Round(time.Microsecond).String())
	}
	return t.flush()
}

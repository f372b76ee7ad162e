package platform

// Partitioned crash-fidelity suite: the single-market crash harness
// (crash_test.go) driven through a service whose rounds split into 4
// partitions, over an 8-category market where most workers span
// partitions.  A deterministic script runs once crash-free, then re-runs
// with a power cut injected at each checkpoint/segment crash point; the
// directory must recover byte-identically to the committed state at the
// crash, and the final state must equal the crash-free reference byte for
// byte.  Partitioning lives in the round only, so one journal and one
// snapshot series carry the whole market.

import (
	"bytes"
	"testing"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/market"
	"repro/internal/stats"
)

const (
	crashShardedShards     = 4
	crashShardedCategories = 8
)

// shardedCrashWorker draws an 8-category profile; ~35% specialty density
// means most workers span partitions, keeping reconciliation on the
// scripted rounds' path.
func shardedCrashWorker(rng *stats.RNG) market.Worker {
	w := market.Worker{
		Capacity:        1 + rng.Intn(3),
		Accuracy:        make([]float64, crashShardedCategories),
		Interest:        make([]float64, crashShardedCategories),
		ReservationWage: rng.Float64Range(0.5, 2),
	}
	for c := 0; c < crashShardedCategories; c++ {
		w.Accuracy[c] = rng.Float64Range(0.5, 0.99)
		w.Interest[c] = rng.Float64()
		if rng.Bool(0.35) {
			w.Specialties = append(w.Specialties, c)
		}
	}
	if len(w.Specialties) == 0 {
		w.Specialties = []int{rng.Intn(crashShardedCategories)}
	}
	return w
}

func shardedCrashTask(rng *stats.RNG) market.Task {
	return market.Task{
		Category:    rng.Intn(crashShardedCategories),
		Replication: 1 + rng.Intn(3),
		Payment:     rng.Float64Range(1, 10),
		Difficulty:  rng.Float64Range(0, 0.9),
	}
}

func buildShardedCrashScript(seed uint64, rounds int) []crashOp {
	rng := stats.NewRNG(seed)
	var ops []crashOp
	for r := 0; r < rounds; r++ {
		n := 6 + rng.Intn(5)
		for i := 0; i < n; i++ {
			switch k := rng.Intn(10); {
			case k < 3:
				ops = append(ops, crashOp{kind: 'w', w: shardedCrashWorker(rng)})
			case k < 6:
				ops = append(ops, crashOp{kind: 't', tk: shardedCrashTask(rng)})
			case k < 8:
				ops = append(ops, crashOp{kind: 'W', pick: rng.Intn(1 << 16)})
			default:
				ops = append(ops, crashOp{kind: 'T', pick: rng.Intn(1 << 16)})
			}
		}
		ops = append(ops, crashOp{kind: 'r'})
	}
	return ops
}

// buildShardedCrashStack assembles the mbaserve -shards 4 recovery+serve
// stack over dir: RecoverDir, OpenSegmentedLog (which heals any torn
// tail), a partitioned service and its checkpoint manager.
func buildShardedCrashStack(t *testing.T, dir string, hook CrashHook) (*Service, *State) {
	t.Helper()
	st, _, err := RecoverDir(dir, crashShardedCategories)
	if err != nil {
		t.Fatalf("recovering %s: %v", dir, err)
	}
	seg, err := OpenSegmentedLog(dir, SegmentOptions{MaxBytes: 4 << 10, Hook: hook})
	if err != nil {
		t.Fatalf("opening segmented log: %v", err)
	}
	solvers := make([]core.Solver, crashShardedShards)
	for k := range solvers {
		if solvers[k], err = core.ByName("greedy"); err != nil {
			t.Fatal(err)
		}
	}
	svc, err := NewPartitionedService(st, solvers, benefit.DefaultParams(), seg, 1)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := NewCheckpointManager(st, seg, CheckpointOptions{EveryRounds: 3, Keep: 2, Hook: hook})
	if err != nil {
		t.Fatal(err)
	}
	svc.SetCheckpointer(cm)
	return svc, st
}

func TestCrashShardedRecoveryFidelity(t *testing.T) {
	seed := chaosSeed(t)
	const rounds = 45
	ops := buildShardedCrashScript(seed, rounds)

	ref := runCrashScript(t, t.TempDir(), ops, nil, buildShardedCrashStack)
	_, refInfo, err := DecodeSnapshot(bytes.NewReader(ref))
	if err != nil {
		t.Fatalf("reference state does not decode: %v", err)
	}
	if refInfo.Rounds != rounds {
		t.Fatalf("reference closed %d rounds, want %d", refInfo.Rounds, rounds)
	}

	specs := []struct {
		name string
		mk   func() *faultinject.Crasher
	}{
		{"torn-segment-write-early", func() *faultinject.Crasher { return faultinject.NewTornCrasher(CrashSegmentWrite, 5) }},
		{"torn-segment-write-mid", func() *faultinject.Crasher { return faultinject.NewTornCrasher(CrashSegmentWrite, 60) }},
		{"torn-segment-write-late", func() *faultinject.Crasher { return faultinject.NewTornCrasher(CrashSegmentWrite, 120) }},
		{"torn-snapshot-body", func() *faultinject.Crasher { return faultinject.NewTornCrasher(CrashSnapshotBody, 0) }},
		{"cut-before-snapshot-sync", func() *faultinject.Crasher { return faultinject.NewCrasher(CrashSnapshotSync, 1) }},
		{"cut-before-snapshot-rename", func() *faultinject.Crasher { return faultinject.NewCrasher(CrashSnapshotRename, 2) }},
		{"cut-creating-first-segment", func() *faultinject.Crasher { return faultinject.NewCrasher(CrashSegmentRotate, 0) }},
		{"cut-mid-rotation", func() *faultinject.Crasher { return faultinject.NewCrasher(CrashSegmentRotate, 1) }},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			t.Parallel()
			got := runCrashScript(t, t.TempDir(), ops, spec.mk(), buildShardedCrashStack)
			if !bytes.Equal(got, ref) {
				t.Fatal("final state after crash→recover→continue diverges from the crash-free reference")
			}
		})
	}
}

package platform

// Sharded crash-fidelity suite: the single-market crash harness
// (crash_test.go) extended to the 4-shard stack.  A deterministic script
// runs once crash-free, then re-runs with a power cut injected into ONE
// shard's checkpoint/segment writers at every crash point — the fault model
// is a single shard machine dying, which is why the at-crash property is
// per shard: every shard directory must recover BYTE-IDENTICALLY to that
// shard's committed in-memory state.
//
// The final states of a crash run and the reference are compared as entity
// content (dense snapshot instances), not bytes: a mid-fan-out crash leaves
// durable compensation events on the clean shards and a mid-commit crash
// leaves earlier shards a round marker ahead, so ID counters and per-shard
// round counters legitimately diverge — what must NOT diverge is which
// workers and tasks are live, their profiles, and the service round count.

import (
	"bytes"
	"errors"
	"reflect"
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
// means most workers span shards, keeping fan-out writes (the crash
// surface) on the scripted path.
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

// buildShardedCrashStack assembles the mbaserve -shards recovery+serve
// stack over dir, arming the crash hook on exactly crashShard (-1 = none).
func buildShardedCrashStack(t *testing.T, dir string, hook CrashHook, crashShard int) *ShardedService {
	t.Helper()
	states, _, err := RecoverShardedDir(dir, crashShardedCategories, crashShardedShards)
	if err != nil {
		t.Fatalf("recovering %s: %v", dir, err)
	}
	bundles := make([]Shard, crashShardedShards)
	for k := range bundles {
		var h CrashHook
		if k == crashShard {
			h = hook
		}
		seg, err := OpenSegmentedLog(ShardDir(dir, k), SegmentOptions{MaxBytes: 4 << 10, Hook: h})
		if err != nil {
			t.Fatalf("opening shard %d segmented log: %v", k, err)
		}
		cm, err := NewCheckpointManager(states[k], seg, CheckpointOptions{EveryRounds: 3, Keep: 2, Hook: h})
		if err != nil {
			t.Fatal(err)
		}
		solver, err := core.ByName("greedy")
		if err != nil {
			t.Fatal(err)
		}
		bundles[k] = Shard{State: states[k], Journal: seg, Solver: solver, Checkpoint: cm}
	}
	ss, err := NewShardedService(bundles, benefit.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// shardedCrashRun executes the script against a sharded service, resolving
// removal targets from its own committed-ID ledgers.  The ledgers, not a
// state snapshot, are the resolution source because the sharded service has
// no single global ID list — and because they make target choice identical
// across the reference and every crash run (both commit the same op
// sequence, even though a crash run may skip ID numbers).
type shardedCrashRun struct {
	ss      *ShardedService
	workers []int // committed live worker IDs, ascending (IDs are monotone)
	tasks   []int
}

func (run *shardedCrashRun) exec(op crashOp) error {
	switch op.kind {
	case 'w':
		ev, err := run.ss.Submit(NewWorkerJoined(op.w))
		if err == nil {
			run.workers = append(run.workers, ev.Worker.ID)
		}
		return err
	case 't':
		ev, err := run.ss.Submit(NewTaskPosted(op.tk))
		if err == nil {
			run.tasks = append(run.tasks, ev.Task.ID)
		}
		return err
	case 'W':
		if len(run.workers) == 0 {
			return nil
		}
		k := op.pick % len(run.workers)
		if _, err := run.ss.Submit(NewWorkerLeft(run.workers[k])); err != nil {
			return err
		}
		run.workers = append(run.workers[:k], run.workers[k+1:]...)
		return nil
	case 'T':
		if len(run.tasks) == 0 {
			return nil
		}
		k := op.pick % len(run.tasks)
		if _, err := run.ss.Submit(NewTaskClosed(run.tasks[k])); err != nil {
			return err
		}
		run.tasks = append(run.tasks[:k], run.tasks[k+1:]...)
		return nil
	case 'r':
		_, err := run.ss.CloseRound()
		return err
	}
	return nil
}

// shardedCrashFingerprint is the ID-number-free content of a final state:
// per-shard dense snapshot instances plus global counts and the committed
// round count.
type shardedCrashFingerprint struct {
	instances      []*market.Instance
	workers, tasks int
	rounds         int
}

func fingerprintSharded(ss *ShardedService) shardedCrashFingerprint {
	fp := shardedCrashFingerprint{rounds: ss.Rounds()}
	fp.workers, fp.tasks = ss.Counts()
	for k := 0; k < ss.NumShards(); k++ {
		in, _, _ := ss.ShardState(k).Snapshot()
		fp.instances = append(fp.instances, in)
	}
	return fp
}

// runShardedCrashScript is runCrashScript for the sharded stack: execute,
// crash at most once on crashShard, verify every shard recovers
// byte-identically at the crash, rebuild hook-free, continue to the end.
func runShardedCrashScript(t *testing.T, dir string, ops []crashOp, cr *faultinject.Crasher, crashShard int) shardedCrashFingerprint {
	t.Helper()
	var hook CrashHook
	if cr != nil {
		hook = cr
	}
	run := &shardedCrashRun{ss: buildShardedCrashStack(t, dir, hook, crashShard)}
	armed := cr
	for i := 0; i < len(ops); {
		err := run.exec(ops[i])
		fired := armed != nil && armed.Fired()
		if err != nil && !fired {
			t.Fatalf("op %d (%c) failed without a crash: %v", i, ops[i].kind, err)
		}
		if !fired {
			i++
			continue
		}
		// Shard crashShard's machine died.  Same redo rule as the
		// single-market harness: a failed call rolled back everywhere
		// (compensation) and is redone; a nil-error crash hit the post-commit
		// checkpoint and is not.
		t.Logf("crashed at op %d (%c) on shard %d", i, ops[i].kind, crashShard)
		if err == nil {
			i++
		} else if !errors.Is(err, faultinject.ErrCrash) {
			t.Fatalf("op %d: crash-run failure is not the injected crash: %v", i, err)
		}
		committed := make([][]byte, crashShardedShards)
		for k := 0; k < crashShardedShards; k++ {
			committed[k] = stateBytes(t, run.ss.ShardState(k))
		}

		// "Restart": every shard directory must land exactly on its
		// committed state — the crashed shard because its torn tail heals
		// away, the clean shards because their journals are fully durable.
		rec, _, rerr := RecoverShardedDir(dir, crashShardedCategories, crashShardedShards)
		if rerr != nil {
			t.Fatalf("recovery after crash at op %d: %v", i, rerr)
		}
		for k, st := range rec {
			if !bytes.Equal(stateBytes(t, st), committed[k]) {
				t.Fatalf("crash at op %d: shard %d recovered state != committed state", i, k)
			}
		}
		run.ss = buildShardedCrashStack(t, dir, nil, -1)
		armed = nil
	}
	if cr != nil && !cr.Fired() {
		t.Fatal("crasher never fired — its schedule points past the workload; lower the hit count")
	}
	return fingerprintSharded(run.ss)
}

func TestCrashShardedRecoveryFidelity(t *testing.T) {
	seed := chaosSeed(t)
	const rounds = 45
	ops := buildShardedCrashScript(seed, rounds)

	ref := runShardedCrashScript(t, t.TempDir(), ops, nil, -1)
	if ref.rounds != rounds {
		t.Fatalf("reference closed %d rounds, want %d", ref.rounds, rounds)
	}
	if ref.workers == 0 || ref.tasks == 0 {
		t.Fatalf("reference ended empty (%d workers, %d tasks) — script too destructive", ref.workers, ref.tasks)
	}

	specs := []struct {
		name  string
		shard int
		mk    func() *faultinject.Crasher
	}{
		{"torn-segment-write-early", 0, func() *faultinject.Crasher { return faultinject.NewTornCrasher(CrashSegmentWrite, 5) }},
		{"torn-segment-write-mid", 2, func() *faultinject.Crasher { return faultinject.NewTornCrasher(CrashSegmentWrite, 60) }},
		{"torn-segment-write-late", 3, func() *faultinject.Crasher { return faultinject.NewTornCrasher(CrashSegmentWrite, 120) }},
		{"torn-snapshot-body", 2, func() *faultinject.Crasher { return faultinject.NewTornCrasher(CrashSnapshotBody, 0) }},
		{"cut-before-snapshot-sync", 3, func() *faultinject.Crasher { return faultinject.NewCrasher(CrashSnapshotSync, 1) }},
		{"cut-before-snapshot-rename", 1, func() *faultinject.Crasher { return faultinject.NewCrasher(CrashSnapshotRename, 2) }},
		{"cut-creating-first-segment", 0, func() *faultinject.Crasher { return faultinject.NewCrasher(CrashSegmentRotate, 0) }},
		{"cut-mid-rotation", 1, func() *faultinject.Crasher { return faultinject.NewCrasher(CrashSegmentRotate, 1) }},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			t.Parallel()
			got := runShardedCrashScript(t, t.TempDir(), ops, spec.mk(), spec.shard)
			if got.rounds != ref.rounds || got.workers != ref.workers || got.tasks != ref.tasks {
				t.Fatalf("crash run ended with %d/%d/%d (rounds/workers/tasks), reference %d/%d/%d",
					got.rounds, got.workers, got.tasks, ref.rounds, ref.workers, ref.tasks)
			}
			for k := range ref.instances {
				if !reflect.DeepEqual(got.instances[k], ref.instances[k]) {
					t.Fatalf("shard %d entity content after crash→recover→continue diverges from the crash-free reference", k)
				}
			}
		})
	}
}

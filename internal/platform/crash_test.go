package platform

// Crash chaos suite: a deterministic market script (≥100 rounds of churn
// and round closes) is run to completion once crash-free, then re-run
// with a power cut injected at every crash point the checkpoint/segment
// writers expose — torn snapshot body, cut before the snapshot fsync/
// rename, torn segment append, cut mid-rotation.  After each crash the
// directory is recovered exactly as mbaserve would (RecoverDir +
// OpenSegmentedLog) and the script continues; the final state must be
// BYTE-IDENTICAL to the crash-free reference (snapshot encoding is
// deterministic, so equal bytes ⇔ equal states).
//
// The redo rule mirrors what a client retrying against a restarted
// server sees: an op whose call failed (rolled back) is redone, an op
// that committed before the machine died is not.  Run with `make crash`;
// seeded via CHAOS_SEED like the rest of the chaos suite.

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/market"
	"repro/internal/stats"
)

// crashOp is one scripted market operation.  Payloads are pre-generated
// at build time; removal targets are resolved at execution time against
// the committed state (deterministic: live IDs are sorted, pick indexes
// them), so the script replays identically across crash/recover runs.
type crashOp struct {
	kind byte // 'w' join, 't' post, 'W' leave, 'T' close, 'r' round
	w    market.Worker
	tk   market.Task
	pick int
}

func crashScriptWorker(rng *stats.RNG) market.Worker {
	w := market.Worker{
		Capacity:        1 + rng.Intn(3),
		Accuracy:        make([]float64, 3),
		Interest:        make([]float64, 3),
		ReservationWage: rng.Float64Range(0.5, 2),
	}
	for c := 0; c < 3; c++ {
		w.Accuracy[c] = rng.Float64Range(0.5, 0.99)
		w.Interest[c] = rng.Float64()
		if rng.Bool(0.5) {
			w.Specialties = append(w.Specialties, c)
		}
	}
	if len(w.Specialties) == 0 {
		w.Specialties = []int{rng.Intn(3)}
	}
	return w
}

func crashScriptTask(rng *stats.RNG) market.Task {
	return market.Task{
		Category:    rng.Intn(3),
		Replication: 1 + rng.Intn(3),
		Payment:     rng.Float64Range(1, 10),
		Difficulty:  rng.Float64Range(0, 0.9),
	}
}

func buildCrashScript(seed uint64, rounds int) []crashOp {
	rng := stats.NewRNG(seed)
	var ops []crashOp
	for r := 0; r < rounds; r++ {
		n := 6 + rng.Intn(5)
		for i := 0; i < n; i++ {
			switch k := rng.Intn(10); {
			case k < 3:
				ops = append(ops, crashOp{kind: 'w', w: crashScriptWorker(rng)})
			case k < 6:
				ops = append(ops, crashOp{kind: 't', tk: crashScriptTask(rng)})
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

// execCrashOp runs one scripted op.  An error means the op did NOT
// commit (Submit/CloseRound roll back on journal failure) and must be
// redone after recovery.
func execCrashOp(svc *Service, op crashOp) error {
	switch op.kind {
	case 'w':
		_, err := svc.Submit(NewWorkerJoined(op.w))
		return err
	case 't':
		_, err := svc.Submit(NewTaskPosted(op.tk))
		return err
	case 'W':
		_, ids, _ := svc.State().Snapshot()
		if len(ids) == 0 {
			return nil
		}
		_, err := svc.Submit(NewWorkerLeft(ids[op.pick%len(ids)]))
		return err
	case 'T':
		_, _, ids := svc.State().Snapshot()
		if len(ids) == 0 {
			return nil
		}
		_, err := svc.Submit(NewTaskClosed(ids[op.pick%len(ids)]))
		return err
	case 'r':
		_, err := svc.CloseRound()
		return err
	}
	return nil
}

// buildCrashService assembles the mbaserve recovery+serve stack over dir:
// RecoverDir, then OpenSegmentedLog (which heals any torn tail), then
// service + checkpoint manager.  Aggressive rotation/checkpoint settings
// so a ~110-round script crosses many segment and snapshot boundaries.
func buildCrashService(t *testing.T, dir string, hook CrashHook) (*Service, *State) {
	t.Helper()
	st, _, err := RecoverDir(dir, 3)
	if err != nil {
		t.Fatalf("recovering %s: %v", dir, err)
	}
	seg, err := OpenSegmentedLog(dir, SegmentOptions{MaxBytes: 4 << 10, Hook: hook})
	if err != nil {
		t.Fatalf("opening segmented log: %v", err)
	}
	solver, err := core.ByName("greedy")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(st, solver, benefit.DefaultParams(), seg, 1)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := NewCheckpointManager(st, seg, CheckpointOptions{EveryRounds: 5, Keep: 2, Hook: hook})
	if err != nil {
		t.Fatal(err)
	}
	svc.SetCheckpointer(cm)
	return svc, st
}

// crashStack assembles a recovery+serve stack over dir with the crash
// hook armed (nil: none); buildCrashService is the one-market stack.
type crashStack func(t *testing.T, dir string, hook CrashHook) (*Service, *State)

// runCrashScript executes ops against dir on the stack build assembles,
// crashing at most once (per cr's schedule), recovering, and continuing
// to the end.  It verifies the crash→recover fidelity property at the
// crash itself — the recovered state must equal the committed in-memory
// state byte for byte — and returns the final state's snapshot bytes.
func runCrashScript(t *testing.T, dir string, ops []crashOp, cr *faultinject.Crasher, build crashStack) []byte {
	t.Helper()
	var hook CrashHook
	if cr != nil {
		hook = cr
	}
	svc, st := build(t, dir, hook)
	armed := cr
	for i := 0; i < len(ops); {
		err := execCrashOp(svc, ops[i])
		fired := armed != nil && armed.Fired()
		if err != nil && !fired {
			t.Fatalf("op %d (%c) failed without a crash: %v", i, ops[i].kind, err)
		}
		if !fired {
			i++
			continue
		}
		// The machine died.  err != nil ⇒ the op rolled back: redo it after
		// recovery.  err == nil ⇒ it committed and the crash hit the
		// post-commit checkpoint: do NOT redo it.
		t.Logf("crashed at op %d (%c), committed seq %d", i, ops[i].kind, st.Seq())
		if err == nil {
			i++
		} else if !errors.Is(err, faultinject.ErrCrash) {
			t.Fatalf("op %d: crash-run failure is not the injected crash: %v", i, err)
		}
		committed := stateBytes(t, st)

		// "Restart": recover the directory exactly like a fresh process.
		rec, _, rerr := RecoverDir(dir, st.NumCategories())
		if rerr != nil {
			t.Fatalf("recovery after crash at op %d: %v", i, rerr)
		}
		if got := stateBytes(t, rec); !bytes.Equal(got, committed) {
			t.Fatalf("crash at op %d: recovered state (seq %d) != committed state (seq %d)",
				i, rec.Seq(), st.Seq())
		}
		svc, st = build(t, dir, nil)
		armed = nil
	}
	if cr != nil && !cr.Fired() {
		t.Fatal("crasher never fired — its schedule points past the workload; lower the hit count")
	}
	return stateBytes(t, st)
}

func TestCrashRecoveryFidelity(t *testing.T) {
	seed := chaosSeed(t)
	const rounds = 110
	ops := buildCrashScript(seed, rounds)

	ref := runCrashScript(t, t.TempDir(), ops, nil, buildCrashService)
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
		{"torn-snapshot-body", func() *faultinject.Crasher { return faultinject.NewTornCrasher(CrashSnapshotBody, 0) }},
		{"torn-snapshot-body-later", func() *faultinject.Crasher { return faultinject.NewTornCrasher(CrashSnapshotBody, 2) }},
		{"cut-before-snapshot-sync", func() *faultinject.Crasher { return faultinject.NewCrasher(CrashSnapshotSync, 1) }},
		{"cut-before-snapshot-rename", func() *faultinject.Crasher { return faultinject.NewCrasher(CrashSnapshotRename, 0) }},
		{"cut-before-snapshot-rename-later", func() *faultinject.Crasher { return faultinject.NewCrasher(CrashSnapshotRename, 3) }},
		{"torn-segment-write-early", func() *faultinject.Crasher { return faultinject.NewTornCrasher(CrashSegmentWrite, 5) }},
		{"torn-segment-write-mid", func() *faultinject.Crasher { return faultinject.NewTornCrasher(CrashSegmentWrite, 230) }},
		{"torn-segment-write-late", func() *faultinject.Crasher { return faultinject.NewTornCrasher(CrashSegmentWrite, 700) }},
		{"cut-creating-first-segment", func() *faultinject.Crasher { return faultinject.NewCrasher(CrashSegmentRotate, 0) }},
		{"cut-mid-rotation", func() *faultinject.Crasher { return faultinject.NewCrasher(CrashSegmentRotate, 1) }},
		{"cut-mid-rotation-later", func() *faultinject.Crasher { return faultinject.NewCrasher(CrashSegmentRotate, 4) }},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			t.Parallel()
			got := runCrashScript(t, t.TempDir(), ops, spec.mk(), buildCrashService)
			if !bytes.Equal(got, ref) {
				t.Fatal("final state after crash→recover→continue diverges from the crash-free reference")
			}
		})
	}
}

// TestCrashDuringHealRecovers is the double-fault case: a torn append
// leaves garbage on disk (the dying process cannot heal it), then the
// NEXT startup is also cut down — right before its truncate-then-append
// heal.  The torn tail must survive untouched, and the startup after
// that must heal it and lose nothing.
func TestCrashDuringHealRecovers(t *testing.T) {
	dir := t.TempDir()
	s := mustState(t)
	cr := faultinject.NewTornCrasher(CrashSegmentWrite, 3)
	sl, err := OpenSegmentedLog(dir, SegmentOptions{MaxBytes: 1 << 20, Hook: cr})
	if err != nil {
		t.Fatal(err)
	}
	appendJoins(t, s, sl, 3)
	if _, err := s.ApplyBatchJournaled([]Event{NewWorkerJoined(validWorker())}, sl.AppendBatch); !errors.Is(err, faultinject.ErrCrash) {
		t.Fatalf("4th append: got %v, want the injected crash", err)
	}
	committed := stateBytes(t, s)

	// Restart #1 dies before the heal truncation: OpenSegmentedLog must
	// fail rather than open a journal it could not clean.
	if _, err := OpenSegmentedLog(dir, SegmentOptions{Hook: faultinject.NewCrasher(CrashSegmentHeal, 0)}); !errors.Is(err, faultinject.ErrCrash) {
		t.Fatalf("open with a heal-point crash: got %v, want the injected crash", err)
	}

	// The torn bytes are still on disk; recovery still lands exactly on
	// the committed state.
	rec, info, err := RecoverDir(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if info.TailDropped == nil {
		t.Fatal("torn tail vanished without a heal")
	}
	if !bytes.Equal(stateBytes(t, rec), committed) {
		t.Fatal("recovery with a torn tail diverged from the committed state")
	}

	// Restart #2 is clean: heal, append, nothing lost.
	sl2, err := OpenSegmentedLog(dir, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sl2.Dropped() == nil {
		t.Fatal("clean restart did not report the tail it healed")
	}
	appendJoins(t, rec, sl2, 2)
	if err := sl2.Close(); err != nil {
		t.Fatal(err)
	}
	final, _, err := RecoverDir(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if final.Seq() != 5 {
		t.Fatalf("final seq %d, want 5 (3 committed + 2 after heal)", final.Seq())
	}
}

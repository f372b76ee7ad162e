package platform

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/market"
)

// newTestShardedService assembles an in-memory (journal-less) sharded
// service; mkSolver is called once per shard so solver state is never
// shared.
func newTestShardedService(t *testing.T, shards, categories int, mkSolver func() core.Solver, seed uint64) *ShardedService {
	t.Helper()
	bundles := make([]Shard, shards)
	for k := range bundles {
		st, err := NewState(categories)
		if err != nil {
			t.Fatal(err)
		}
		bundles[k] = Shard{State: st, Solver: mkSolver()}
	}
	ss, err := NewShardedService(bundles, benefit.DefaultParams(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

func greedySolver() core.Solver { return core.Greedy{Kind: core.MutualWeight, WS: &core.Workspace{}} }

// spanningSpecialties returns two categories routed to different shards
// (they exist whenever categories span more shards than one).
func spanningSpecialties(t *testing.T, categories, shards int) (int, int) {
	t.Helper()
	r := ShardRouter{Shards: shards}
	first := r.TaskShard(0)
	for c := 1; c < categories; c++ {
		if r.TaskShard(c) != first {
			return 0, c
		}
	}
	t.Fatalf("all %d categories hash to shard %d of %d", categories, first, shards)
	return 0, 0
}

// shardedWorker builds a valid worker profile over the given specialties.
func shardedWorker(categories int, specialties ...int) market.Worker {
	w := market.Worker{
		Capacity:        2,
		Specialties:     specialties,
		Accuracy:        make([]float64, categories),
		Interest:        make([]float64, categories),
		ReservationWage: 1,
	}
	for c := range w.Accuracy {
		w.Accuracy[c] = 0.8
		w.Interest[c] = 0.5
	}
	return w
}

func shardedTask(category int) market.Task {
	return market.Task{Category: category, Replication: 2, Payment: 5, Difficulty: 0.3}
}

func TestShardedServiceRoutingAndFanout(t *testing.T) {
	const categories, shards = 8, 4
	ss := newTestShardedService(t, shards, categories, greedySolver, 1)
	c0, c1 := spanningSpecialties(t, categories, shards)
	router := ShardRouter{Shards: shards}

	// A spanning worker is resident in exactly its specialty shards.
	ev, err := ss.Submit(NewWorkerJoined(shardedWorker(categories, c0, c1)))
	if err != nil {
		t.Fatal(err)
	}
	wid := ev.Worker.ID
	if wid != 1 {
		t.Fatalf("first worker ID = %d, want 1 (global IDs start at 1)", wid)
	}
	wantShards := router.WorkerShards([]int{c0, c1})
	if len(wantShards) != 2 {
		t.Fatalf("specialties %d,%d map to %v, want two shards", c0, c1, wantShards)
	}
	for k := 0; k < shards; k++ {
		_, ok := ss.ShardState(k).Worker(wid)
		want := k == wantShards[0] || k == wantShards[1]
		if ok != want {
			t.Fatalf("worker %d resident in shard %d = %v, want %v", wid, k, ok, want)
		}
	}

	// A task lives in exactly the shard its category routes to.
	ev, err = ss.Submit(NewTaskPosted(shardedTask(c1)))
	if err != nil {
		t.Fatal(err)
	}
	tid := ev.Task.ID
	home := router.TaskShard(c1)
	for k := 0; k < shards; k++ {
		_, ok := ss.ShardState(k).Task(tid)
		if ok != (k == home) {
			t.Fatalf("task %d in shard %d = %v, want %v", tid, k, ok, k == home)
		}
	}
	if w, tk := ss.Counts(); w != 1 || tk != 1 {
		t.Fatalf("Counts = %d/%d, want 1/1 (spanning worker counted once)", w, tk)
	}

	// Removal fans out to every resident shard.
	if _, err := ss.Submit(NewWorkerLeft(wid)); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < shards; k++ {
		if _, ok := ss.ShardState(k).Worker(wid); ok {
			t.Fatalf("worker %d still in shard %d after leave", wid, k)
		}
	}
	if _, err := ss.Submit(NewWorkerLeft(wid)); err == nil {
		t.Fatal("second leave of the same worker succeeded")
	}

	// Round markers belong to CloseRound, not Submit.
	if _, err := ss.Submit(NewRoundClosed(0)); err == nil {
		t.Fatal("Submit accepted a round marker")
	}
}

// TestShardedSubmitCompensation pins the all-or-nothing Submit contract: a
// journal failure on the second target shard must undo the first shard's
// apply and leave the worker fully absent.
func TestShardedSubmitCompensation(t *testing.T) {
	const categories, shards = 8, 4
	c0, c1 := spanningSpecialties(t, categories, shards)
	router := ShardRouter{Shards: shards}
	targets := router.WorkerShards([]int{c0, c1})

	bundles := make([]Shard, shards)
	var bufs [4]bytes.Buffer
	var flaky *faultinject.FlakyWriter
	for k := range bundles {
		st, err := NewState(categories)
		if err != nil {
			t.Fatal(err)
		}
		var w *faultinject.FlakyWriter
		if k == targets[1] {
			// The SECOND shard of the fan-out fails its first append.
			w = faultinject.NewFlakyWriter(&bufs[k], faultinject.Once(0))
			flaky = w
		} else {
			w = faultinject.NewFlakyWriter(&bufs[k], func(int) bool { return false })
		}
		bundles[k] = Shard{
			State:   st,
			Solver:  greedySolver(),
			Journal: NewLogWithOptions(w, LogOptions{}),
		}
	}
	ss, err := NewShardedService(bundles, benefit.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := ss.Submit(NewWorkerJoined(shardedWorker(categories, c0, c1))); err == nil {
		t.Fatal("join over a failing shard journal succeeded")
	}
	if flaky.Injections() == 0 {
		t.Fatal("fault never injected — the fan-out order changed?")
	}
	if w, _ := ss.Counts(); w != 0 {
		t.Fatalf("Counts reports %d workers after a compensated join", w)
	}
	for k := 0; k < shards; k++ {
		if w, _ := ss.ShardState(k).Counts(); w != 0 {
			t.Fatalf("shard %d still holds a worker after compensation", k)
		}
	}

	// The rolled-back ID is handed out again on retry.
	ev, err := ss.Submit(NewWorkerJoined(shardedWorker(categories, c0, c1)))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Worker.ID != 1 {
		t.Fatalf("retried join got ID %d, want 1 (counter rolled back)", ev.Worker.ID)
	}
}

// TestShardedRecoveryByteIdentical runs a churn-and-rounds workload over a
// fully journaled+checkpointed 4-shard stack, then recovers every shard
// directory and requires each recovered state to be byte-identical to the
// live one — and the recovered stack to serve.
func TestShardedRecoveryByteIdentical(t *testing.T) {
	const categories, shards = 8, 4
	dir := t.TempDir()

	build := func() (*ShardedService, []*SegmentedLog) {
		bundles := make([]Shard, shards)
		states, _, err := RecoverShardedDir(dir, categories, shards)
		if err != nil {
			t.Fatal(err)
		}
		var segs []*SegmentedLog
		for k := range bundles {
			seg, err := OpenSegmentedLog(ShardDir(dir, k), SegmentOptions{MaxBytes: 2 << 10})
			if err != nil {
				t.Fatal(err)
			}
			cm, err := NewCheckpointManager(states[k], seg, CheckpointOptions{EveryRounds: 3, Keep: 2})
			if err != nil {
				t.Fatal(err)
			}
			bundles[k] = Shard{State: states[k], Journal: seg, Solver: greedySolver(), Checkpoint: cm}
			segs = append(segs, seg)
		}
		ss, err := NewShardedService(bundles, benefit.DefaultParams(), 7)
		if err != nil {
			t.Fatal(err)
		}
		return ss, segs
	}

	ss, segs := build()
	var workerIDs, taskIDs []int
	for i := 0; i < 24; i++ {
		ev, err := ss.Submit(NewWorkerJoined(shardedWorker(categories, i%categories, (i*3+1)%categories)))
		if err != nil {
			t.Fatal(err)
		}
		workerIDs = append(workerIDs, ev.Worker.ID)
		ev, err = ss.Submit(NewTaskPosted(shardedTask(i % categories)))
		if err != nil {
			t.Fatal(err)
		}
		taskIDs = append(taskIDs, ev.Task.ID)
	}
	for r := 0; r < 10; r++ {
		if _, err := ss.CloseRound(); err != nil {
			t.Fatal(err)
		}
		if r%2 == 0 && len(workerIDs) > 4 {
			if _, err := ss.Submit(NewWorkerLeft(workerIDs[0])); err != nil {
				t.Fatal(err)
			}
			workerIDs = workerIDs[1:]
			if _, err := ss.Submit(NewTaskClosed(taskIDs[0])); err != nil {
				t.Fatal(err)
			}
			taskIDs = taskIDs[1:]
		}
	}
	liveW, liveT := ss.Counts()
	rounds := ss.Rounds()
	var committed [shards][]byte
	for k := 0; k < shards; k++ {
		committed[k] = stateBytes(t, ss.ShardState(k))
	}
	for _, seg := range segs {
		if err := seg.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Recover each shard directory like a fresh mbaserve -shards run.
	states, infos, err := RecoverShardedDir(dir, categories, shards)
	if err != nil {
		t.Fatal(err)
	}
	for k, st := range states {
		if !bytes.Equal(stateBytes(t, st), committed[k]) {
			t.Fatalf("shard %d: recovered state differs from live state (replayed %d events from %d segments)",
				k, infos[k].EventsReplayed, infos[k].SegmentsReplayed)
		}
	}

	// The recovered stack reindexes to the same routing view and serves.
	ss2, segs2 := build()
	if w, tk := ss2.Counts(); w != liveW || tk != liveT {
		t.Fatalf("recovered Counts = %d/%d, want %d/%d", w, tk, liveW, liveT)
	}
	if ss2.Rounds() != rounds {
		t.Fatalf("recovered Rounds = %d, want %d", ss2.Rounds(), rounds)
	}
	if ss2.RepairedWorkers() != 0 {
		t.Fatalf("clean recovery repaired %d workers", ss2.RepairedWorkers())
	}
	if _, err := ss2.CloseRound(); err != nil {
		t.Fatal(err)
	}
	ev, err := ss2.Submit(NewWorkerJoined(shardedWorker(categories, 0)))
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range workerIDs {
		if ev.Worker.ID == old {
			t.Fatalf("recovered service re-issued live worker ID %d", ev.Worker.ID)
		}
	}
	for _, seg := range segs2 {
		if err := seg.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedRecoveryShardCountMismatch writes a 2-shard directory and
// recovers it under a 4-shard router, expecting the residency cross-check to
// refuse it.  (This direction is the detectable one: a category with
// shardOfCategory(c,4) ≥ 2 recovers in shard c%2 where the 4-shard router
// would never place it.  The reverse — 4-shard data under 2 shards — is
// undetectable for categories already in shards 0/1, since x%4 < 2 implies
// x%4 == x%2.)
func TestShardedRecoveryShardCountMismatch(t *testing.T) {
	const categories = 16
	dir := t.TempDir()

	r4, r2 := ShardRouter{Shards: 4}, ShardRouter{Shards: 2}
	cat := -1
	for c := 0; c < categories; c++ {
		if r4.TaskShard(c) != r2.TaskShard(c) {
			cat = c
			break
		}
	}
	if cat < 0 {
		t.Fatalf("no category distinguishes a 2-shard from a 4-shard router among %d categories", categories)
	}

	states := make([]*State, 2)
	bundles := make([]Shard, 2)
	var segs []*SegmentedLog
	for k := range states {
		st, err := NewState(categories)
		if err != nil {
			t.Fatal(err)
		}
		seg, err := OpenSegmentedLog(ShardDir(dir, k), SegmentOptions{})
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, seg)
		states[k] = st
		bundles[k] = Shard{State: st, Journal: seg, Solver: greedySolver()}
	}
	ss, err := NewShardedService(bundles, benefit.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Submit(NewTaskPosted(shardedTask(cat))); err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		if err := seg.Close(); err != nil {
			t.Fatal(err)
		}
	}

	rec, _, err := RecoverShardedDir(dir, categories, 4)
	if err != nil {
		t.Fatal(err)
	}
	four := make([]Shard, 4)
	for k := range four {
		four[k] = Shard{State: rec[k], Solver: greedySolver()}
	}
	_, err = NewShardedService(four, benefit.DefaultParams(), 1)
	if err == nil || !strings.Contains(err.Error(), "shard count mismatch") {
		t.Fatalf("recovering 2-shard data with 4 shards: err = %v, want a shard count mismatch", err)
	}
}

// TestShardedPartialJoinRepaired simulates a machine death between the
// fan-out appends of a spanning worker's join: the worker lands on disk in
// only the first of its shards.  Recovery must converge the torn write to
// absent (journaled), not refuse to start, and the ID must not be re-issued
// to a later... different profile while the torn copy lingers.
func TestShardedPartialJoinRepaired(t *testing.T) {
	const categories, shards = 8, 4
	dir := t.TempDir()
	c0, c1 := spanningSpecialties(t, categories, shards)
	targets := ShardRouter{Shards: shards}.WorkerShards([]int{c0, c1})

	// Write the torn join directly: shard targets[0] gets the event, the
	// machine dies before targets[1] is reached.
	st, err := NewState(categories)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := OpenSegmentedLog(ShardDir(dir, targets[0]), SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w := shardedWorker(categories, c0, c1)
	w.ID = 1
	if _, err := st.ApplyBatchJournaled([]Event{NewWorkerJoined(w)}, seg.AppendBatch); err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}

	states, _, err := RecoverShardedDir(dir, categories, shards)
	if err != nil {
		t.Fatal(err)
	}
	bundles := make([]Shard, shards)
	var segs []*SegmentedLog
	for k := range bundles {
		sg, err := OpenSegmentedLog(ShardDir(dir, k), SegmentOptions{})
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, sg)
		bundles[k] = Shard{State: states[k], Journal: sg, Solver: greedySolver()}
	}
	ss, err := NewShardedService(bundles, benefit.DefaultParams(), 1)
	if err != nil {
		t.Fatalf("recovery refused a torn join: %v", err)
	}
	if ss.RepairedWorkers() != 1 {
		t.Fatalf("RepairedWorkers = %d, want 1", ss.RepairedWorkers())
	}
	if w, _ := ss.Counts(); w != 0 {
		t.Fatalf("torn worker still counted: %d", w)
	}
	for k := 0; k < shards; k++ {
		if _, ok := ss.ShardState(k).Worker(1); ok {
			t.Fatalf("torn worker survives in shard %d after repair", k)
		}
	}

	// The repair is journaled: a second recovery sees a clean directory.
	for _, sg := range segs {
		if err := sg.Close(); err != nil {
			t.Fatal(err)
		}
	}
	states2, _, err := RecoverShardedDir(dir, categories, shards)
	if err != nil {
		t.Fatal(err)
	}
	for k := range bundles {
		bundles[k] = Shard{State: states2[k], Solver: greedySolver()}
	}
	ss2, err := NewShardedService(bundles, benefit.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if ss2.RepairedWorkers() != 0 {
		t.Fatalf("second recovery repaired again (%d) — the repair was not durable", ss2.RepairedWorkers())
	}
}

// TestShardedSharedSolverRejected pins the footgun guard: two shards
// sharing one stateful solver instance must be refused.
func TestShardedSharedSolverRejected(t *testing.T) {
	shared := core.NewIncrementalExact()
	bundles := make([]Shard, 2)
	for k := range bundles {
		st, err := NewState(4)
		if err != nil {
			t.Fatal(err)
		}
		bundles[k] = Shard{State: st, Solver: shared}
	}
	if _, err := NewShardedService(bundles, benefit.DefaultParams(), 1); err == nil {
		t.Fatal("two shards sharing one solver instance were accepted")
	}
}

// TestShardedSharedWorkspaceRejected pins the guard for value solvers:
// two shards handed the same core.Greedy, whose pinned workspace keeps its
// resident edge order, would race on it and must be refused.  Separate
// workspaces, and greedies without one, are accepted.
func TestShardedSharedWorkspaceRejected(t *testing.T) {
	shards := func(solvers ...core.Solver) []Shard {
		bundles := make([]Shard, len(solvers))
		for k, s := range solvers {
			st, err := NewState(4)
			if err != nil {
				t.Fatal(err)
			}
			bundles[k] = Shard{State: st, Solver: s}
		}
		return bundles
	}
	shared := core.Greedy{Kind: core.MutualWeight, WS: core.NewWorkspace()}
	_, err := NewShardedService(shards(shared, shared), benefit.DefaultParams(), 1)
	if err == nil || !strings.Contains(err.Error(), "share one solver workspace") {
		t.Fatalf("two shards sharing one pinned workspace: err = %v, want it refused", err)
	}
	for name, pair := range map[string][]core.Solver{
		"own-workspaces": {greedySolver(), greedySolver()},
		"pooled":         {core.Greedy{Kind: core.MutualWeight}, core.Greedy{Kind: core.MutualWeight}},
	} {
		if _, err := NewShardedService(shards(pair...), benefit.DefaultParams(), 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// shardedOracleCase is one generator family of the feasibility property
// test.
type shardedOracleCase struct {
	name string
	gen  func(seed uint64) (*market.Instance, error)
}

func shardedOracleCases() []shardedOracleCase {
	return []shardedOracleCase{
		{"default", func(seed uint64) (*market.Instance, error) {
			return market.Generate(market.Config{NumWorkers: 90, NumTasks: 70}, seed)
		}},
		{"freelance", func(seed uint64) (*market.Instance, error) {
			return market.Generate(market.FreelanceTraceConfig(90, 70), seed)
		}},
		{"clustered", func(seed uint64) (*market.Instance, error) {
			return market.ClusteredMarket(90, 70, 0.3, seed), nil
		}},
	}
}

// checkMergedFeasibility asserts the merged round result respects every
// market constraint: worker capacity (globally, across shards), task
// replication, edge eligibility, and pair uniqueness.
func checkMergedFeasibility(t *testing.T, res *RoundResult, workers map[int]market.Worker, tasks map[int]market.Task) {
	t.Helper()
	perWorker := map[int]int{}
	perTask := map[int]int{}
	seen := map[[2]int]bool{}
	for _, pr := range res.Pairs {
		key := [2]int{pr.WorkerID, pr.TaskID}
		if seen[key] {
			t.Fatalf("duplicate pair (%d,%d) in merged result", pr.WorkerID, pr.TaskID)
		}
		seen[key] = true
		w, ok := workers[pr.WorkerID]
		if !ok {
			t.Fatalf("pair references unknown worker %d", pr.WorkerID)
		}
		tk, ok := tasks[pr.TaskID]
		if !ok {
			t.Fatalf("pair references unknown task %d", pr.TaskID)
		}
		eligible := false
		for _, c := range w.Specialties {
			if c == tk.Category {
				eligible = true
				break
			}
		}
		if !eligible {
			t.Fatalf("worker %d assigned task %d outside its specialties %v (category %d)",
				pr.WorkerID, pr.TaskID, w.Specialties, tk.Category)
		}
		perWorker[pr.WorkerID]++
		perTask[pr.TaskID]++
		if perWorker[pr.WorkerID] > w.Capacity {
			t.Fatalf("worker %d over capacity: %d > %d (spanning-worker reconciliation failed)",
				pr.WorkerID, perWorker[pr.WorkerID], w.Capacity)
		}
		if perTask[pr.TaskID] > tk.Replication {
			t.Fatalf("task %d over replication: %d > %d", pr.TaskID, perTask[pr.TaskID], tk.Replication)
		}
	}
}

// TestShardedFeasibilityAgainstOracle is the merged-assignment property
// test: the same event stream drives a 4-shard service and a single-market
// oracle Service across 20 seeds × 3 generator families; every merged round
// must be feasible, and its aggregate mutual benefit must stay close to the
// oracle's (the reconciliation pass may cost a little quality, never
// feasibility).
func TestShardedFeasibilityAgainstOracle(t *testing.T) {
	const seeds = 20
	worstRatio := 1.0
	totalDropped, totalRefilled := 0, 0
	for _, tc := range shardedOracleCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= seeds; seed++ {
				in, err := tc.gen(seed)
				if err != nil {
					t.Fatal(err)
				}
				ss := newTestShardedService(t, 4, in.NumCategories, greedySolver, seed)
				oracleState, err := NewState(in.NumCategories)
				if err != nil {
					t.Fatal(err)
				}
				oracle, err := NewService(oracleState, greedySolver(), benefit.DefaultParams(), nil, seed)
				if err != nil {
					t.Fatal(err)
				}

				// Identical explicit IDs on both sides so churn events match.
				workers := map[int]market.Worker{}
				tasks := map[int]market.Task{}
				submitBoth := func(e Event) {
					t.Helper()
					if _, err := ss.Submit(e); err != nil {
						t.Fatalf("sharded submit: %v", err)
					}
					if _, err := oracle.Submit(e); err != nil {
						t.Fatalf("oracle submit: %v", err)
					}
				}
				for i, w := range in.Workers {
					w.ID = i + 1
					workers[w.ID] = w
					submitBoth(NewWorkerJoined(w))
				}
				for j, tk := range in.Tasks {
					tk.ID = j + 1
					tasks[tk.ID] = tk
					submitBoth(NewTaskPosted(tk))
				}

				for round := 0; round < 2; round++ {
					res, err := ss.CloseRound()
					if err != nil {
						t.Fatalf("seed %d round %d: %v", seed, round, err)
					}
					if res.SolveError != "" {
						t.Fatalf("seed %d round %d: solve error %q", seed, round, res.SolveError)
					}
					checkMergedFeasibility(t, res, workers, tasks)
					totalDropped += res.ReconcileDropped
					totalRefilled += res.ReconcileRefilled
					oracleRes, err := oracle.CloseRound()
					if err != nil {
						t.Fatal(err)
					}
					if oracleRes.Metrics.TotalMutual > 0 {
						ratio := res.Metrics.TotalMutual / oracleRes.Metrics.TotalMutual
						if ratio < worstRatio {
							worstRatio = ratio
						}
						if ratio < 0.85 {
							t.Fatalf("seed %d round %d: sharded mutual benefit %.4f vs oracle %.4f (ratio %.3f)",
								seed, round, res.Metrics.TotalMutual, oracleRes.Metrics.TotalMutual, ratio)
						}
					}
					if round == 0 {
						// Churn between rounds: drop every 5th worker and every
						// 7th task on both sides, so round 2 reconciles a
						// different spanning set.
						for id := 5; id <= len(in.Workers); id += 5 {
							submitBoth(NewWorkerLeft(id))
							delete(workers, id)
						}
						for id := 7; id <= len(in.Tasks); id += 7 {
							submitBoth(NewTaskClosed(id))
							delete(tasks, id)
						}
					}
				}
			}
		})
	}
	t.Logf("worst sharded/oracle mutual-benefit ratio: %.3f (reconcile dropped %d, refilled %d)",
		worstRatio, totalDropped, totalRefilled)
	// The property is only meaningful if the spanning-worker path actually
	// fired: across 120 generated markets some optimistic pick must have been
	// dropped by reconciliation, or the workloads never contested a worker.
	if totalDropped == 0 {
		t.Fatal("reconciliation never dropped a pick across the whole property run — spanning-worker path untested")
	}
}

// TestShardedCloseRoundMarkerFailure pins the divergence contract: a marker
// append failing on one shard aborts the round with earlier shards one
// marker ahead, Rounds() reports the minimum, entity state is untouched,
// and a retry serves everyone.
func TestShardedCloseRoundMarkerFailure(t *testing.T) {
	const categories, shards = 8, 4
	bundles := make([]Shard, shards)
	var bufs [shards]bytes.Buffer
	// Shard 2's journal fails exactly one append; every entity below is
	// routed away from shard 2, so the failing append is its round marker.
	var failing *faultinject.FlakyWriter
	for k := range bundles {
		st, err := NewState(categories)
		if err != nil {
			t.Fatal(err)
		}
		var w *faultinject.FlakyWriter
		if k == 2 {
			w = faultinject.NewFlakyWriter(&bufs[k], faultinject.Once(0))
			failing = w
		} else {
			w = faultinject.NewFlakyWriter(&bufs[k], func(int) bool { return false })
		}
		bundles[k] = Shard{State: st, Solver: greedySolver(), Journal: NewLogWithOptions(w, LogOptions{})}
	}
	ss, err := NewShardedService(bundles, benefit.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	router := ShardRouter{Shards: shards}
	cat := -1
	for c := 0; c < categories; c++ {
		if router.TaskShard(c) != 2 {
			cat = c
			break
		}
	}
	if cat < 0 {
		t.Fatal("every category routes to shard 2")
	}
	if _, err := ss.Submit(NewWorkerJoined(shardedWorker(categories, cat))); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Submit(NewTaskPosted(shardedTask(cat))); err != nil {
		t.Fatal(err)
	}

	if _, err := ss.CloseRound(); err == nil {
		t.Fatal("round with a failing marker append succeeded")
	}
	if failing.Injections() == 0 {
		t.Fatal("marker fault never injected")
	}
	if got := ss.Rounds(); got != 0 {
		t.Fatalf("Rounds = %d after a failed commit, want 0 (minimum across shards)", got)
	}
	if w, tk := ss.Counts(); w != 1 || tk != 1 {
		t.Fatalf("entity state disturbed by a failed round: %d/%d", w, tk)
	}
	res, err := ss.CloseRound()
	if err != nil {
		t.Fatalf("retried round: %v", err)
	}
	if len(res.Pairs) == 0 {
		t.Fatal("retried round served nobody")
	}
	if got := ss.Rounds(); got != 1 {
		t.Fatalf("Rounds = %d after the retry, want 1", got)
	}
}

// TestShardedRoundProvenance checks the per-shard provenance surface: every
// shard reports, pairs sum to the aggregate, and the algorithm label names
// the partitioning.
func TestShardedRoundProvenance(t *testing.T) {
	const categories, shards = 8, 4
	ss := newTestShardedService(t, shards, categories, greedySolver, 3)
	for c := 0; c < categories; c++ {
		if _, err := ss.Submit(NewWorkerJoined(shardedWorker(categories, c, (c+1)%categories))); err != nil {
			t.Fatal(err)
		}
		if _, err := ss.Submit(NewTaskPosted(shardedTask(c))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ss.CloseRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shards) != shards {
		t.Fatalf("%d shard reports, want %d", len(res.Shards), shards)
	}
	sum := 0
	for k, sr := range res.Shards {
		if sr.Shard != k {
			t.Fatalf("shard report %d labelled %d", k, sr.Shard)
		}
		sum += sr.Pairs
	}
	if sum != len(res.Pairs) {
		t.Fatalf("per-shard pairs sum %d != aggregate %d", sum, len(res.Pairs))
	}
	if want := fmt.Sprintf("sharded/%d(", shards); !strings.HasPrefix(res.Metrics.Algorithm, want) {
		t.Fatalf("algorithm label %q, want prefix %q", res.Metrics.Algorithm, want)
	}

	// Cancellation before commit journals nothing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ss.CloseRoundCtx(ctx); err == nil {
		t.Fatal("cancelled round succeeded")
	}
	if got := ss.Rounds(); got != 1 {
		t.Fatalf("Rounds = %d after a cancelled round, want 1", got)
	}
}

// RecoverShardedDir recovers all shards of a sharded service's directory
// layout: shard k is recovered independently from ShardDir(dir, k) via
// RecoverDir (newest valid snapshot plus the journal tail).  Missing
// subdirectories recover as empty shards, so a fresh directory boots a
// fresh service.
func RecoverShardedDir(dir string, numCategories, shards int) ([]*State, []*RecoveryInfo, error) {
	if shards < 1 {
		return nil, nil, fmt.Errorf("platform: shard count %d < 1", shards)
	}
	states := make([]*State, shards)
	infos := make([]*RecoveryInfo, shards)
	for k := 0; k < shards; k++ {
		st, info, err := RecoverDir(ShardDir(dir, k), numCategories)
		if err != nil {
			return nil, nil, fmt.Errorf("platform: recovering shard %d: %w", k, err)
		}
		states[k] = st
		infos[k] = info
	}
	return states, infos, nil
}

// NumShards returns the shard count.
func (ss *ShardedService) NumShards() int { return len(ss.shards) }

// ShardState exposes shard k's state (tests, stats).
func (ss *ShardedService) ShardState(k int) *State { return ss.shards[k].state }

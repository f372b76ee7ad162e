package platform

// Partitioned-round tests: a Service built by NewPartitionedService keeps
// one State and one journal and splits the market only when a round
// closes.  These pin the split (routing, market-wide pricing, shard-count
// independence), the merge (reconciliation, provenance, metrics), and
// that a directory written under one partition count serves under any.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/market"
	"repro/internal/stats"
)

// newTestShardedService assembles an in-memory (journal-less) service
// whose rounds split into the given partition count; mkSolver is called
// once per partition so solver state is never shared.
func newTestShardedService(t *testing.T, shards, categories int, mkSolver func() core.Solver, seed uint64) *Service {
	t.Helper()
	st, err := NewState(categories)
	if err != nil {
		t.Fatal(err)
	}
	solvers := make([]core.Solver, shards)
	for k := range solvers {
		solvers[k] = mkSolver()
	}
	svc, err := NewPartitionedService(st, solvers, benefit.DefaultParams(), nil, seed)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func greedySolver() core.Solver { return core.Greedy{Kind: core.MutualWeight, WS: &core.Workspace{}} }

// greedySolvers returns n greedy solvers, each with its own workspace.
func greedySolvers(n int) []core.Solver {
	solvers := make([]core.Solver, n)
	for k := range solvers {
		solvers[k] = greedySolver()
	}
	return solvers
}

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

// TestShardedServiceRoutingAndFanout: IDs are the one market's, starting
// at 0, and a round places a spanning worker in every partition one of its
// specialties routes to and a task in exactly one.
func TestShardedServiceRoutingAndFanout(t *testing.T) {
	const categories, shards = 8, 4
	ss := newTestShardedService(t, shards, categories, greedySolver, 1)
	c0, c1 := spanningSpecialties(t, categories, shards)
	router := ShardRouter{Shards: shards}

	ev, err := ss.Submit(NewWorkerJoined(shardedWorker(categories, c0, c1)))
	if err != nil {
		t.Fatal(err)
	}
	wid := ev.Worker.ID
	if wid != 0 {
		t.Fatalf("first worker ID = %d, want 0 (IDs start at 0, as for one market)", wid)
	}
	wantShards := router.WorkerShards([]int{c0, c1})
	if len(wantShards) != 2 {
		t.Fatalf("specialties %d,%d map to %v, want two partitions", c0, c1, wantShards)
	}
	for _, c := range []int{c0, c1} {
		if _, err := ss.Submit(NewTaskPosted(shardedTask(c))); err != nil {
			t.Fatal(err)
		}
	}
	if w, tk := ss.Counts(); w != 1 || tk != 2 {
		t.Fatalf("Counts = %d/%d, want 1/2", w, tk)
	}

	res, err := ss.CloseRound()
	if err != nil {
		t.Fatal(err)
	}
	for k, sr := range res.Shards {
		wantW := 0
		if k == wantShards[0] || k == wantShards[1] {
			wantW = 1
		}
		wantT := 0
		for _, c := range []int{c0, c1} {
			if router.TaskShard(c) == k {
				wantT++
			}
		}
		if sr.Workers != wantW || sr.Tasks != wantT {
			t.Fatalf("partition %d holds %d workers / %d tasks, want %d/%d", k, sr.Workers, sr.Tasks, wantW, wantT)
		}
	}
	// Capacity 2 covers both tasks, one in each of the worker's partitions.
	if len(res.Pairs) != 2 {
		t.Fatalf("spanning worker got %d pairs, want 2", len(res.Pairs))
	}

	if _, err := ss.Submit(NewWorkerLeft(wid)); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Submit(NewWorkerLeft(wid)); err == nil {
		t.Fatal("second leave of the same worker succeeded")
	}
}

// shardedChurn drives one round's worth of seeded churn: joins and posts
// from the crash-script generators, then a few leaves and closes.
func shardedChurn(t *testing.T, svc *Service, rng *stats.RNG) {
	t.Helper()
	for i := 0; i < 6; i++ {
		if _, err := svc.Submit(NewWorkerJoined(shardedCrashWorker(rng))); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Submit(NewTaskPosted(shardedCrashTask(rng))); err != nil {
			t.Fatal(err)
		}
	}
	_, workerIDs, taskIDs := svc.State().Snapshot()
	for i := 0; i < 2 && len(workerIDs) > 4; i++ {
		k := rng.Intn(len(workerIDs))
		if _, err := svc.Submit(NewWorkerLeft(workerIDs[k])); err != nil {
			t.Fatal(err)
		}
		workerIDs = append(workerIDs[:k], workerIDs[k+1:]...)
	}
	for i := 0; i < 2 && len(taskIDs) > 4; i++ {
		k := rng.Intn(len(taskIDs))
		if _, err := svc.Submit(NewTaskClosed(taskIDs[k])); err != nil {
			t.Fatal(err)
		}
		taskIDs = append(taskIDs[:k], taskIDs[k+1:]...)
	}
}

// TestShardCountIndependence: partitioning changes how a round is solved,
// never what a pair is worth.  A seeded churn-and-round script runs at 1,
// 2, 4 and 8 partitions; every returned pair's Mutual must equal, bit for
// bit, the M the one-market Problem scores for that pair, and every round
// must be feasible and reference only live entities.
func TestShardCountIndependence(t *testing.T) {
	params := benefit.DefaultParams()
	for _, solver := range []string{"greedy", "incremental"} {
		for _, shards := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/%d", solver, shards), func(t *testing.T) {
				st, err := NewState(crashShardedCategories)
				if err != nil {
					t.Fatal(err)
				}
				solvers := make([]core.Solver, shards)
				for k := range solvers {
					if solvers[k], err = core.ByName(solver); err != nil {
						t.Fatal(err)
					}
				}
				svc, err := NewPartitionedService(st, solvers, params, nil, 5)
				if err != nil {
					t.Fatal(err)
				}
				rng := stats.NewRNG(21)
				paired := 0
				for round := 0; round < 15; round++ {
					shardedChurn(t, svc, rng)
					in, workerIDs, taskIDs := st.Snapshot()
					p, err := core.NewProblem(in, params)
					if err != nil {
						t.Fatal(err)
					}
					m := make(map[[2]int]float64, p.NumEdges())
					for e := 0; e < p.NumEdges(); e++ {
						m[[2]int{workerIDs[p.W[e]], taskIDs[p.T[e]]}] = p.M[e]
					}
					workers := map[int]market.Worker{}
					for i, id := range workerIDs {
						workers[id] = in.Workers[i]
					}
					tasks := map[int]market.Task{}
					for j, id := range taskIDs {
						tasks[id] = in.Tasks[j]
					}

					res, err := svc.CloseRound()
					if err != nil {
						t.Fatal(err)
					}
					if res.SolveError != "" || res.StalePairs != 0 {
						t.Fatalf("round %d: solve error %q, %d stale pairs", round, res.SolveError, res.StalePairs)
					}
					checkMergedFeasibility(t, res, workers, tasks)
					for _, pr := range res.Pairs {
						want, ok := m[[2]int{pr.WorkerID, pr.TaskID}]
						if !ok {
							t.Fatalf("round %d: pair (%d,%d) is no edge of the one market", round, pr.WorkerID, pr.TaskID)
						}
						if math.Float64bits(pr.Mutual) != math.Float64bits(want) {
							t.Fatalf("round %d: pair (%d,%d) Mutual %v, one-market M %v",
								round, pr.WorkerID, pr.TaskID, pr.Mutual, want)
						}
					}
					paired += len(res.Pairs)
				}
				if paired == 0 {
					t.Fatal("no round assigned anything")
				}
			})
		}
	}
}

// TestShardedRecoveryByteIdentical runs a churn-and-rounds workload over a
// journaled and checkpointed 4-partition service, then recovers its
// directory and requires the recovered state to be byte-identical to the
// live one — and the recovered service to serve without re-issuing IDs.
func TestShardedRecoveryByteIdentical(t *testing.T) {
	const shards = 4
	dir := t.TempDir()
	open := func() (*Service, *SegmentedLog) {
		st, seg, cm, _, err := OpenMarketDir(dir, crashShardedCategories, SegmentOptions{MaxBytes: 2 << 10},
			&CheckpointOptions{EveryRounds: 3, Keep: 2})
		if err != nil {
			t.Fatal(err)
		}
		svc, err := NewPartitionedService(st, greedySolvers(shards), benefit.DefaultParams(), seg, 7)
		if err != nil {
			t.Fatal(err)
		}
		svc.SetCheckpointer(cm)
		return svc, seg
	}

	svc, seg := open()
	rng := stats.NewRNG(3)
	for r := 0; r < 10; r++ {
		shardedChurn(t, svc, rng)
		if _, err := svc.CloseRound(); err != nil {
			t.Fatal(err)
		}
	}
	committed := stateBytes(t, svc.State())
	liveW, liveT := svc.Counts()
	_, workerIDs, _ := svc.State().Snapshot()
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}

	rec, info, err := RecoverDir(dir, crashShardedCategories)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stateBytes(t, rec), committed) {
		t.Fatalf("recovered state differs from live state (replayed %d events from %d segments)",
			info.EventsReplayed, info.SegmentsReplayed)
	}

	svc2, seg2 := open()
	defer seg2.Close()
	if w, tk := svc2.Counts(); w != liveW || tk != liveT {
		t.Fatalf("recovered Counts = %d/%d, want %d/%d", w, tk, liveW, liveT)
	}
	if svc2.Rounds() != 10 {
		t.Fatalf("recovered Rounds = %d, want 10", svc2.Rounds())
	}
	if _, err := svc2.CloseRound(); err != nil {
		t.Fatal(err)
	}
	ev, err := svc2.Submit(NewWorkerJoined(shardedWorker(crashShardedCategories, 0)))
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range workerIDs {
		if ev.Worker.ID == old {
			t.Fatalf("recovered service re-issued live worker ID %d", ev.Worker.ID)
		}
	}
}

// TestShardedRecoveryAcrossShardCounts: the partition count is a property
// of the round, not of the directory.  A journal written under 4
// partitions recovers and serves at 2 and then at 1, each recovery equal
// to the state the previous run left.
func TestShardedRecoveryAcrossShardCounts(t *testing.T) {
	dir := t.TempDir()
	rng := stats.NewRNG(9)
	var left []byte
	for run, shards := range []int{4, 2, 1} {
		st, seg, cm, _, err := OpenMarketDir(dir, crashShardedCategories, SegmentOptions{MaxBytes: 2 << 10},
			&CheckpointOptions{EveryRounds: 2, Keep: 2})
		if err != nil {
			t.Fatal(err)
		}
		if run > 0 && !bytes.Equal(stateBytes(t, st), left) {
			t.Fatalf("recovering at %d partitions: state differs from the one the previous run left", shards)
		}
		svc, err := NewPartitionedService(st, greedySolvers(shards), benefit.DefaultParams(), seg, 7)
		if err != nil {
			t.Fatal(err)
		}
		svc.SetCheckpointer(cm)
		for r := 0; r < 5; r++ {
			shardedChurn(t, svc, rng)
			res, err := svc.CloseRound()
			if err != nil {
				t.Fatal(err)
			}
			if res.SolveError != "" || len(res.Pairs) == 0 {
				t.Fatalf("%d partitions, round %d: %d pairs, solve error %q", shards, r, len(res.Pairs), res.SolveError)
			}
		}
		left = stateBytes(t, st)
		if err := seg.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenMarketDirRefusesShardDirs: a directory holding the per-shard
// journal directories of the earlier sharded layout is refused by name,
// rather than recovered as an empty market with a new journal started
// beside them.
func TestOpenMarketDirRefusesShardDirs(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"shard-0000", "shard-0001"} {
		sub := filepath.Join(dir, name)
		st := mustState(t)
		seg, err := OpenSegmentedLog(sub, SegmentOptions{})
		if err != nil {
			t.Fatal(err)
		}
		appendJoins(t, st, seg, 3)
		if err := seg.Close(); err != nil {
			t.Fatal(err)
		}
	}
	_, _, _, _, err := OpenMarketDir(dir, 3, SegmentOptions{}, &CheckpointOptions{EveryRounds: 1})
	if err == nil || !strings.Contains(err.Error(), "shard-0000, shard-0001") {
		t.Fatalf("opening a per-shard directory tree: err = %v, want a refusal naming shard-0000 and shard-0001", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("the refused open left %d entries in the directory, want only the 2 shard directories", len(entries))
	}
}

// TestShardedSharedSolverRejected pins the footgun guard: two partitions
// sharing one stateful solver instance must be refused.
func TestShardedSharedSolverRejected(t *testing.T) {
	shared := core.NewIncrementalExact()
	if _, err := NewPartitionedService(mustState(t), []core.Solver{shared, shared}, benefit.DefaultParams(), nil, 1); err == nil {
		t.Fatal("two partitions sharing one solver instance were accepted")
	}
}

// TestShardedSharedWorkspaceRejected pins the guard for value solvers:
// two partitions handed the same core.Greedy, whose pinned workspace keeps
// its resident edge order, would race on it and must be refused.
// Separate workspaces, and greedies without one, are accepted.
func TestShardedSharedWorkspaceRejected(t *testing.T) {
	build := func(solvers ...core.Solver) error {
		_, err := NewPartitionedService(mustState(t), solvers, benefit.DefaultParams(), nil, 1)
		return err
	}
	shared := core.Greedy{Kind: core.MutualWeight, WS: core.NewWorkspace()}
	if err := build(shared, shared); err == nil || !strings.Contains(err.Error(), "share one solver workspace") {
		t.Fatalf("two partitions sharing one pinned workspace: err = %v, want it refused", err)
	}
	for name, pair := range map[string][]core.Solver{
		"own-workspaces": {greedySolver(), greedySolver()},
		"pooled":         {core.Greedy{Kind: core.MutualWeight}, core.Greedy{Kind: core.MutualWeight}},
	} {
		if err := build(pair...); err != nil {
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

// TestShardedCloseRoundMarkerFailure: a failing marker append aborts a
// partitioned round whole — Rounds() unchanged, entity state untouched —
// and a retry serves everyone.
func TestShardedCloseRoundMarkerFailure(t *testing.T) {
	const categories, shards = 8, 4
	// Appends 0 and 1 are the join and the post; append 2 is the marker.
	var buf bytes.Buffer
	failing := faultinject.NewFlakyWriter(&buf, faultinject.Once(2))
	st, err := NewState(categories)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewPartitionedService(st, greedySolvers(shards), benefit.DefaultParams(),
		NewLogWithOptions(failing, LogOptions{}), 1)
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := spanningSpecialties(t, categories, shards)
	if _, err := ss.Submit(NewWorkerJoined(shardedWorker(categories, c0, c1))); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Submit(NewTaskPosted(shardedTask(c1))); err != nil {
		t.Fatal(err)
	}

	if _, err := ss.CloseRound(); err == nil {
		t.Fatal("round with a failing marker append succeeded")
	}
	if failing.Injections() == 0 {
		t.Fatal("marker fault never injected")
	}
	if got := ss.Rounds(); got != 0 {
		t.Fatalf("Rounds = %d after a failed commit, want 0", got)
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
	assertReplayMatches(t, categories, buf.Bytes(), ss.State())
}

// TestShardedRoundProvenance checks the per-partition provenance surface:
// every partition reports, their pairs sum to the round's, the round
// commits one marker, and the algorithm label names the partitioning.
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
		t.Fatalf("%d partition reports, want %d", len(res.Shards), shards)
	}
	sum := 0
	for k, sr := range res.Shards {
		if sr.Shard != k {
			t.Fatalf("partition report %d labelled %d", k, sr.Shard)
		}
		if sr.Seq != 0 || sr.Checkpointed || sr.StalePairs != 0 {
			t.Fatalf("partition %d reports commit provenance %+v; the round commits once", k, sr.RoundProvenance)
		}
		sum += sr.Pairs
	}
	if sum != len(res.Pairs) {
		t.Fatalf("per-partition pairs sum %d != aggregate %d", sum, len(res.Pairs))
	}
	if res.Seq != ss.State().Seq() {
		t.Fatalf("round marker seq %d, state at %d", res.Seq, ss.State().Seq())
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

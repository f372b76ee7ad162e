package platform

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"testing"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/stats"
)

// TestOneShardMatchesService pins a one-partition NewPartitionedService to
// NewService: the same seeded churn+round script, driven through both,
// must produce the same pairs (IDs and Mutual bits), the same stale
// counts, marker seqs and solve provenance, no per-partition block, and
// byte-identical journals.  "random" pins the RNG stream: partition 0
// must draw exactly what a Service under the same seed draws.
func TestOneShardMatchesService(t *testing.T) {
	for _, name := range []string{"greedy", "incremental", "random"} {
		t.Run(name, func(t *testing.T) {
			// Each solver pins its own workspace: a pooled one would carry
			// warm flow state from the other backend's solve into the
			// WarmStarted provenance.
			mkSolver := func() core.Solver {
				switch name {
				case "greedy":
					return core.Greedy{Kind: core.MutualWeight, WS: &core.Workspace{}}
				case "random":
					return core.Random{}
				}
				s := core.NewIncrementalExact()
				s.WS = &core.Workspace{}
				return s
			}
			const seed = 7
			svcState, err := NewState(3)
			if err != nil {
				t.Fatal(err)
			}
			var svcBuf, ssBuf bytes.Buffer
			svc, err := NewService(svcState, mkSolver(), benefit.DefaultParams(), NewLog(&svcBuf), seed)
			if err != nil {
				t.Fatal(err)
			}
			ssState, err := NewState(3)
			if err != nil {
				t.Fatal(err)
			}
			ss, err := NewPartitionedService(ssState, []core.Solver{mkSolver()}, benefit.DefaultParams(), NewLog(&ssBuf), seed)
			if err != nil {
				t.Fatal(err)
			}

			// The script carries explicit IDs, so removals can name them.
			rng := stats.NewRNG(11)
			liveW, liveT := map[int]bool{}, map[int]bool{}
			nextW, nextT := 1, 1
			worker := func() Event {
				w := crashScriptWorker(rng)
				w.ID = nextW
				nextW++
				liveW[w.ID] = true
				return NewWorkerJoined(w)
			}
			task := func() Event {
				tk := crashScriptTask(rng)
				tk.ID = nextT
				nextT++
				liveT[tk.ID] = true
				return NewTaskPosted(tk)
			}
			pick := func(live map[int]bool) int {
				ids := make([]int, 0, len(live))
				for id := range live {
					ids = append(ids, id)
				}
				sort.Ints(ids)
				return ids[rng.Intn(len(ids))]
			}
			submit := func(e Event) {
				a, err := svc.Submit(e)
				if err != nil {
					t.Fatal(err)
				}
				b, err := ss.Submit(e)
				if err != nil {
					t.Fatal(err)
				}
				if a.Seq != b.Seq {
					t.Fatalf("%s: seq %d vs %d", e.Kind, a.Seq, b.Seq)
				}
			}
			warm := 0
			for round := 0; round < 30; round++ {
				for i := 0; i < 6; i++ {
					submit(worker())
					submit(task())
				}
				if len(liveW) > 4 {
					id := pick(liveW)
					submit(NewWorkerLeft(id))
					delete(liveW, id)
				}
				if len(liveT) > 4 {
					id := pick(liveT)
					submit(NewTaskClosed(id))
					delete(liveT, id)
				}
				batch := []Event{worker(), task()}
				if _, err := svc.SubmitBatch(batch); err != nil {
					t.Fatal(err)
				}
				if _, err := ss.SubmitBatch(batch); err != nil {
					t.Fatal(err)
				}

				got, err := ss.CloseRound()
				if err != nil {
					t.Fatal(err)
				}
				want, err := svc.CloseRound()
				if err != nil {
					t.Fatal(err)
				}
				if got.Shards != nil {
					t.Fatalf("round %d: one partition reported %d partition entries", round, len(got.Shards))
				}
				if got.Round != want.Round || got.StalePairs != want.StalePairs || got.Seq != want.Seq {
					t.Fatalf("round %d: round/stale/seq %d/%d/%d vs %d/%d/%d", round,
						got.Round, got.StalePairs, got.Seq, want.Round, want.StalePairs, want.Seq)
				}
				if got.ServedBy != want.ServedBy || got.DegradedFrom != want.DegradedFrom ||
					got.SolveTimedOut != want.SolveTimedOut || got.WarmStarted != want.WarmStarted ||
					math.Float64bits(got.DirtyFraction) != math.Float64bits(want.DirtyFraction) ||
					got.FullSolveFallback != want.FullSolveFallback || got.SolveError != want.SolveError {
					t.Fatalf("round %d: provenance %+v vs %+v", round, got.RoundProvenance, want.RoundProvenance)
				}
				if want.WarmStarted {
					warm++
				}
				if len(got.Pairs) != len(want.Pairs) {
					t.Fatalf("round %d: %d pairs vs %d", round, len(got.Pairs), len(want.Pairs))
				}
				for i := range got.Pairs {
					g, w := got.Pairs[i], want.Pairs[i]
					if g.WorkerID != w.WorkerID || g.TaskID != w.TaskID ||
						math.Float64bits(g.Mutual) != math.Float64bits(w.Mutual) {
						t.Fatalf("round %d pair %d: %+v vs %+v", round, i, g, w)
					}
				}
			}
			if name == "incremental" && warm == 0 {
				t.Fatal("no round warm-started: the delta path went unexercised")
			}
			if !bytes.Equal(svcBuf.Bytes(), ssBuf.Bytes()) {
				t.Fatalf("journals differ (%d vs %d bytes)", svcBuf.Len(), ssBuf.Len())
			}
		})
	}
}

// TestRoundResultJSONGolden pins RoundResult's wire format — field names
// and order, including the per-shard entries — so a refactor of the Go
// declarations cannot silently reorder or rename what clients parse.
func TestRoundResultJSONGolden(t *testing.T) {
	prov := func(r *ShardRound, k int) {
		r.StalePairs = 1 + k
		r.Seq = uint64(10 + k)
		r.ServedBy = "exact"
		r.DegradedFrom = "local-search"
		r.SolveTimedOut = true
		r.WarmStarted = true
		r.DirtyFraction = 0.25
		r.FullSolveFallback = true
		r.SolveError = "boom"
		r.Checkpointed = true
		r.CheckpointError = "disk"
	}
	res := RoundResult{
		Round:   3,
		Pairs:   []AssignmentPair{{WorkerID: 1, TaskID: 2, Quality: 0.5, Utility: 0.25, Mutual: 0.375}},
		Metrics: core.Metrics{Algorithm: "greedy", Pairs: 1},
		Shards: []ShardRound{
			{Shard: 0, Workers: 4, Tasks: 3, Pairs: 1, ReconcileDropped: 2, ReconcileRefilled: 1},
			{Shard: 1, Workers: 5, Tasks: 6, Pairs: 0},
		},
		ReconcileDropped:  2,
		ReconcileRefilled: 1,
	}
	for k := range res.Shards {
		prov(&res.Shards[k], k)
	}
	res.StalePairs = 3
	res.Seq = 12
	res.ServedBy = "exact"
	res.DegradedFrom = "local-search"
	res.SolveTimedOut = true
	res.WarmStarted = true
	res.DirtyFraction = 0.5
	res.FullSolveFallback = true
	res.SolveError = "2 shard(s) failed"
	res.Checkpointed = true
	res.CheckpointError = "disk"

	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{"round":3,"pairs":[{"worker_id":1,"task_id":2,"quality":0.5,"utility":0.25,"mutual":0.375}],"metrics":{"Algorithm":"greedy","Pairs":1,"TotalMutual":0,"TotalQuality":0,"TotalWorker":0,"SlotCoverage":0,"WorkerJain":0,"MeanWorkerBenefit":0,"ActiveWorkers":0,"Elapsed":0},"stale_pairs":3,"seq":12,"served_by":"exact","degraded_from":"local-search","solve_timed_out":true,"warm_started":true,"dirty_fraction":0.5,"full_solve_fallback":true,"solve_error":"2 shard(s) failed","checkpointed":true,"checkpoint_error":"disk","shards":[{"shard":0,"workers":4,"tasks":3,"pairs":1,"reconcile_dropped":2,"reconcile_refilled":1,"stale_pairs":1,"seq":10,"served_by":"exact","degraded_from":"local-search","solve_timed_out":true,"warm_started":true,"dirty_fraction":0.25,"full_solve_fallback":true,"solve_error":"boom","checkpointed":true,"checkpoint_error":"disk"},{"shard":1,"workers":5,"tasks":6,"pairs":0,"stale_pairs":2,"seq":11,"served_by":"exact","degraded_from":"local-search","solve_timed_out":true,"warm_started":true,"dirty_fraction":0.25,"full_solve_fallback":true,"solve_error":"boom","checkpointed":true,"checkpoint_error":"disk"}],"reconcile_dropped":2,"reconcile_refilled":1}`
	if string(b) != golden {
		t.Fatalf("RoundResult JSON changed:\n got %s\nwant %s", b, golden)
	}
}

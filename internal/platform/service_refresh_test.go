package platform

import (
	"slices"
	"testing"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/stats"
)

// TestGreedyServiceRefreshMatchesFreshBuild runs a greedy Service through
// a churn trace and holds every round to greedy on NewProblem of the same
// snapshot.  After the first round the service refreshes the previous
// round's problem from the snapshot delta, so its pairs and metrics must
// not be able to tell.  The trace raises and lowers MaxPayment, which
// forces full rebuilds, and has a round with no tasks: its solve is
// skipped while the delta baseline advances, so the next round's delta is
// against a snapshot the retained problem was not built from.
func TestGreedyServiceRefreshMatchesFreshBuild(t *testing.T) {
	state := mustState(t)
	params := benefit.DefaultParams()
	solver := core.Greedy{Kind: core.MutualWeight}
	svc, err := NewService(state, solver, params, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(7)
	var workers, tasks []int
	join := func() {
		w := market.Worker{
			Capacity:        1 + rng.Intn(2),
			Accuracy:        make([]float64, 3),
			Interest:        make([]float64, 3),
			Specialties:     rng.Perm(3)[:1+rng.Intn(3)],
			ReservationWage: 3 * rng.Float64(),
		}
		for c := range w.Accuracy {
			w.Accuracy[c] = 0.5 + 0.45*rng.Float64()
			w.Interest[c] = rng.Float64()
		}
		e, err := svc.Submit(NewWorkerJoined(w))
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, e.Worker.ID)
	}
	post := func(pay float64) {
		e, err := svc.Submit(NewTaskPosted(market.Task{
			Category: rng.Intn(3), Replication: 1 + rng.Intn(2), Payment: pay, Difficulty: rng.Float64(),
		}))
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, e.Task.ID)
	}
	leave := func() {
		k := rng.Intn(len(workers))
		if _, err := svc.Submit(NewWorkerLeft(workers[k])); err != nil {
			t.Fatal(err)
		}
		workers = slices.Delete(workers, k, k+1)
	}
	closeTask := func(k int) {
		if _, err := svc.Submit(NewTaskClosed(tasks[k])); err != nil {
			t.Fatal(err)
		}
		tasks = slices.Delete(tasks, k, k+1)
	}

	for i := 0; i < 30; i++ {
		join()
	}
	for i := 0; i < 24; i++ {
		post(1 + 9*rng.Float64())
	}
	const rounds = 48
	for round := 0; round < rounds; round++ {
		switch round {
		case 10:
			post(20) // MaxPayment up
		case 11:
			closeTask(len(tasks) - 1) // and down again
		case 20:
			for len(tasks) > 0 {
				closeTask(0) // a round with no tasks
			}
		case 21:
			for i := 0; i < 20; i++ {
				post(1 + 9*rng.Float64())
			}
		default:
			for k := rng.Intn(3); k > 0 && len(workers) > 1; k-- {
				leave()
			}
			for k := rng.Intn(3); k > 0 && len(tasks) > 1; k-- {
				closeTask(rng.Intn(len(tasks)))
			}
			for k := rng.Intn(3); k > 0; k-- {
				join()
			}
			for k := rng.Intn(3); k > 0; k-- {
				post(1 + 9*rng.Float64())
			}
		}

		// The reference: greedy on a fresh build of the snapshot the round
		// is about to take (nothing writes in between).
		in, workerIDs, taskIDs := state.Snapshot()
		var wantPairs []AssignmentPair
		var want core.Metrics
		if in.NumWorkers() > 0 && in.NumTasks() > 0 {
			p, err := core.NewProblem(in, params)
			if err != nil {
				t.Fatal(err)
			}
			sel, m, err := core.Run(p, solver, nil)
			if err != nil {
				t.Fatal(err)
			}
			want = m
			for _, ei := range sel {
				wantPairs = append(wantPairs, AssignmentPair{
					WorkerID: workerIDs[p.W[ei]], TaskID: taskIDs[p.T[ei]],
					Quality: p.Quality(ei), Utility: p.Utility(ei), Mutual: p.M[ei],
				})
			}
		} else if round != 20 {
			t.Fatalf("round %d: empty market outside the no-task round", round)
		}

		res, err := svc.CloseRound()
		if err != nil {
			t.Fatal(err)
		}
		if res.SolveError != "" {
			t.Fatalf("round %d: %s", round, res.SolveError)
		}
		if !slices.Equal(res.Pairs, wantPairs) {
			t.Fatalf("round %d: %d pairs differ from the fresh build's %d", round, len(res.Pairs), len(wantPairs))
		}
		got := res.Metrics
		got.Elapsed, want.Elapsed = 0, 0
		if got != want {
			t.Fatalf("round %d: metrics %+v, fresh build %+v", round, got, want)
		}
	}
}

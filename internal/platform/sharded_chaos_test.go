package platform

// Partitioned chaos suite: ≥120 rounds over a service whose rounds split
// into 4 partitions, with its journal injecting fault bursts, every
// partition's solver panicking on its own schedule, and concurrent churn.
// Picked up by `make chaos` alongside the single-market run.  It exercises
// every partitioned failure path — a failed submit, a marker-commit
// failure and its retry, a panicking partition — and checks every merged
// round for stale, duplicate and over-subscribed pairs.

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/market"
	"repro/internal/stats"
)

const (
	chaosShardedShards     = 4
	chaosShardedCategories = 6
)

// chaosShardedWorker draws a worker profile spanning 1–3 of the 6
// categories, so a large fraction of the population is resident in several
// partitions and the reconciliation path stays hot.
func chaosShardedWorker(rng *stats.RNG) market.Worker {
	w := market.Worker{
		Capacity:        1 + rng.Intn(3),
		Accuracy:        make([]float64, chaosShardedCategories),
		Interest:        make([]float64, chaosShardedCategories),
		ReservationWage: 0.5 + rng.Float64(),
	}
	for c := range w.Accuracy {
		w.Accuracy[c] = 0.5 + 0.5*rng.Float64()
		w.Interest[c] = rng.Float64()
	}
	n := 1 + rng.Intn(3)
	for len(w.Specialties) < n {
		c := rng.Intn(chaosShardedCategories)
		dup := false
		for _, sp := range w.Specialties {
			if sp == c {
				dup = true
				break
			}
		}
		if !dup {
			w.Specialties = append(w.Specialties, c)
		}
	}
	return w
}

func chaosShardedTask(rng *stats.RNG) market.Task {
	return market.Task{
		Category:    rng.Intn(chaosShardedCategories),
		Replication: 1 + rng.Intn(2),
		Payment:     2 + 4*rng.Float64(),
		Difficulty:  0.2 + 0.5*rng.Float64(),
	}
}

func TestChaosShardedRounds(t *testing.T) {
	const (
		targetRounds = 120
		churners     = 3
		churnIters   = 400
	)
	seed := chaosSeed(t)

	// The journal fails in bursts of two (defeating MaxRetries 1), so
	// submits and round markers both fail now and then; every failure must
	// roll back cleanly.
	var buf bytes.Buffer
	flaky := faultinject.NewFlakyWriter(&buf, func(op int) bool { return op%17 < 2 })
	st, err := NewState(chaosShardedCategories)
	if err != nil {
		t.Fatal(err)
	}
	// Every partition gets its own degrader chain with its own panic
	// schedules — partitions solve concurrently and the round must absorb
	// a panicking partition (empty contribution, SolveError) without
	// failing.
	solvers := make([]core.Solver, chaosShardedShards)
	for k := range solvers {
		solvers[k] = core.NewDegrader(0,
			faultinject.NewPanicSolver(core.LocalSearch{Kind: core.MutualWeight}, faultinject.EveryNth(5+k)),
			faultinject.NewPanicSolver(core.Greedy{Kind: core.MutualWeight}, faultinject.EveryNth(11+k)),
		)
	}
	ss, err := NewPartitionedService(st, solvers, benefit.DefaultParams(),
		NewLogWithOptions(flaky, LogOptions{MaxRetries: 1, RetryBackoff: 50 * time.Microsecond}), seed)
	if err != nil {
		t.Fatal(err)
	}

	// profiles records every committed worker so merged rounds can be
	// capacity-checked; entries are never deleted (a removed worker must
	// simply stop appearing in pairs, which the ledger checks).
	var profMu sync.Mutex
	profiles := map[int]market.Worker{}
	recordWorker := func(id int, w market.Worker) {
		profMu.Lock()
		profiles[id] = w
		profMu.Unlock()
	}

	mustSubmit := func(e Event) Event {
		for {
			ev, err := ss.Submit(e)
			if err == nil {
				return ev
			}
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatal(err)
			}
		}
	}
	seedRNG := stats.NewRNG(seed + 7)
	for i := 0; i < 12; i++ {
		w := chaosShardedWorker(seedRNG)
		ev := mustSubmit(NewWorkerJoined(w))
		recordWorker(ev.Worker.ID, w)
		mustSubmit(NewTaskPosted(chaosShardedTask(seedRNG)))
	}

	ledger := newRemovalLedger()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < churners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := stats.NewRNG(seed + uint64(g) + 100)
			var myWorkers, myTasks []int
			for i := 0; i < churnIters; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch rng.Intn(4) {
				case 0:
					w := chaosShardedWorker(rng)
					if e, err := ss.Submit(NewWorkerJoined(w)); err == nil {
						recordWorker(e.Worker.ID, w)
						myWorkers = append(myWorkers, e.Worker.ID)
					}
				case 1:
					if e, err := ss.Submit(NewTaskPosted(chaosShardedTask(rng))); err == nil {
						myTasks = append(myTasks, e.Task.ID)
					}
				case 2:
					if len(myWorkers) > 1 {
						k := rng.Intn(len(myWorkers))
						id := myWorkers[k]
						if _, err := ss.Submit(NewWorkerLeft(id)); err == nil {
							ledger.markWorker(id)
							myWorkers = append(myWorkers[:k], myWorkers[k+1:]...)
						}
					}
				case 3:
					if len(myTasks) > 1 {
						k := rng.Intn(len(myTasks))
						id := myTasks[k]
						if _, err := ss.Submit(NewTaskClosed(id)); err == nil {
							ledger.markTask(id)
							myTasks = append(myTasks[:k], myTasks[k+1:]...)
						}
					}
				}
			}
		}(g)
	}

	rounds, failedRounds, degradedRounds := 0, 0, 0
	for rounds < targetRounds {
		deadWorkers, deadTasks := ledger.snapshot()
		res, err := ss.CloseRound()
		if err != nil {
			// Only the marker append can fail the round, and a failed
			// append rolls back, so Rounds() is untouched.
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("round failed for a non-injected reason: %v", err)
			}
			failedRounds++
			continue
		}
		rounds++
		if res.SolveError != "" {
			degradedRounds++
		}
		// Stale-assignment check (per entity) and merged feasibility check
		// (per spanning worker, across partition contributions).
		perWorker := map[int]int{}
		seenPair := map[[2]int]bool{}
		for _, pr := range res.Pairs {
			if deadWorkers[pr.WorkerID] {
				t.Fatalf("round %d assigned worker %d removed before the round began", rounds, pr.WorkerID)
			}
			if deadTasks[pr.TaskID] {
				t.Fatalf("round %d assigned task %d closed before the round began", rounds, pr.TaskID)
			}
			key := [2]int{pr.WorkerID, pr.TaskID}
			if seenPair[key] {
				t.Fatalf("round %d emitted duplicate pair (%d,%d)", rounds, pr.WorkerID, pr.TaskID)
			}
			seenPair[key] = true
			perWorker[pr.WorkerID]++
		}
		for wid, n := range perWorker {
			profMu.Lock()
			w, ok := profiles[wid]
			profMu.Unlock()
			if !ok {
				// The join committed but the churner hasn't recorded it yet
				// (Submit returns before recordWorker runs); read the profile
				// from the live state instead.  A worker that already left
				// again can't be capacity-checked — the ledger check above
				// already proved it wasn't removed before the round began.
				if w, ok = st.Worker(wid); !ok {
					continue
				}
			}
			if n > w.Capacity {
				t.Fatalf("round %d over-subscribed spanning worker %d: %d > %d", rounds, wid, n, w.Capacity)
			}
		}
	}
	close(stop)
	wg.Wait()

	if got := ss.Rounds(); got != rounds {
		t.Fatalf("service counts %d rounds, loop closed %d", got, rounds)
	}
	if flaky.Injections() == 0 {
		t.Fatal("chaos run injected no journal faults — schedule dead")
	}

	// The journal must be perfectly clean and replay to exactly the live
	// state: every failed append rolled back or retried into success.
	events, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("journal corrupt after chaos: %v", err)
	}
	replayed, err := Replay(chaosShardedCategories, events)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !bytes.Equal(stateBytes(t, replayed), stateBytes(t, st)) {
		t.Fatal("replayed journal diverges from live state")
	}
	t.Logf("partitioned chaos: %d rounds (%d marker failures retried, %d with a degraded partition), %d faults injected, %d events journaled",
		rounds, failedRounds, degradedRounds, flaky.Injections(), len(events))
}

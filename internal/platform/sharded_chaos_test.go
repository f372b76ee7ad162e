package platform

// Sharded chaos suite: ≥120 rounds over a 4-shard service with one shard's
// journal injecting fault bursts, every shard's solver panicking on its own
// schedule, and concurrent churn through the routing layer.  Picked up by
// `make chaos` alongside the single-market run.  A single flaky shard is the
// deliberate fault model: it exercises every sharded failure path — fan-out
// submit failure, cross-shard compensation, marker-commit failure, retry —
// while compensation itself always lands on clean journals, mirroring the
// single-machine-failure assumption the crash suite makes.

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
	chaosShardedFlakyShard = 1 // markers fail here; shards 2,3 never inflate
)

// chaosShardedWorker draws a worker profile spanning 1–3 of the 6
// categories, so a large fraction of the population is resident in several
// shards and the reconciliation + fan-out paths stay hot.
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

	// One shard's journal fails in bursts of two (defeating MaxRetries 1);
	// the rest are clean, so compensation for a partial fan-out is always
	// recoverable — the run must end with zero cross-shard inconsistency.
	var bufs [chaosShardedShards]bytes.Buffer
	var flaky *faultinject.FlakyWriter
	bundles := make([]Shard, chaosShardedShards)
	for k := range bundles {
		st, err := NewState(chaosShardedCategories)
		if err != nil {
			t.Fatal(err)
		}
		var w *faultinject.FlakyWriter
		if k == chaosShardedFlakyShard {
			w = faultinject.NewFlakyWriter(&bufs[k], func(op int) bool { return op%17 < 2 })
			flaky = w
		} else {
			w = faultinject.NewFlakyWriter(&bufs[k], func(int) bool { return false })
		}
		// Every shard gets its own degrader chain with its own panic
		// schedules — shards solve concurrently and the round must absorb a
		// panicking shard (empty contribution, SolveError) without failing.
		solver := core.NewDegrader(0,
			faultinject.NewPanicSolver(core.LocalSearch{Kind: core.MutualWeight}, faultinject.EveryNth(5+k)),
			faultinject.NewPanicSolver(core.Greedy{Kind: core.MutualWeight}, faultinject.EveryNth(11+k)),
		)
		bundles[k] = Shard{
			State:   st,
			Solver:  solver,
			Journal: NewLogWithOptions(w, LogOptions{MaxRetries: 1, RetryBackoff: 50 * time.Microsecond}),
		}
	}
	ss, err := NewShardedService(bundles, benefit.DefaultParams(), seed)
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
			// Only the flaky shard's marker append can fail the round; the
			// commit aborts there, so Rounds() (the min) is untouched.
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
		// (per spanning worker, across shard contributions).
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
				// from the live shards instead.  A worker that already left
				// again can't be capacity-checked — the ledger check above
				// already proved it wasn't removed before the round began.
				for k := 0; k < ss.NumShards() && !ok; k++ {
					w, ok = ss.ShardState(k).Worker(wid)
				}
				if !ok {
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

	// Every shard's journal must be perfectly clean and replay to exactly
	// that shard's live state — including the flaky one, whose failed
	// appends all rolled back or retried into success.  (Per-shard round
	// counters may legitimately exceed the service minimum: shards before
	// the flaky one keep their marker when a commit aborts.)
	totalEvents := 0
	for k := range bufs {
		events, err := ReadLog(bytes.NewReader(bufs[k].Bytes()))
		if err != nil {
			t.Fatalf("shard %d journal corrupt after chaos: %v", k, err)
		}
		totalEvents += len(events)
		replayed, err := Replay(chaosShardedCategories, events)
		if err != nil {
			t.Fatalf("shard %d replay: %v", k, err)
		}
		if !bytes.Equal(stateBytes(t, replayed), stateBytes(t, ss.ShardState(k))) {
			t.Fatalf("shard %d: replayed journal diverges from live state", k)
		}
		if r := ss.ShardState(k).Rounds(); r < rounds {
			t.Fatalf("shard %d committed %d rounds, service closed %d", k, r, rounds)
		}
	}
	t.Logf("sharded chaos: %d rounds (%d marker failures retried, %d with a degraded shard), %d faults injected on shard %d, %d events across %d journals",
		rounds, failedRounds, degradedRounds, flaky.Injections(), chaosShardedFlakyShard, totalEvents, chaosShardedShards)
}

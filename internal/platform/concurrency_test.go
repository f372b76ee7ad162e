package platform

import (
	"bytes"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/stats"
)

// TestServiceConcurrentMutationsAndRounds hammers the service with
// mutations from many goroutines while rounds close concurrently, then
// checks the two invariants the snapshot-solve-commit protocol and the
// atomic apply-and-append must preserve:
//
//   - no lost or reordered events: the journal holds exactly one line per
//     successful Submit, in strictly increasing sequence order (ReadLog
//     rejects anything else);
//   - journal/state equivalence: replaying the journal into a fresh state
//     reproduces the live state exactly.
//
// Run under -race (the Makefile verify gate does) this is also the data
// race test for the round protocol.
func TestServiceConcurrentMutationsAndRounds(t *testing.T) {
	var buf bytes.Buffer
	svc := mustService(t, NewLog(&buf))

	const (
		goroutines = 8
		iterations = 40
		rounds     = 6
	)
	var succeeded atomic.Int64
	submit := func(e Event) bool {
		if _, err := svc.Submit(e); err != nil {
			return false
		}
		succeeded.Add(1)
		return true
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				wEv, err := svc.Submit(NewWorkerJoined(validWorker()))
				if err != nil {
					t.Error(err)
					return
				}
				succeeded.Add(1)
				tEv, err := svc.Submit(NewTaskPosted(validTask()))
				if err != nil {
					t.Error(err)
					return
				}
				succeeded.Add(1)
				// Churn: remove some of what this goroutine created — no other
				// goroutine touches these IDs, so success is deterministic.
				if i%3 == 0 {
					if !submit(NewWorkerLeft(wEv.Worker.ID)) {
						t.Errorf("worker %d could not leave", wEv.Worker.ID)
						return
					}
				}
				if i%4 == 0 {
					if !submit(NewTaskClosed(tEv.Task.ID)) {
						t.Errorf("task %d could not close", tEv.Task.ID)
						return
					}
				}
			}
		}(g)
	}

	roundErr := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			if _, err := svc.CloseRound(); err != nil {
				roundErr <- err
				return
			}
		}
		roundErr <- nil
	}()

	wg.Wait()
	if err := <-roundErr; err != nil {
		t.Fatalf("CloseRound: %v", err)
	}
	if t.Failed() {
		return
	}

	// ReadLog enforces strictly increasing sequence numbers, so a torn or
	// interleaved append fails right here.
	events, err := ReadLog(&buf)
	if err != nil {
		t.Fatalf("journal corrupted: %v", err)
	}
	want := int(succeeded.Load()) + rounds // one marker per round
	if len(events) != want {
		t.Fatalf("journal has %d events, want %d (no lost or duplicated writes)", len(events), want)
	}

	replayed, err := Replay(svc.State().NumCategories(), events)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	gotW, gotT := svc.State().Counts()
	repW, repT := replayed.Counts()
	if gotW != repW || gotT != repT {
		t.Fatalf("replayed counts (%d workers, %d tasks) != live (%d, %d)", repW, repT, gotW, gotT)
	}
	if svc.State().Rounds() != replayed.Rounds() {
		t.Fatalf("replayed rounds %d != live %d", replayed.Rounds(), svc.State().Rounds())
	}
	liveIn, liveWIDs, liveTIDs := svc.State().Snapshot()
	repIn, repWIDs, repTIDs := replayed.Snapshot()
	if !reflect.DeepEqual(liveWIDs, repWIDs) || !reflect.DeepEqual(liveTIDs, repTIDs) {
		t.Fatal("replayed identity mappings differ from live state")
	}
	if !reflect.DeepEqual(liveIn, repIn) {
		t.Fatal("replayed snapshot differs from live state")
	}
}

// gatedSolver wraps an inner solver with a handshake: Solve signals entry,
// then blocks until released.  It lets a test hold a round open mid-solve
// at a deterministic point.
type gatedSolver struct {
	inner    core.Solver
	entered  chan struct{}
	released chan struct{}
}

func (g *gatedSolver) Name() string { return "gated-" + g.inner.Name() }

func (g *gatedSolver) Solve(p *core.Problem, r *stats.RNG) ([]int, error) {
	close(g.entered)
	<-g.released
	return g.inner.Solve(p, r)
}

// TestCloseRoundDoesNotBlockSubmits pins the headline property of the
// round protocol — a slow solve holds no lock the ingestion path needs —
// and the commit-time validation: entities removed mid-solve are dropped
// from the result as stale rather than assigned.
func TestCloseRoundDoesNotBlockSubmits(t *testing.T) {
	state := mustState(t)
	gate := &gatedSolver{
		inner:    core.Greedy{Kind: core.MutualWeight},
		entered:  make(chan struct{}),
		released: make(chan struct{}),
	}
	svc, err := NewService(state, gate, benefit.DefaultParams(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	var workerIDs []int
	for i := 0; i < 4; i++ {
		ev, err := svc.Submit(NewWorkerJoined(validWorker()))
		if err != nil {
			t.Fatal(err)
		}
		workerIDs = append(workerIDs, ev.Worker.ID)
	}
	for i := 0; i < 3; i++ {
		if _, err := svc.Submit(NewTaskPosted(validTask())); err != nil {
			t.Fatal(err)
		}
	}

	type roundOut struct {
		res *RoundResult
		err error
	}
	done := make(chan roundOut, 1)
	go func() {
		res, err := svc.CloseRound()
		done <- roundOut{res, err}
	}()

	// The solver is now provably mid-round.  Every mutation below must
	// complete while it is still blocked; if the round held a lock the
	// ingestion path needs, these Submits would deadlock the test.
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("solver never entered")
	}
	if _, err := svc.Submit(NewWorkerJoined(validWorker())); err != nil {
		t.Fatalf("submit during round: %v", err)
	}
	// Remove every worker the snapshot saw: all solved pairs become stale.
	for _, id := range workerIDs {
		if _, err := svc.Submit(NewWorkerLeft(id)); err != nil {
			t.Fatalf("worker %d leave during round: %v", id, err)
		}
	}
	close(gate.released)

	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if len(out.res.Pairs) != 0 {
		t.Fatalf("round committed %d pairs against departed workers", len(out.res.Pairs))
	}
	if out.res.StalePairs == 0 {
		t.Fatal("expected stale pairs after removing all snapshot workers mid-solve")
	}
	if out.res.Metrics.Pairs != out.res.StalePairs {
		t.Fatalf("metrics report %d assigned but %d went stale", out.res.Metrics.Pairs, out.res.StalePairs)
	}
}

// TestRoundsLeaveWorkerProfilesUntouched holds the State invariant that
// profiles are immutable once applied: snapshots share the state's
// profile slices, so a solver or a concurrent apply that wrote one would
// change the stored profile.  Rounds close with each solver family while
// joins land concurrently; under -race a write racing a snapshot read is
// also a reported race.
func TestRoundsLeaveWorkerProfilesUntouched(t *testing.T) {
	for _, name := range []string{"greedy", "exact", "local-search", "incremental"} {
		t.Run(name, func(t *testing.T) {
			solver, err := core.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			svc, err := NewService(mustState(t), solver, benefit.DefaultParams(), nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			want := map[int]market.Worker{} // deep copies, taken before submit
			join := func(rng *stats.RNG) {
				w := market.Worker{
					Capacity:        1 + rng.Intn(3),
					Accuracy:        make([]float64, 3),
					Interest:        make([]float64, 3),
					Specialties:     rng.Perm(3)[:1+rng.Intn(3)],
					ReservationWage: 2 * rng.Float64(),
				}
				for c := range w.Accuracy {
					w.Accuracy[c] = 0.5 + 0.45*rng.Float64()
					w.Interest[c] = rng.Float64()
				}
				cp := w
				cp.Accuracy = slices.Clone(w.Accuracy)
				cp.Interest = slices.Clone(w.Interest)
				cp.Specialties = slices.Clone(w.Specialties)
				e, err := svc.Submit(NewWorkerJoined(w))
				if err != nil {
					t.Error(err)
					return
				}
				cp.ID = e.Worker.ID
				mu.Lock()
				want[cp.ID] = cp
				mu.Unlock()
			}
			rng := stats.NewRNG(3)
			for i := 0; i < 20; i++ {
				join(rng)
				task := market.Task{Category: rng.Intn(3), Replication: 1 + rng.Intn(2), Payment: 1 + 9*rng.Float64(), Difficulty: 0.5 * rng.Float64()}
				if _, err := svc.Submit(NewTaskPosted(task)); err != nil {
					t.Fatal(err)
				}
			}

			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				jr := stats.NewRNG(4)
				for i := 0; i < 40; i++ {
					join(jr)
				}
			}()
			for r := 0; r < 8; r++ {
				if _, err := svc.CloseRound(); err != nil {
					t.Fatal(err)
				}
			}
			wg.Wait()
			if _, err := svc.CloseRound(); err != nil {
				t.Fatal(err)
			}

			if len(want) != 60 {
				t.Fatalf("%d joins recorded, want 60", len(want))
			}
			for id, w := range want {
				got, ok := svc.State().Worker(id)
				if !ok {
					t.Fatalf("worker %d missing", id)
				}
				if !reflect.DeepEqual(got, w) {
					t.Fatalf("worker %d profile changed:\n got %+v\nwant %+v", id, got, w)
				}
			}
		})
	}
}

package core

import (
	"testing"
	"testing/quick"

	"repro/internal/benefit"
	"repro/internal/market"
	"repro/internal/stats"
)

// incWorker builds a worker profile over 3 categories from an RNG.
func incWorker(r *stats.RNG) market.Worker {
	w := market.Worker{
		Capacity:        r.IntRange(1, 3),
		Accuracy:        make([]float64, 3),
		Interest:        make([]float64, 3),
		ReservationWage: r.Float64Range(0, 3),
	}
	for c := 0; c < 3; c++ {
		w.Accuracy[c] = r.Float64Range(0.5, 0.95)
		w.Interest[c] = r.Float64()
	}
	n := r.IntRange(1, 3)
	w.Specialties = r.Perm(3)[:n]
	return w
}

// incTask builds a task from an RNG.
func incTask(r *stats.RNG) market.Task {
	return market.Task{
		Category:    r.Intn(3),
		Replication: r.IntRange(1, 3),
		Payment:     r.Float64Range(0, 10),
		Difficulty:  r.Float64Range(0, 0.8),
	}
}

func newInc(t *testing.T) *Incremental {
	t.Helper()
	inc, err := NewIncremental(3, 10, benefit.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return inc
}

func TestNewIncrementalValidation(t *testing.T) {
	if _, err := NewIncremental(0, 10, benefit.DefaultParams()); err == nil {
		t.Fatal("zero categories accepted")
	}
	if _, err := NewIncremental(3, 0, benefit.DefaultParams()); err == nil {
		t.Fatal("zero pay scale accepted")
	}
	if _, err := NewIncremental(3, 10, benefit.Params{Lambda: 9}); err == nil {
		t.Fatal("bad params accepted")
	}
}

func TestIncrementalAddAssignsImmediately(t *testing.T) {
	inc := newInc(t)
	r := stats.NewRNG(1)
	tid, err := inc.AddTask(incTask(r))
	if err != nil {
		t.Fatal(err)
	}
	if len(inc.Pairs()) != 0 {
		t.Fatal("task assigned with no workers")
	}
	w := incWorker(r)
	w.Specialties = []int{inc.inst.Tasks[tid].Category} // guarantee eligibility
	if _, err := inc.AddWorker(w); err != nil {
		t.Fatal(err)
	}
	if len(inc.Pairs()) == 0 {
		t.Fatal("eligible worker not assigned on join")
	}
	if err := inc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalRemoveWorkerRefills(t *testing.T) {
	inc := newInc(t)
	// One task with one slot, two eligible workers: removing the assigned
	// worker must hand the slot to the other.
	task := market.Task{Category: 0, Replication: 1, Payment: 5, Difficulty: 0}
	if _, err := inc.AddTask(task); err != nil {
		t.Fatal(err)
	}
	mkWorker := func(interest float64) market.Worker {
		return market.Worker{
			Capacity:    1,
			Accuracy:    []float64{0.8, 0.6, 0.6},
			Interest:    []float64{interest, 0, 0},
			Specialties: []int{0},
		}
	}
	strong, err := inc.AddWorker(mkWorker(0.9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.AddWorker(mkWorker(0.5)); err != nil {
		t.Fatal(err)
	}
	pairs := inc.Pairs()
	if len(pairs) != 1 || pairs[0][0] != strong {
		t.Fatalf("expected strong worker assigned, got %v", pairs)
	}
	if err := inc.RemoveWorker(strong); err != nil {
		t.Fatal(err)
	}
	pairs = inc.Pairs()
	if len(pairs) != 1 || pairs[0][0] == strong {
		t.Fatalf("slot not refilled by the other worker: %v", pairs)
	}
	if err := inc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalErrors(t *testing.T) {
	inc := newInc(t)
	if err := inc.RemoveWorker(0); err == nil {
		t.Fatal("removing unknown worker accepted")
	}
	if _, err := inc.AddWorker(market.Worker{Capacity: -1}); err == nil {
		t.Fatal("bad worker accepted")
	}
	if _, err := inc.AddTask(market.Task{Category: 9, Replication: 1}); err == nil {
		t.Fatal("bad task accepted")
	}
	wid, _ := inc.AddWorker(incWorker(stats.NewRNG(1)))
	if err := inc.RemoveWorker(wid); err != nil {
		t.Fatal(err)
	}
	if err := inc.RemoveWorker(wid); err == nil {
		t.Fatal("double remove accepted")
	}
}

// Property: any event sequence leaves the structure feasible, maximal and
// with a consistent cached value.
func TestQuickIncrementalInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		inc, err := NewIncremental(3, 10, benefit.DefaultParams())
		if err != nil {
			return false
		}
		var workerIDs []int
		for step := 0; step < 40; step++ {
			switch r.Intn(3) {
			case 0:
				id, err := inc.AddWorker(incWorker(r))
				if err != nil {
					return false
				}
				workerIDs = append(workerIDs, id)
			case 1:
				if _, err := inc.AddTask(incTask(r)); err != nil {
					return false
				}
			case 2:
				if len(workerIDs) > 0 {
					i := r.Intn(len(workerIDs))
					if err := inc.RemoveWorker(workerIDs[i]); err != nil {
						return false
					}
					workerIDs = append(workerIDs[:i], workerIDs[i+1:]...)
				}
			}
			if err := inc.CheckInvariants(); err != nil {
				t.Logf("seed %d step %d: %v", seed, step, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// The repair-greedy value should track batch greedy on the same final
// market within a reasonable factor (aggregate across seeds).
func TestIncrementalTracksBatchGreedy(t *testing.T) {
	var incSum, batchSum float64
	for seed := uint64(1); seed <= 6; seed++ {
		r := stats.NewRNG(seed)
		inc, _ := NewIncremental(3, 10, benefit.DefaultParams())
		type liveW struct {
			id int
			w  market.Worker
		}
		type liveT struct {
			id int
			tk market.Task
		}
		var lw []liveW
		var lt []liveT
		for step := 0; step < 60; step++ {
			switch r.Intn(5) {
			case 0, 1:
				w := incWorker(r)
				id, _ := inc.AddWorker(w)
				lw = append(lw, liveW{id, w})
			case 2, 3:
				tk := incTask(r)
				id, _ := inc.AddTask(tk)
				lt = append(lt, liveT{id, tk})
			case 4:
				if len(lw) > 1 {
					i := r.Intn(len(lw))
					inc.RemoveWorker(lw[i].id)
					lw = append(lw[:i], lw[i+1:]...)
				}
			}
		}
		// Rebuild the final market as a batch instance.
		in := &market.Instance{Name: "final", NumCategories: 3, MaxPayment: 10}
		for i, e := range lw {
			w := e.w
			w.ID = i
			in.Workers = append(in.Workers, w)
		}
		for j, e := range lt {
			tk := e.tk
			tk.ID = j
			in.Tasks = append(in.Tasks, tk)
		}
		if len(in.Workers) == 0 || len(in.Tasks) == 0 {
			continue
		}
		if err := in.Validate(); err != nil {
			t.Fatal(err)
		}
		p := MustNewProblem(in, benefit.DefaultParams())
		gSel, _ := (Greedy{Kind: MutualWeight}).Solve(p, nil)
		incSum += inc.Value()
		batchSum += p.Evaluate(gSel).TotalMutual
	}
	if incSum < 0.85*batchSum {
		t.Fatalf("incremental value %v fell below 85%% of batch greedy %v", incSum, batchSum)
	}
}

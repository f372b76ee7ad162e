package core

import (
	"testing"
	"testing/quick"

	"repro/internal/benefit"
	"repro/internal/market"
	"repro/internal/stats"
)

func TestStableMatchingFeasible(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		p := smallProblem(t, seed)
		sel, err := (StableMatching{}).Solve(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Feasible(sel); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestStableMatchingHasNoBlockingPairs(t *testing.T) {
	// The defining property of deferred acceptance.
	for seed := uint64(1); seed <= 15; seed++ {
		p := smallProblem(t, seed)
		sel, err := (StableMatching{}).Solve(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if bp := BlockingPairs(p, sel); bp != 0 {
			t.Fatalf("seed %d: stable matching has %d blocking pairs", seed, bp)
		}
	}
}

func TestStableMatchingClassicInstance(t *testing.T) {
	// 2 workers, 2 tasks, conflicting preferences: worker 0 wants task 0
	// (higher interest) but task 0 prefers worker 1 (higher accuracy), and
	// vice versa.  Worker-proposing DA yields the worker-optimal stable
	// matching.
	in := &market.Instance{
		Name:          "conflict",
		NumCategories: 2,
		Workers: []market.Worker{
			{ID: 0, Capacity: 1, Accuracy: []float64{0.6, 0.9}, Interest: []float64{0.9, 0.1}, Specialties: []int{0, 1}},
			{ID: 1, Capacity: 1, Accuracy: []float64{0.9, 0.6}, Interest: []float64{0.1, 0.9}, Specialties: []int{0, 1}},
		},
		Tasks: []market.Task{
			{ID: 0, Category: 0, Replication: 1, Payment: 1, Difficulty: 0},
			{ID: 1, Category: 1, Replication: 1, Payment: 1, Difficulty: 0},
		},
		MaxPayment: 1,
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	// Beta 0: worker pref = interest alone.
	p := MustNewProblem(in, benefit.Params{Lambda: 0.5, Beta: 0})
	sel, err := (StableMatching{}).Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 {
		t.Fatalf("expected full matching, got %v", sel)
	}
	// Worker-optimal: each worker gets its first choice (w0→t0, w1→t1),
	// because in this instance that is stable: t0 holding w0 would prefer
	// w1, but w1 prefers its own t1 → no blocking pair.
	for _, ei := range sel {
		if p.W[ei] != p.T[ei] {
			t.Fatalf("expected diagonal worker-optimal matching, got pair (%d,%d)", p.W[ei], p.T[ei])
		}
	}
	if bp := BlockingPairs(p, sel); bp != 0 {
		t.Fatalf("blocking pairs = %d", bp)
	}
}

func TestStableMatchingWithReplication(t *testing.T) {
	// One task with two slots, three workers: the two highest-quality
	// proposers must hold the slots.
	in := &market.Instance{
		Name:          "slots",
		NumCategories: 1,
		Workers: []market.Worker{
			{ID: 0, Capacity: 1, Accuracy: []float64{0.6}, Interest: []float64{1}, Specialties: []int{0}},
			{ID: 1, Capacity: 1, Accuracy: []float64{0.9}, Interest: []float64{1}, Specialties: []int{0}},
			{ID: 2, Capacity: 1, Accuracy: []float64{0.8}, Interest: []float64{1}, Specialties: []int{0}},
		},
		Tasks: []market.Task{
			{ID: 0, Category: 0, Replication: 2, Payment: 1, Difficulty: 0},
		},
		MaxPayment: 1,
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	p := MustNewProblem(in, benefit.DefaultParams())
	sel, err := (StableMatching{}).Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 {
		t.Fatalf("slots not filled: %v", sel)
	}
	got := map[int]bool{}
	for _, ei := range sel {
		got[int(p.W[ei])] = true
	}
	if !got[1] || !got[2] {
		t.Fatalf("wrong workers held: %v", got)
	}
}

func TestEfficientAlgorithmsLeaveBlockingPairs(t *testing.T) {
	// Across seeds, the benefit-maximising exact assignment should leave
	// at least one blocking pair somewhere — otherwise the stability
	// experiment is vacuous.
	total := 0
	for seed := uint64(1); seed <= 10; seed++ {
		p := smallProblem(t, seed)
		sel, _ := (Exact{Kind: MutualWeight}).Solve(p, nil)
		total += BlockingPairs(p, sel)
	}
	if total == 0 {
		t.Fatal("exact never produced a blocking pair across 10 seeds")
	}
}

func TestStableMatchingEmptyAndDeterministic(t *testing.T) {
	pe := MustNewProblem(emptyMarket(), benefit.DefaultParams())
	sel, err := (StableMatching{}).Solve(pe, nil)
	if err != nil || len(sel) != 0 {
		t.Fatalf("empty: %v %v", sel, err)
	}
	p := smallProblem(t, 9)
	a, _ := (StableMatching{}).Solve(p, stats.NewRNG(1))
	b, _ := (StableMatching{}).Solve(p, stats.NewRNG(2))
	if len(a) != len(b) {
		t.Fatal("stable matching not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("stable matching not deterministic")
		}
	}
}

// Property: stability holds on arbitrary random instances.
func TestQuickStableNoBlockingPairs(t *testing.T) {
	f := func(seed uint64) bool {
		in, err := market.Generate(market.Config{NumWorkers: 15, NumTasks: 15}, seed)
		if err != nil {
			return false
		}
		p, err := NewProblem(in, benefit.DefaultParams())
		if err != nil {
			return false
		}
		sel, err := (StableMatching{}).Solve(p, nil)
		if err != nil || p.Feasible(sel) != nil {
			return false
		}
		return BlockingPairs(p, sel) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

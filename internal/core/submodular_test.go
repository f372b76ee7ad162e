package core

import (
	"math"
	"testing"

	"repro/internal/benefit"
	"repro/internal/market"
	"repro/internal/stats"
)

func TestSubmodularValueEmptyAndMonotone(t *testing.T) {
	p := smallProblem(t, 21)
	if v := p.SubmodularValue(nil); v != 0 {
		t.Fatalf("empty value = %v", v)
	}
	// Adding edges never decreases the objective (worker part only grows;
	// quality part is clamped-monotone via majority prob ≥ 0.5 per panel...
	// majority prob can dip below the previous *panel* value but never below
	// 0.5, and here we compare cumulative selections).
	gSel, _ := (Greedy{Kind: MutualWeight}).Solve(p, nil)
	prev := 0.0
	for i := 1; i <= len(gSel); i++ {
		v := p.SubmodularValue(gSel[:i])
		// The worker part strictly grows; quality can locally dip when an
		// even panel forms, so allow a small tolerance relative to the
		// (1-λ)·B gain floor.
		if v < prev-0.5 {
			t.Fatalf("value collapsed at prefix %d: %v after %v", i, v, prev)
		}
		prev = v
	}
}

func TestSubmodularGreedyFeasibleAndCompetitive(t *testing.T) {
	// Greedy is a ½-approximation, so random can edge past it on a lucky
	// single seed; the comparison is therefore aggregated over seeds.
	var sgSum, rvSum float64
	for seed := uint64(1); seed <= 10; seed++ {
		p := smallProblem(t, seed)
		sel, err := (SubmodularGreedy{}).Solve(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Feasible(sel); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rSel, _ := (Random{}).Solve(p, stats.NewRNG(seed))
		sgSum += p.SubmodularValue(sel)
		rvSum += p.SubmodularValue(rSel)
	}
	if sgSum <= rvSum {
		t.Fatalf("submodular greedy total %v did not beat random %v", sgSum, rvSum)
	}
}

func TestSubmodularGreedyBeatsLinearGreedyOnItsObjective(t *testing.T) {
	// Aggregate across seeds: optimising the true diminishing-returns
	// objective should (weakly) beat optimising the linear surrogate.
	var sgSum, linSum float64
	for seed := uint64(1); seed <= 10; seed++ {
		in := market.MustGenerate(market.MicrotaskTraceConfig(40, 25), seed)
		p := MustNewProblem(in, benefit.DefaultParams())
		sgSel, _ := (SubmodularGreedy{}).Solve(p, nil)
		linSel, _ := (Greedy{Kind: MutualWeight}).Solve(p, nil)
		sgSum += p.SubmodularValue(sgSel)
		linSum += p.SubmodularValue(linSel)
	}
	if sgSum < linSum*0.98 {
		t.Fatalf("submodular greedy (%v) clearly lost to linear greedy (%v) on MBA-S", sgSum, linSum)
	}
}

func TestSubmodularGreedyDiversifiesPanels(t *testing.T) {
	// One task with replication 3, four workers of equal high accuracy but
	// different interest.  The linear greedy and the submodular greedy both
	// fill the panel; check panel size is capped by replication.
	in := &market.Instance{
		Name:          "panel",
		NumCategories: 1,
		Workers: []market.Worker{
			{ID: 0, Capacity: 1, Accuracy: []float64{0.8}, Interest: []float64{0.9}, Specialties: []int{0}},
			{ID: 1, Capacity: 1, Accuracy: []float64{0.8}, Interest: []float64{0.7}, Specialties: []int{0}},
			{ID: 2, Capacity: 1, Accuracy: []float64{0.8}, Interest: []float64{0.5}, Specialties: []int{0}},
			{ID: 3, Capacity: 1, Accuracy: []float64{0.8}, Interest: []float64{0.3}, Specialties: []int{0}},
		},
		Tasks: []market.Task{
			{ID: 0, Category: 0, Replication: 3, Payment: 1, Difficulty: 0},
		},
		MaxPayment: 1,
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	p := MustNewProblem(in, benefit.DefaultParams())
	sel, err := (SubmodularGreedy{}).Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 3 {
		t.Fatalf("panel size = %d, want 3", len(sel))
	}
	// The three highest-interest workers should be chosen (equal accuracy,
	// so worker utility breaks ties).
	chosen := map[int]bool{}
	for _, ei := range sel {
		chosen[int(p.W[ei])] = true
	}
	if !chosen[0] || !chosen[1] || !chosen[2] {
		t.Fatalf("chose %v, want workers 0,1,2", chosen)
	}
}

func TestSubmodularValueMatchesHandComputation(t *testing.T) {
	in := &market.Instance{
		Name:          "hand",
		NumCategories: 1,
		Workers: []market.Worker{
			{ID: 0, Capacity: 1, Accuracy: []float64{0.8}, Interest: []float64{1}, Specialties: []int{0}},
			{ID: 1, Capacity: 1, Accuracy: []float64{0.6}, Interest: []float64{1}, Specialties: []int{0}},
		},
		Tasks: []market.Task{
			{ID: 0, Category: 0, Replication: 2, Payment: 0, Difficulty: 0},
		},
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	// Beta=1 (money only, payment 0 → B=0), lambda=0.5.
	p := MustNewProblem(in, benefit.Params{Lambda: 0.5, Beta: 1})
	sel := []int{0, 1}
	if err := p.Feasible(sel); err != nil {
		t.Fatal(err)
	}
	// Panel {0.8, 0.6}: majority prob = both right + half of one-right
	// = 0.48 + 0.5·(0.8·0.4 + 0.2·0.6) = 0.48 + 0.22 = 0.70.
	// Quality part = 2·(0.70−0.5) = 0.4; objective = 0.5·0.4 + 0.5·0 = 0.2.
	got := p.SubmodularValue(sel)
	if math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("value = %v, want 0.2", got)
	}
}

package core

import (
	"testing"

	"repro/internal/benefit"
	"repro/internal/market"
	"repro/internal/stats"
)

func TestOnlineSolversFeasible(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		p := smallProblem(t, seed)
		for _, s := range []Solver{
			OnlineGreedy{Kind: MutualWeight},
			OnlineRanking{Kind: MutualWeight},
			OnlineTwoPhase{Kind: MutualWeight},
		} {
			sel, err := s.Solve(p, stats.NewRNG(seed))
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if err := p.Feasible(sel); err != nil {
				t.Fatalf("%s seed %d: %v", s.Name(), seed, err)
			}
		}
	}
}

func TestOnlineBoundedByOffline(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		p := smallProblem(t, seed)
		eSel, _ := (Exact{Kind: MutualWeight}).Solve(p, nil)
		opt := p.Evaluate(eSel).TotalMutual
		for _, s := range []Solver{
			OnlineGreedy{Kind: MutualWeight},
			OnlineRanking{Kind: MutualWeight},
			OnlineTwoPhase{Kind: MutualWeight},
		} {
			sel, _ := s.Solve(p, stats.NewRNG(seed))
			if got := p.Evaluate(sel).TotalMutual; got > opt+1e-6 {
				t.Fatalf("%s beat offline optimum: %v > %v", s.Name(), got, opt)
			}
		}
	}
}

func TestOnlineGreedyCompetitiveInPractice(t *testing.T) {
	// Average competitive ratio over random orders should clear 0.5 — the
	// worst-case bound — comfortably on random-order instances.
	var onSum, optSum float64
	for seed := uint64(1); seed <= 20; seed++ {
		p := smallProblem(t, seed)
		eSel, _ := (Exact{Kind: MutualWeight}).Solve(p, nil)
		oSel, _ := (OnlineGreedy{Kind: MutualWeight}).Solve(p, stats.NewRNG(seed))
		onSum += p.Evaluate(oSel).TotalMutual
		optSum += p.Evaluate(eSel).TotalMutual
	}
	if ratio := onSum / optSum; ratio < 0.6 {
		t.Fatalf("online greedy average ratio %v below 0.6", ratio)
	}
}

func TestOnlineTwoPhaseFallback(t *testing.T) {
	// With an extreme quantile the threshold is near the max observed value;
	// phase-2 workers must still get their single-best fallback edge, so
	// coverage should not collapse to the sample fraction.
	p := smallProblem(t, 31)
	sel, err := (OnlineTwoPhase{Kind: MutualWeight, ThresholdQuantile: 0.99}).
		Solve(p, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Feasible(sel); err != nil {
		t.Fatal(err)
	}
	active := map[int]bool{}
	for _, ei := range sel {
		active[int(p.W[ei])] = true
	}
	if len(active) < p.In.NumWorkers()/3 {
		t.Fatalf("only %d/%d workers active despite fallback", len(active), p.In.NumWorkers())
	}
}

func TestOnlineTwoPhaseDefaults(t *testing.T) {
	// Invalid knob values fall back to defaults rather than failing.
	p := smallProblem(t, 32)
	for _, s := range []OnlineTwoPhase{
		{Kind: MutualWeight, SampleFrac: -1, ThresholdQuantile: -2},
		{Kind: MutualWeight, SampleFrac: 1.5, ThresholdQuantile: 2},
	} {
		sel, err := s.Solve(p, stats.NewRNG(3))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Feasible(sel); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOnlineArrivalOrderMatters(t *testing.T) {
	// Different RNG seeds permute arrivals, which should usually change the
	// achieved value — evidence the solver actually processes arrivals
	// sequentially rather than solving offline.
	p := smallProblem(t, 33)
	values := map[float64]bool{}
	for seed := uint64(1); seed <= 8; seed++ {
		sel, _ := (OnlineGreedy{Kind: MutualWeight}).Solve(p, stats.NewRNG(seed))
		values[p.Evaluate(sel).TotalMutual] = true
	}
	if len(values) < 2 {
		t.Fatal("online greedy value identical across 8 arrival orders")
	}
}

func TestOnlineZeroCapacityWorkers(t *testing.T) {
	in := market.MustGenerate(market.Config{NumWorkers: 10, NumTasks: 10}, 34)
	in.Workers[0].Capacity = 0
	in.Workers[5].Capacity = 0
	p := MustNewProblem(in, benefit.DefaultParams())
	for _, s := range []Solver{
		OnlineGreedy{Kind: MutualWeight},
		OnlineRanking{Kind: MutualWeight},
		OnlineTwoPhase{Kind: MutualWeight},
	} {
		sel, err := s.Solve(p, stats.NewRNG(1))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		for _, ei := range sel {
			if w := p.W[ei]; w == 0 || w == 5 {
				t.Fatalf("%s assigned zero-capacity worker %d", s.Name(), w)
			}
		}
	}
}

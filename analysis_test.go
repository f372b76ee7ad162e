package mba

import (
	"testing"
)

func TestAssignWithSLA(t *testing.T) {
	in := FreelanceTrace(60, 50, 1)
	base, err := Assign(in, DefaultParams(), "greedy", 1)
	if err != nil {
		t.Fatal(err)
	}
	sla, err := AssignWithSLA(in, DefaultParams(), "greedy", 0.6, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range sla.Pairs {
		if pr.Quality < 0.6 {
			t.Fatalf("pair below SLA: %+v", pr)
		}
	}
	if len(sla.Pairs) > len(base.Pairs) {
		t.Fatal("SLA increased coverage")
	}
	if _, err := AssignWithSLA(in, DefaultParams(), "greedy", 2, 1); err == nil {
		t.Fatal("bad SLA accepted")
	}
	if _, err := AssignWithSLA(in, DefaultParams(), "nope", 0.5, 1); err == nil {
		t.Fatal("bad algorithm accepted")
	}
}

func TestStabilityFacade(t *testing.T) {
	in := FreelanceTrace(50, 40, 2)
	stable, err := Assign(in, DefaultParams(), "stable-matching", 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Stability(in, DefaultParams(), stable)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlockingPairs != 0 {
		t.Fatalf("stable matching reported %d blocking pairs", rep.BlockingPairs)
	}
	if rep.EligiblePairs == 0 {
		t.Fatal("no eligible pairs reported")
	}
	exact, err := Assign(in, DefaultParams(), "exact", 2)
	if err != nil {
		t.Fatal(err)
	}
	repE, err := Stability(in, DefaultParams(), exact)
	if err != nil {
		t.Fatal(err)
	}
	if repE.BlockingPairs == 0 {
		t.Log("exact happened to be stable on this instance (rare but possible)")
	}
}

func TestStabilityRejectsForeignResult(t *testing.T) {
	in := FreelanceTrace(20, 20, 3)
	bogus := &Result{Pairs: []Pair{{Worker: 0, Task: 0}}}
	// (0,0) may or may not be eligible; build a surely-foreign pair.
	bogus.Pairs[0] = Pair{Worker: 19, Task: 19}
	if _, err := Stability(in, DefaultParams(), bogus); err == nil {
		// It could be eligible by luck; force an out-of-range pair instead.
		bogus.Pairs[0] = Pair{Worker: 999, Task: 0}
		if _, err := Stability(in, DefaultParams(), bogus); err == nil {
			t.Fatal("foreign pair accepted")
		}
	}
}

func TestByCategoryFacade(t *testing.T) {
	in := MicrotaskTrace(60, 40, 4)
	res, err := Assign(in, DefaultParams(), "greedy", 4)
	if err != nil {
		t.Fatal(err)
	}
	reps, err := ByCategory(in, DefaultParams(), res)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != in.NumCategories {
		t.Fatalf("reports = %d", len(reps))
	}
	filled := 0
	for _, r := range reps {
		filled += r.Filled
	}
	if filled != len(res.Pairs) {
		t.Fatalf("category fills %d != pairs %d", filled, len(res.Pairs))
	}
}

func TestRetentionCurveFacade(t *testing.T) {
	solver, _ := NewSolver("greedy")
	cfg := DynamicsConfig{
		Rounds: 5,
		Market: MarketConfig{NumWorkers: 40, NumTasks: 30},
		Params: DefaultParams(),
		Solver: solver,
	}
	curve, err := RetentionCurve(cfg, []float64{0.5, 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 2 {
		t.Fatalf("curve = %v", curve)
	}
}

func TestClusteredMarketFacade(t *testing.T) {
	in := ClusteredMarket(50, 30, 0.2, 6)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Assign(in, DefaultParams(), "greedy", 6); err != nil {
		t.Fatal(err)
	}
}

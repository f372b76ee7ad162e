package mba_test

// Testable godoc examples for the public façade.  They double as
// documentation on pkg.go.dev-style doc pages and as regression tests for
// the library's determinism: the printed output is verified on every test
// run.

import (
	"fmt"

	mba "repro"
)

// ExampleAssign shows the minimal assignment session.
func ExampleAssign() {
	in := mba.FreelanceTrace(50, 40, 7)
	res, err := mba.Assign(in, mba.DefaultParams(), "exact", 7)
	if err != nil {
		panic(err)
	}
	// Coverage can stay below 100% when some tasks have no
	// specialty-matching worker in a small market.
	fmt.Printf("pairs=%d coverage=%.0f%%\n", len(res.Pairs), 100*res.Metrics.SlotCoverage)
	// Output: pairs=48 coverage=81%
}

// ExampleAssign_comparison contrasts the paper's algorithm with the
// classical quality-only baseline on the same market.
func ExampleAssign_comparison() {
	in := mba.FreelanceTrace(50, 40, 7)
	mutual, _ := mba.Assign(in, mba.DefaultParams(), "exact", 7)
	classical, _ := mba.Assign(in, mba.DefaultParams(), "quality-only", 7)
	fmt.Println("mutual wins combined benefit:  ", mutual.Metrics.TotalMutual > classical.Metrics.TotalMutual)
	fmt.Println("baseline starves the workforce:", classical.Metrics.TotalWorker < mutual.Metrics.TotalWorker)
	// Output:
	// mutual wins combined benefit:   true
	// baseline starves the workforce: true
}

// ExampleEndToEnd closes the crowdsourcing loop: assignment → simulated
// answers → aggregation.
func ExampleEndToEnd() {
	in := mba.MicrotaskTrace(80, 40, 7)
	res, _ := mba.Assign(in, mba.DefaultParams(), "greedy", 7)
	e2e, err := mba.EndToEnd(in, mba.DefaultParams(), res, 7)
	if err != nil {
		panic(err)
	}
	fmt.Println("all tasks answered:", e2e.AnsweredTasks == in.NumTasks())
	fmt.Println("weighted beats coin flip:", e2e.WeightedAccuracy > 0.5)
	// Output:
	// all tasks answered: true
	// weighted beats coin flip: true
}

// ExampleAssignWithSLA enforces a per-pair quality floor.
func ExampleAssignWithSLA() {
	in := mba.FreelanceTrace(50, 40, 7)
	res, err := mba.AssignWithSLA(in, mba.DefaultParams(), "greedy", 0.7, 7)
	if err != nil {
		panic(err)
	}
	below := 0
	for _, p := range res.Pairs {
		if p.Quality < 0.7 {
			below++
		}
	}
	fmt.Println("pairs below the SLA:", below)
	// Output: pairs below the SLA: 0
}

// ExampleStability analyses an assignment in matching-market terms.
func ExampleStability() {
	in := mba.FreelanceTrace(50, 40, 7)
	res, _ := mba.Assign(in, mba.DefaultParams(), "stable-matching", 7)
	rep, err := mba.Stability(in, mba.DefaultParams(), res)
	if err != nil {
		panic(err)
	}
	fmt.Println("blocking pairs:", rep.BlockingPairs)
	// Output: blocking pairs: 0
}

// ExampleGenerate builds a market from explicit generator knobs.
func ExampleGenerate() {
	in, err := mba.Generate(mba.MarketConfig{NumWorkers: 30, NumTasks: 20, NumCategories: 4}, 7)
	if err != nil {
		panic(err)
	}
	fmt.Println("workers:", in.NumWorkers(), "tasks:", in.NumTasks(), "categories:", in.NumCategories)
	// Output: workers: 30 tasks: 20 categories: 4
}

// ExampleAlgorithms lists the names Assign and NewSolver accept.
func ExampleAlgorithms() {
	names := mba.Algorithms()
	fmt.Println(len(names), "algorithms, first:", names[0])
	// Output: 17 algorithms, first: annealing
}

// ExampleByCategory shows where an assignment clears the market, category
// by category.
func ExampleByCategory() {
	in := mba.FreelanceTrace(50, 40, 7)
	res, _ := mba.Assign(in, mba.DefaultParams(), "exact", 7)
	reports, err := mba.ByCategory(in, mba.DefaultParams(), res)
	if err != nil {
		panic(err)
	}
	filled := 0
	for _, r := range reports {
		filled += r.Filled
	}
	fmt.Println("categories:", len(reports), "filled slots:", filled, "pairs:", len(res.Pairs))
	// Output: categories: 30 filled slots: 48 pairs: 48
}

// ExampleRetentionCurve probes final workforce participation against a
// uniform payment multiplier.
func ExampleRetentionCurve() {
	solver, _ := mba.NewSolver("greedy")
	cfg := mba.DynamicsConfig{
		Rounds: 10,
		Market: mba.MarketConfig{NumWorkers: 40, NumTasks: 30},
		Params: mba.DefaultParams(),
		Solver: solver,
	}
	curve, err := mba.RetentionCurve(cfg, []float64{0.1, 4}, 5)
	if err != nil {
		panic(err)
	}
	fmt.Printf("participation at 0.1x pay: %.2f, at 4x: %.2f\n", curve[0].FinalParticipation, curve[1].FinalParticipation)
	// Output: participation at 0.1x pay: 0.38, at 4x: 0.50
}

// ExampleClusteredMarket generates the two-tier expert/generalist market.
func ExampleClusteredMarket() {
	in := mba.ClusteredMarket(50, 30, 0.2, 6)
	fmt.Println("valid:", in.Validate() == nil, "workers:", in.NumWorkers(), "tasks:", in.NumTasks())
	// Output: valid: true workers: 50 tasks: 30
}

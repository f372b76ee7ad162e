package core

import (
	"fmt"
	"sort"
)

// solverFactories maps public algorithm names to constructors.  The CLI
// tools, the experiment harness and the root mba package all resolve
// algorithms through this table, so names stay consistent everywhere.
var solverFactories = map[string]func() Solver{
	"exact":              func() Solver { return Exact{Kind: MutualWeight} },
	"incremental":        func() Solver { return NewIncrementalExact() },
	"greedy":             func() Solver { return Greedy{Kind: MutualWeight, WS: NewWorkspace()} },
	"local-search":       func() Solver { return LocalSearch{Kind: MutualWeight} },
	"submodular-greedy":  func() Solver { return SubmodularGreedy{} },
	"auction":            func() Solver { return Auction{Kind: MutualWeight} },
	"degrader":           func() Solver { return DefaultDegrader() },
	"quality-only":       func() Solver { return QualityOnly() },
	"worker-only":        func() Solver { return WorkerOnly() },
	"random":             func() Solver { return Random{} },
	"round-robin":        func() Solver { return RoundRobin{} },
	"online-greedy":      func() Solver { return OnlineGreedy{Kind: MutualWeight} },
	"online-ranking":     func() Solver { return OnlineRanking{Kind: MutualWeight} },
	"online-twophase":    func() Solver { return OnlineTwoPhase{Kind: MutualWeight} },
	"online-task-greedy": func() Solver { return OnlineTaskGreedy{Kind: MutualWeight} },
	"annealing":          func() Solver { return SimulatedAnnealing{Kind: MutualWeight} },
	"stable-matching":    func() Solver { return StableMatching{} },
}

// ByName returns a fresh solver for the given registry name, or an error
// listing the valid names.  The solver is for one goroutine at a time:
// "incremental" carries its matching from solve to solve, and "greedy"
// pins a workspace that keeps its edge order between solves (see Greedy),
// so concurrent solves each need their own ByName call.
func ByName(name string) (Solver, error) {
	f, ok := solverFactories[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown algorithm %q (have %v)", name, SolverNames())
	}
	return f(), nil
}

// SolverNames lists all registered algorithm names in sorted order.
func SolverNames() []string {
	names := make([]string, 0, len(solverFactories))
	for n := range solverFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ComparisonSolvers returns the solver line-up of the headline comparison
// experiments: the paper's algorithms plus every baseline, excluding the
// unit-capacity-only auction and the online variants (which get their own
// experiment).
func ComparisonSolvers() []Solver {
	return []Solver{
		Exact{Kind: MutualWeight},
		Greedy{Kind: MutualWeight},
		LocalSearch{Kind: MutualWeight},
		SubmodularGreedy{},
		QualityOnly(),
		WorkerOnly(),
		Random{},
		RoundRobin{},
	}
}

// OnlineSolvers returns the online line-up of R-Fig11 (worker arrival plus
// the task-arrival variant).
func OnlineSolvers() []Solver {
	return []Solver{
		OnlineGreedy{Kind: MutualWeight},
		OnlineRanking{Kind: MutualWeight},
		OnlineTwoPhase{Kind: MutualWeight},
		OnlineTaskGreedy{Kind: MutualWeight},
	}
}

// Package mba (mutual-benefit assignment) is the public API of this
// reproduction of "Mutual benefit aware task assignment in a bipartite
// labor market" (Liu Zheng and Lei Chen, ICDE 2016).
//
// The library models a crowdsourcing/freelancing platform as a bipartite
// market of workers and tasks, scores every eligible worker-task pair for
// *both* sides (requester-side expected quality, worker-side utility), and
// assigns tasks to maximise the combined mutual benefit under per-worker
// capacity and per-task replication constraints.
//
// A minimal session:
//
//	in := mba.FreelanceTrace(500, 300, 42)           // synthetic platform trace
//	res, err := mba.Assign(in, mba.DefaultParams(), "greedy", 42)
//	if err != nil { ... }
//	fmt.Println(res.Metrics)                          // totals, fairness, coverage
//	for _, pr := range res.Pairs { ... }              // the assignment itself
//
// Beyond one-shot assignment the package exposes the answer-quality loop
// (SimulateAnswers + aggregation already folded into EndToEnd) and the
// multi-round participation simulation (SimulateRounds) that demonstrates
// the paper's "willingness to participate" claim.  The full experiment
// suite behind DESIGN.md/EXPERIMENTS.md is runnable via cmd/mbabench.
package mba

import (
	"fmt"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/market"
	"repro/internal/quality"
	"repro/internal/stats"
)

// Re-exported domain types.  The aliases make the internal packages'
// documented types part of the public surface without duplication.
type (
	// Instance is a market snapshot: workers, tasks, categories.
	Instance = market.Instance
	// Worker is one supply-side participant.
	Worker = market.Worker
	// Task is one unit of posted work.
	Task = market.Task
	// MarketConfig parameterises the synthetic market generators.
	MarketConfig = market.Config
	// Params are the benefit-model knobs (lambda, beta, combiner).
	Params = benefit.Params
	// Combiner selects how the two sides' benefits merge.
	Combiner = benefit.Combiner
	// Metrics scores an assignment from every reported angle.
	Metrics = core.Metrics
	// Solver is the assignment-algorithm interface.
	Solver = core.Solver
	// DynamicsConfig parameterises multi-round participation simulation.
	DynamicsConfig = dynamics.Config
	// DynamicsReport is the outcome of a multi-round simulation.
	DynamicsReport = dynamics.Report
)

// Combiner values.
const (
	WeightedSum = benefit.WeightedSum
	NashProduct = benefit.NashProduct
	Egalitarian = benefit.Egalitarian
)

// DefaultParams returns the balanced benefit parameters (λ = β = 0.5,
// weighted-sum combiner).
func DefaultParams() Params { return benefit.DefaultParams() }

// Generate builds a synthetic market instance; see MarketConfig for knobs.
func Generate(cfg MarketConfig, seed uint64) (*Instance, error) {
	return market.Generate(cfg, seed)
}

// FreelanceTrace generates the freelance-platform-shaped workload
// (Zipf-skewed categories, log-normal prices, specialised workers).
func FreelanceTrace(workers, tasks int, seed uint64) *Instance {
	return market.FreelanceTrace(workers, tasks, seed)
}

// MicrotaskTrace generates the microtask-platform-shaped workload (cheap
// tasks, high replication, broad shallow skills).
func MicrotaskTrace(workers, tasks int, seed uint64) *Instance {
	return market.MicrotaskTrace(workers, tasks, seed)
}

// Algorithms lists the registered assignment algorithm names accepted by
// Assign (e.g. "exact", "greedy", "local-search", "quality-only",
// "online-twophase").
func Algorithms() []string { return core.SolverNames() }

// NewSolver resolves an algorithm name to a Solver for repeated use.
func NewSolver(name string) (Solver, error) { return core.ByName(name) }

// Pair is one assigned worker-task pair with its benefit decomposition.
type Pair struct {
	Worker  int     // worker index in the instance
	Task    int     // task index in the instance
	Quality float64 // requester-side benefit of the pair
	Utility float64 // worker-side benefit of the pair
	Mutual  float64 // combined benefit of the pair
}

// Result is an assignment with its evaluation.
type Result struct {
	Pairs   []Pair
	Metrics Metrics
}

// Assign runs the named algorithm on the instance under params.  The seed
// controls randomised and online algorithms (arrival orders, tie-breaks);
// deterministic algorithms ignore it.  The returned assignment is always
// validated against the capacity and replication constraints.
func Assign(in *Instance, params Params, algorithm string, seed uint64) (*Result, error) {
	solver, err := core.ByName(algorithm)
	if err != nil {
		return nil, err
	}
	return AssignWith(in, params, solver, seed)
}

// AssignWith is Assign with an explicit Solver, for custom or pre-built
// algorithm values.
func AssignWith(in *Instance, params Params, solver Solver, seed uint64) (*Result, error) {
	p, err := core.NewProblem(in, params)
	if err != nil {
		return nil, err
	}
	sel, m, err := core.Run(p, solver, stats.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	return &Result{Metrics: m, Pairs: pairsOf(p, sel)}, nil
}

// pairsOf reads the selected edges of p out as Pairs.
func pairsOf(p *core.Problem, sel []int) []Pair {
	pairs := make([]Pair, len(sel))
	for i, ei := range sel {
		pairs[i] = Pair{
			Worker:  int(p.W[ei]),
			Task:    int(p.T[ei]),
			Quality: p.Quality(ei),
			Utility: p.Utility(ei),
			Mutual:  p.M[ei],
		}
	}
	return pairs
}

// EndToEndResult reports aggregated answer accuracy for one assignment.
type EndToEndResult struct {
	// MajorityAccuracy and WeightedAccuracy are the fractions of answered
	// tasks labelled correctly after majority / oracle-weighted voting.
	MajorityAccuracy float64
	WeightedAccuracy float64
	// EMAccuracy is the same for Dawid–Skene-style EM aggregation.
	EMAccuracy float64
	// AnsweredTasks counts tasks that received at least one answer.
	AnsweredTasks int
}

// EndToEnd closes the crowdsourcing loop for an assignment produced by
// Assign/AssignWith on the same instance and params: it simulates every
// worker's answer and aggregates them three ways, returning the end-to-end
// accuracy a requester would actually observe.
func EndToEnd(in *Instance, params Params, res *Result, seed uint64) (*EndToEndResult, error) {
	model, err := benefit.NewModel(in, params)
	if err != nil {
		return nil, err
	}
	votes := make([]quality.Vote, len(res.Pairs))
	for i, pr := range res.Pairs {
		if pr.Worker < 0 || pr.Worker >= in.NumWorkers() || pr.Task < 0 || pr.Task >= in.NumTasks() {
			return nil, fmt.Errorf("mba: pair %d references unknown worker/task", i)
		}
		votes[i] = quality.Vote{
			Worker: pr.Worker,
			Task:   pr.Task,
			Acc:    model.EffectiveAccuracy(&in.Workers[pr.Worker], &in.Tasks[pr.Task]),
		}
	}
	r := stats.NewRNG(seed)
	as, err := quality.Simulate(in.NumWorkers(), in.NumTasks(), votes, r)
	if err != nil {
		return nil, err
	}
	out := &EndToEndResult{
		MajorityAccuracy: quality.Accuracy(as, quality.MajorityVote(as, r), true),
		WeightedAccuracy: quality.Accuracy(as, quality.WeightedVote(as, r), true),
	}
	emPred, _ := quality.EM(as, 0, r)
	out.EMAccuracy = quality.Accuracy(as, emPred, true)
	for t := range as.Answers {
		if len(as.Answers[t]) > 0 {
			out.AnsweredTasks++
		}
	}
	return out, nil
}

// SimulateRounds runs the multi-round participation simulation: workers
// persist, tasks churn, and dissatisfied workers quit.  See DynamicsConfig
// for the retention knobs.
func SimulateRounds(cfg DynamicsConfig, seed uint64) (*DynamicsReport, error) {
	return dynamics.Simulate(cfg, seed)
}

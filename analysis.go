package mba

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/pricing"
	"repro/internal/stats"
)

// This file extends the façade with the analysis and operator tooling built
// on top of the core assignment loop: quality SLAs, stability analysis,
// per-category market health, and the payment retention curve.

// AssignWithSLA is Assign with a per-pair quality floor: pairs whose
// requester-side quality falls below minQuality are excluded before the
// algorithm runs, trading coverage for a guaranteed competence bar.
func AssignWithSLA(in *Instance, params Params, algorithm string, minQuality float64, seed uint64) (*Result, error) {
	if minQuality < 0 || minQuality > 1 {
		return nil, fmt.Errorf("mba: minQuality %v outside [0,1]", minQuality)
	}
	solver, err := core.ByName(algorithm)
	if err != nil {
		return nil, err
	}
	p, err := core.NewProblem(in, params)
	if err != nil {
		return nil, err
	}
	fp := core.FilterProblem(p, core.MinQuality(minQuality))
	sel, m, err := core.Run(fp, solver, stats.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	res := &Result{Metrics: m, Pairs: make([]Pair, len(sel))}
	for i, ei := range sel {
		e := &fp.Edges[ei]
		res.Pairs[i] = Pair{Worker: e.W, Task: e.T, Quality: e.Q, Utility: e.B, Mutual: e.M}
	}
	return res, nil
}

// StabilityReport quantifies how stable an assignment is in the matching-
// market sense.
type StabilityReport struct {
	// BlockingPairs counts worker-task pairs that would rather have each
	// other than what the assignment gave them.  Zero means stable.
	BlockingPairs int
	// EligiblePairs is the total number of eligible pairs, for context.
	EligiblePairs int
}

// Stability analyses res against the instance it was computed on.
func Stability(in *Instance, params Params, res *Result) (*StabilityReport, error) {
	p, sel, err := rebuildSelection(in, params, res)
	if err != nil {
		return nil, err
	}
	return &StabilityReport{
		BlockingPairs: core.BlockingPairs(p, sel),
		EligiblePairs: len(p.Edges),
	}, nil
}

// CategoryReport re-exports the per-category market-health breakdown.
type CategoryReport = core.CategoryReport

// ByCategory breaks res down per task category: demand, coverage, eligible
// supply and mean benefit — the operator's view of where the market clears.
func ByCategory(in *Instance, params Params, res *Result) ([]CategoryReport, error) {
	p, sel, err := rebuildSelection(in, params, res)
	if err != nil {
		return nil, err
	}
	return p.ByCategory(sel), nil
}

// rebuildSelection maps a Result's pairs back onto a Problem's edge indices.
func rebuildSelection(in *Instance, params Params, res *Result) (*core.Problem, []int, error) {
	p, err := core.NewProblem(in, params)
	if err != nil {
		return nil, nil, err
	}
	index := make(map[[2]int]int, len(p.Edges))
	for i := range p.Edges {
		index[[2]int{p.Edges[i].W, p.Edges[i].T}] = i
	}
	sel := make([]int, len(res.Pairs))
	for i, pr := range res.Pairs {
		ei, ok := index[[2]int{pr.Worker, pr.Task}]
		if !ok {
			return nil, nil, fmt.Errorf("mba: pair (%d,%d) is not an eligible edge of this instance", pr.Worker, pr.Task)
		}
		sel[i] = ei
	}
	if err := p.Feasible(sel); err != nil {
		return nil, nil, err
	}
	return p, sel, nil
}

// RetentionPoint re-exports the pricing probe type.
type RetentionPoint = pricing.RetentionPoint

// RetentionCurve simulates final workforce participation as a function of a
// uniform payment multiplier (reservation wages held fixed).  See
// internal/pricing for the modelling details.
func RetentionCurve(cfg DynamicsConfig, multipliers []float64, seed uint64) ([]RetentionPoint, error) {
	return pricing.RetentionCurve(cfg, multipliers, seed)
}

// ClusteredMarket generates the two-tier expert/generalist workload (see
// market.ClusteredMarket).
func ClusteredMarket(workers, tasks int, expertFrac float64, seed uint64) *Instance {
	return market.ClusteredMarket(workers, tasks, expertFrac, seed)
}

// Incremental is the dynamic-market assigner: it keeps a greedy-maximal
// mutual-benefit assignment standing while workers join/leave and tasks
// are posted, repairing locally per event instead of recomputing.
// See core.Incremental for the repair semantics and invariants.
type Incremental = core.Incremental

// NewIncremental creates an empty dynamic market over numCategories
// categories.  payScale pins the payment normalisation (use the platform's
// typical maximum payment); params configures the benefit model.
func NewIncremental(numCategories int, payScale float64, params Params) (*Incremental, error) {
	return core.NewIncremental(numCategories, payScale, params)
}

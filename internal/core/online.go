package core

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// The online variant (MBA-ON in DESIGN.md) models the live platform: workers
// arrive one at a time, in an order drawn uniformly at random (the
// random-order model the companion GOMA paper from the same ICDE session
// uses), and each arrival must be given its tasks irrevocably before the
// next worker is seen.  Task slots are the scarce offline resource.
//
// Three policies are implemented:
//
//	OnlineGreedy   — each arrival takes its best available edges; the
//	                 adversarial-order baseline with the classical ½ bound
//	                 for greedy matching.
//	OnlineRanking  — tasks receive random priorities once, and arrivals score
//	                 edges by weight discounted with the task's priority (the
//	                 Aggarwal et al. perturbation); randomisation hedges
//	                 against unlucky arrival orders.
//	OnlineTwoPhase — sample-then-match: the first SampleFrac of arrivals is
//	                 assigned greedily while their edge values are recorded;
//	                 the remaining arrivals only take edges above the learned
//	                 value threshold (falling back to their single best edge
//	                 when nothing qualifies), reserving scarce slots for
//	                 high-benefit pairs.  This mirrors the two-phase TGOA
//	                 idea from the GOMA paper.
//
// All four policies route their arrival orders, capacity arrays and
// per-arrival candidate sorts through a Workspace, so the round loop of the
// live platform can replay them allocation-lean.

// OnlineGreedy assigns each arriving worker its highest-value available
// edges up to capacity.
type OnlineGreedy struct {
	Kind WeightKind
	// WS optionally pins a reusable workspace.
	WS *Workspace
}

// Name implements Solver.
func (OnlineGreedy) Name() string { return "online-greedy" }

// Solve implements Solver.  The RNG draws the arrival order.
func (s OnlineGreedy) Solve(p *Problem, r *stats.RNG) ([]int, error) {
	ws, pooled := acquireWorkspace(s.WS)
	defer releaseWorkspace(ws, pooled)
	ws.ints = r.PermInto(ws.ints, p.In.NumWorkers())
	arrival := ws.ints
	capT := p.capacityTInto(ws)
	wt := p.weightsInto(s.Kind, &ws.edgeWt)
	var sel []int
	for _, w := range arrival {
		sel = appendBestEdges(p, wt, w, capT, sel, p.In.Workers[w].Capacity, math.Inf(-1), ws)
	}
	return sel, nil
}

// OnlineRanking perturbs task desirability with fixed random priorities.
type OnlineRanking struct {
	Kind WeightKind
	// WS optionally pins a reusable workspace.
	WS *Workspace
}

// Name implements Solver.
func (OnlineRanking) Name() string { return "online-ranking" }

// Solve implements Solver.  The RNG draws both the arrival order and the
// task priorities.
func (s OnlineRanking) Solve(p *Problem, r *stats.RNG) ([]int, error) {
	ws, pooled := acquireWorkspace(s.WS)
	defer releaseWorkspace(ws, pooled)
	ws.ints = r.PermInto(ws.ints, p.In.NumWorkers())
	arrival := ws.ints
	// Classic Ranking discount: an edge to task t is valued w·(1 − e^{u−1})
	// with u ~ U[0,1); low-u tasks are "spent" first, saving contested tasks
	// for later arrivals.
	prio := make([]float64, p.In.NumTasks())
	for t := range prio {
		prio[t] = 1 - math.Exp(r.Float64()-1)
	}
	capT := p.capacityTInto(ws)
	wt := p.weightsInto(s.Kind, &ws.edgeWt)
	var sel []int
	for _, w := range arrival {
		need := p.In.Workers[w].Capacity
		if need == 0 {
			continue
		}
		type cand struct {
			ei    int
			score float64
		}
		var cands []cand
		lo, hi := p.AdjW(w)
		for ei := lo; ei < hi; ei++ {
			if t := p.T[ei]; capT[t] > 0 {
				cands = append(cands, cand{ei, wt[ei] * prio[t]})
			}
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].score != cands[b].score {
				return cands[a].score > cands[b].score
			}
			return cands[a].ei < cands[b].ei
		})
		for _, c := range cands {
			if need == 0 {
				break
			}
			if t := p.T[c.ei]; capT[t] > 0 {
				capT[t]--
				need--
				sel = append(sel, c.ei)
			}
		}
	}
	return sel, nil
}

// OnlineTwoPhase learns a value threshold from an observation phase.
type OnlineTwoPhase struct {
	Kind WeightKind
	// SampleFrac is the fraction of arrivals in the observation phase;
	// 0 means the default 1/e (the secretary-problem split).
	SampleFrac float64
	// ThresholdQuantile is the quantile of observed assigned-edge values used
	// as the acceptance bar in phase two; 0 means the default 0.5 (median).
	ThresholdQuantile float64
	// WS optionally pins a reusable workspace.
	WS *Workspace
}

// Name implements Solver.
func (OnlineTwoPhase) Name() string { return "online-twophase" }

// Solve implements Solver.  The RNG draws the arrival order.
func (s OnlineTwoPhase) Solve(p *Problem, r *stats.RNG) ([]int, error) {
	ws, pooled := acquireWorkspace(s.WS)
	defer releaseWorkspace(ws, pooled)
	frac := s.SampleFrac
	if frac <= 0 || frac >= 1 {
		frac = 1 / math.E
	}
	quant := s.ThresholdQuantile
	if quant <= 0 || quant >= 1 {
		quant = 0.5
	}
	ws.ints = r.PermInto(ws.ints, p.In.NumWorkers())
	arrival := ws.ints
	cut := int(math.Ceil(frac * float64(len(arrival))))
	capT := p.capacityTInto(ws)
	wt := p.weightsInto(s.Kind, &ws.edgeWt)
	var sel []int

	// Phase 1: assign greedily (refusing everyone would waste real benefit)
	// while recording the values of the edges taken.
	var observed []float64
	for _, w := range arrival[:cut] {
		before := len(sel)
		sel = appendBestEdges(p, wt, w, capT, sel, p.In.Workers[w].Capacity, math.Inf(-1), ws)
		for _, ei := range sel[before:] {
			observed = append(observed, wt[ei])
		}
	}
	threshold := math.Inf(-1)
	if len(observed) > 0 {
		sort.Float64s(observed)
		threshold = stats.Percentile(observed, quant)
	}

	// Phase 2: accept only above-threshold edges; a worker with capacity but
	// no qualifying edge still takes its single best available edge so the
	// policy never strands supply outright.
	for _, w := range arrival[cut:] {
		before := len(sel)
		sel = appendBestEdges(p, wt, w, capT, sel, p.In.Workers[w].Capacity, threshold, ws)
		if len(sel) == before && p.In.Workers[w].Capacity > 0 {
			sel = appendBestEdges(p, wt, w, capT, sel, 1, math.Inf(-1), ws)
		}
	}
	return sel, nil
}

// OnlineTaskGreedy is the demand-side online variant: *tasks* arrive one at
// a time (the spatial-crowdsourcing regime of the companion GOMA paper) and
// each must immediately recruit its panel from the workers' remaining
// capacity.  Each arrival takes its best eligible workers by edge value,
// up to its replication requirement.
type OnlineTaskGreedy struct {
	Kind WeightKind
	// WS optionally pins a reusable workspace.
	WS *Workspace
}

// Name implements Solver.
func (OnlineTaskGreedy) Name() string { return "online-task-greedy" }

// Solve implements Solver.  The RNG draws the task arrival order.
func (s OnlineTaskGreedy) Solve(p *Problem, r *stats.RNG) ([]int, error) {
	ws, pooled := acquireWorkspace(s.WS)
	defer releaseWorkspace(ws, pooled)
	ws.ints = r.PermInto(ws.ints, p.In.NumTasks())
	arrival := ws.ints
	capW := p.capacityWInto(ws)
	wt := p.weightsInto(s.Kind, &ws.edgeWt)
	var sel []int
	for _, t := range arrival {
		need := p.In.Tasks[t].Replication
		adj := p.AdjT(t)
		ws.order = grow(ws.order, len(adj))[:0]
		order := ws.order
		for _, ei := range adj {
			if capW[p.W[ei]] > 0 {
				order = append(order, ei)
			}
		}
		sortEdgesByWeightWS(wt, order, ws)
		for _, ei := range order {
			if need == 0 {
				break
			}
			if w := p.W[ei]; capW[w] > 0 {
				capW[w]--
				need--
				sel = append(sel, int(ei))
			}
		}
	}
	return sel, nil
}

// appendBestEdges gives worker w up to limit of its best available edges
// with value wt[e] >= minValue, decrementing capT in place, and returns
// the extended selection.  Candidate collection and the weight sort run in
// ws.
func appendBestEdges(p *Problem, wt []float64, w int, capT []int, sel []int, limit int, minValue float64, ws *Workspace) []int {
	if limit <= 0 {
		return sel
	}
	lo, hi := p.AdjW(w)
	ws.order = grow(ws.order, hi-lo)[:0]
	order := ws.order
	for ei := lo; ei < hi; ei++ {
		if capT[p.T[ei]] > 0 && wt[ei] >= minValue {
			order = append(order, int32(ei))
		}
	}
	sortEdgesByWeightWS(wt, order, ws)
	for _, ei := range order {
		if limit == 0 {
			break
		}
		if t := p.T[ei]; capT[t] > 0 {
			capT[t]--
			limit--
			sel = append(sel, int(ei))
		}
	}
	return sel
}

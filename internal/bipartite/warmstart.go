package bipartite

// Warm-start support for the min-cost-flow kernel: carry the node
// potentials (dual prices) a previous solve left in a pinned FlowWorkspace
// into the next solve on a rebuilt network, in the spirit of Bertsekas-style
// auction price persistence.  Round-over-round market churn moves edge
// weights only slightly, so yesterday's duals are usually feasible — or a
// couple of relaxation passes from feasible — for today's network, and the
// Dijkstra augmentation loop can start from them directly instead of from
// the DAG-ordered cold sweep.
//
// The contract is validation-first: carried duals are only used after every
// residual arc of the *new* network has been checked for reduced-cost
// feasibility.  Violations (edges whose weights changed, fresh vertices
// whose potentials are stale) are repaired with bounded ordered relaxation
// sweeps; if the budget runs out the solve falls back to the cold
// initPotentials path.  Either way the result is exact — feasible starting
// duals are the only soundness requirement of successive shortest paths.

// WarmInfo reports how a warm-capable solve actually started.
type WarmInfo struct {
	// Warm is true when carried duals (possibly after repair) seeded the
	// solve; false means the cold DAG-ordered initialisation ran.
	Warm bool
	// Violations counts residual arcs whose reduced cost was negative under
	// the carried duals before repair.
	Violations int
	// RepairPasses counts the relaxation sweeps spent making the carried
	// duals feasible again (0 when they validated as-is).
	RepairPasses int
}

// maxRepairPasses bounds dual repair.  The b-matching reduction's vertex
// order is topological, so one relaxing pass plus one verification pass
// repairs any zero-flow network; the margin covers callers with flow
// already on the network.  Past the budget, cold init is cheaper than
// continuing to relax.
const maxRepairPasses = 4

// MinCostFlowWarmWS is MinCostFlowWS with dual persistence: when ws.pot
// still holds potentials from a previous solve over a same-sized network,
// they are validated against the current residual arcs, repaired if
// feasibility was lost, and reused as the starting duals.  Validation
// failure (or a first-ever solve) falls back to the cold path.  The result
// is identical to MinCostFlowWS in value; only the starting duals differ.
func (f *FlowNetwork) MinCostFlowWarmWS(s, t int, maxFlow int64, stopAtNonNegative bool, ws *FlowWorkspace) (MCMFResult, WarmInfo) {
	if s == t {
		panic("bipartite: MinCostFlow with s == t")
	}
	f.ensureAdj()
	var info WarmInfo
	if ws.potN == f.n && len(ws.pot) >= f.n {
		pot := ws.pot[:f.n]
		info.Violations = f.countDualViolations(pot)
		if info.Violations == 0 {
			info.Warm = true
		} else if passes, ok := f.repairPotentials(pot, maxRepairPasses); ok {
			info.Warm = true
			info.RepairPasses = passes
		}
		if info.Warm {
			ws.pot = pot
			return f.minCostFlowLoop(s, t, maxFlow, stopAtNonNegative, ws), info
		}
	}
	pot := grow(ws.pot, f.n)
	f.initPotentials(s, pot)
	ws.pot = pot
	return f.minCostFlowLoop(s, t, maxFlow, stopAtNonNegative, ws), info
}

// countDualViolations counts residual arcs (positive capacity) whose
// reduced cost under pot is negative — the dual-feasibility check that
// gates warm starts.  O(E).
func (f *FlowNetwork) countDualViolations(pot []int64) int {
	violations := 0
	es, adjOff := f.es, f.adjOff
	for v := int32(0); v < int32(f.n); v++ {
		pv := pot[v]
		for a, end := adjOff[v], adjOff[v+1]; a < end; a++ {
			e := &es[a]
			if e.cap > 0 && pv+e.cost < pot[e.to] {
				violations++
			}
		}
	}
	return violations
}

// repairPotentials restores dual feasibility by ordered relaxation: any
// violated arc (u,v) lowers pot[v] to pot[u]+cost, repeated until a pass
// changes nothing.  Equivalent to Bellman–Ford from a virtual super-source
// whose arc to v costs the carried pot[v], so on a residual graph without
// negative cycles it converges; on the reduction's topologically-ordered
// vertices it converges in one relaxing pass plus one verification pass.
// Returns the passes used and whether feasibility was reached within
// maxPasses (false means the caller should cold-start instead).
func (f *FlowNetwork) repairPotentials(pot []int64, maxPasses int) (int, bool) {
	es, adjOff := f.es, f.adjOff
	for pass := 1; pass <= maxPasses; pass++ {
		changed := false
		for v := int32(0); v < int32(f.n); v++ {
			pv := pot[v]
			for a, end := adjOff[v], adjOff[v+1]; a < end; a++ {
				e := &es[a]
				if e.cap <= 0 {
					continue
				}
				if nd := pv + e.cost; nd < pot[e.to] {
					pot[e.to] = nd
					changed = true
				}
			}
		}
		if !changed {
			return pass, true
		}
	}
	return maxPasses, false
}

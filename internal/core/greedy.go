package core

import (
	"repro/internal/stats"
)

// Greedy is the global edge-greedy algorithm: consider edges in decreasing
// weight order and take every edge whose endpoints still have capacity.
//
// The feasible assignments form the intersection of two partition matroids
// (worker capacities, task replications), so this greedy is a classical
// ½-approximation of the optimum — and in practice it lands within a few
// percent (R-Fig10).  Runtime is O(E): a radix sort of the edge order
// (sortEdgesByWeightWS) plus a linear scan, which is what makes it the only
// viable algorithm at millions of edges (R-Fig9).
type Greedy struct {
	Kind WeightKind
	// WS optionally pins a reusable workspace; nil borrows one from the
	// package pool per call.
	WS *Workspace
}

// Name implements Solver.
func (s Greedy) Name() string {
	switch {
	case s.Kind == QualityWeight:
		return "quality-only"
	case s.Kind == WorkerWeight:
		return "worker-only"
	default:
		return "greedy"
	}
}

// Solve implements Solver.  Ties are broken by edge index, so the result is
// deterministic; the RNG is unused.
func (s Greedy) Solve(p *Problem, _ *stats.RNG) ([]int, error) {
	ws, pooled := acquireWorkspace(s.WS)
	defer releaseWorkspace(ws, pooled)
	return copySel(greedyInto(p, s.Kind, ws)), nil
}

// greedyInto runs edge-greedy with all scratch drawn from ws and returns
// the selection backed by ws.sel (valid until ws's next use).  LocalSearch
// seeds from it without paying the copy.
func greedyInto(p *Problem, kind WeightKind, ws *Workspace) []int {
	order := identityOrderWS(ws, len(p.Edges))
	sortEdgesByWeightWS(p, kind, order, ws)
	ws.sel = growInts(ws.sel, 0)[:0]
	ws.sel = takeFeasible(p, order, p.capacityWInto(ws), p.capacityTInto(ws), ws.sel)
	return ws.sel
}

// QualityOnly is the strongest classical baseline: greedy assignment by
// requester-side quality alone, ignoring what workers get out of it.
func QualityOnly() Solver { return Greedy{Kind: QualityWeight} }

// WorkerOnly is the opposite baseline: greedy by worker utility alone.
func WorkerOnly() Solver { return Greedy{Kind: WorkerWeight} }

// Random assigns by scanning a uniformly shuffled edge order and taking
// whatever fits.  It is the sanity floor of every comparison plot.
type Random struct {
	// WS optionally pins a reusable workspace.
	WS *Workspace
}

// Name implements Solver.
func (Random) Name() string { return "random" }

// Solve implements Solver.
func (s Random) Solve(p *Problem, r *stats.RNG) ([]int, error) {
	ws, pooled := acquireWorkspace(s.WS)
	defer releaseWorkspace(ws, pooled)
	ws.ints = r.PermInto(ws.ints, len(p.Edges))
	ws.sel = growInts(ws.sel, 0)[:0]
	ws.sel = takeFeasible(p, ws.ints, p.capacityWInto(ws), p.capacityTInto(ws), ws.sel)
	return copySel(ws.sel), nil
}

// RoundRobin iterates tasks in id order and hands each open slot to the next
// eligible worker in a rotating cursor — the "fair dispatcher" many real
// platforms actually run, and a second sanity baseline.
type RoundRobin struct {
	// WS optionally pins a reusable workspace.
	WS *Workspace
}

// Name implements Solver.
func (RoundRobin) Name() string { return "round-robin" }

// Solve implements Solver.  Deterministic; the RNG is unused.
func (s RoundRobin) Solve(p *Problem, _ *stats.RNG) ([]int, error) {
	ws, pooled := acquireWorkspace(s.WS)
	defer releaseWorkspace(ws, pooled)
	capW := p.capacityWInto(ws)
	capT := p.capacityTInto(ws)
	chosen := growBoolZero(ws.chosen, len(p.Edges))
	ws.chosen = chosen
	ws.sel = growInts(ws.sel, 0)[:0]
	sel := ws.sel
	// cursor[t] rotates over AdjT(t) so repeated slots of the same task go
	// to different workers; the chosen guard prevents re-taking an edge when
	// the cursor wraps around.
	progress := true
	ws.ints = growInts(ws.ints, p.In.NumTasks())
	cursor := ws.ints
	clear(cursor)
	for progress {
		progress = false
		for t := 0; t < p.In.NumTasks(); t++ {
			if capT[t] == 0 {
				continue
			}
			adj := p.AdjT(t)
			for n := 0; n < len(adj); n++ {
				ei := int(adj[cursor[t]%len(adj)])
				cursor[t]++
				e := &p.Edges[ei]
				if !chosen[ei] && capW[e.W] > 0 {
					chosen[ei] = true
					capW[e.W]--
					capT[t]--
					sel = append(sel, ei)
					progress = true
					break
				}
			}
		}
	}
	ws.sel = sel
	return copySel(sel), nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

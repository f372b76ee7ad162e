package bipartite

import "math"

// weightScale converts float64 edge weights in a bounded range into int64
// costs for the flow solver.  1e9 preserves nine decimal digits — far below
// the noise floor of the benefit models — while leaving ~9 decimal orders of
// headroom before int64 overflow on million-edge instances.
const weightScale = 1e9

// ScaledCost converts a non-negative edge weight into the negated scaled
// int64 cost the flow kernels minimise.  Exported so incremental callers
// (DeltaMatcher, core's incremental solver) produce costs bit-identical to
// buildAssignmentNetwork — objective equality across solve paths depends on
// every path quantising weights through this exact function.
func ScaledCost(w float64) int64 {
	return -int64(math.Round(w * weightScale))
}

// BMatching is a degree-constrained matching: a set of chosen edge indices
// together with the achieved total weight.
type BMatching struct {
	EdgeIdx []int   // indices into the Graph's edge slice
	Weight  float64 // sum of chosen edge weights
}

// buildAssignmentNetwork materialises the b-matching flow reduction.  Vertex
// layout: 0 = source, 1..nL = left, nL+1..nL+nR = right, last = sink —
// source < left block < right block < sink, so vertex order is topological
// and MinCostFlowWS's O(E) potential sweep applies.
//
// Arcs: source → left with capacity capL (skipped for zero-capacity or
// isolated vertices), one unit arc per graph edge carrying the negated
// scaled weight (skipped entirely when either endpoint has zero capacity —
// a cap-0 arc can never carry flow and only bloats the network; skipped
// entries get edgeArc[i] = -1), right → sink with capacity capR.  The
// network is built into ws's retained arena when ws is non-nil, freshly
// allocated otherwise.  It panics on capacity-length mismatch, negative
// capacities, or negative weights.
func buildAssignmentNetwork(ws *FlowWorkspace, g *Graph, capL, capR []int) (net *FlowNetwork, edgeArc []int32, s, t int) {
	if len(capL) != g.NL() || len(capR) != g.NR() {
		panic("bipartite: capacity slice length mismatch")
	}
	nL, nR := g.NL(), g.NR()
	s = 0
	t = nL + nR + 1
	if ws != nil {
		net = RebuildNetwork(&ws.net, nL+nR+2, g.NumEdges()+nL+nR)
		ws.edgeArc = grow(ws.edgeArc, g.NumEdges())
		edgeArc = ws.edgeArc
	} else {
		net = NewFlowNetwork(nL+nR+2, g.NumEdges()+nL+nR)
		edgeArc = make([]int32, g.NumEdges())
	}

	for l := 0; l < nL; l++ {
		if capL[l] < 0 {
			panic("bipartite: negative left capacity")
		}
		if capL[l] > 0 && g.DegreeL(l) > 0 {
			net.AddEdge(s, 1+l, int64(capL[l]), 0)
		}
	}
	for i, e := range g.Edges() {
		if e.Weight < 0 {
			panic("bipartite: MaxWeightBMatching requires non-negative weights")
		}
		if capL[e.L] == 0 || capR[e.R] == 0 {
			edgeArc[i] = -1
			continue
		}
		edgeArc[i] = int32(net.AddEdge(1+e.L, 1+nL+e.R, 1, ScaledCost(e.Weight)))
	}
	for r := 0; r < nR; r++ {
		if capR[r] < 0 {
			panic("bipartite: negative right capacity")
		}
		if capR[r] > 0 && g.DegreeR(r) > 0 {
			net.AddEdge(1+nL+r, t, int64(capR[r]), 0)
		}
	}
	return net, edgeArc, s, t
}

// collectMatching reads the chosen edges back out of the solved network:
// one exactly-sized allocation for the caller-owned index slice.
func collectMatching(g *Graph, net *FlowNetwork, edgeArc []int32) BMatching {
	var m BMatching
	chosen := 0
	for i := range g.Edges() {
		if edgeArc[i] >= 0 && net.Flow(int(edgeArc[i])) > 0 {
			chosen++
		}
	}
	if chosen == 0 {
		return m
	}
	m.EdgeIdx = make([]int, 0, chosen)
	for i := range g.Edges() {
		if edgeArc[i] >= 0 && net.Flow(int(edgeArc[i])) > 0 {
			m.EdgeIdx = append(m.EdgeIdx, i)
			m.Weight += g.Edge(i).Weight
		}
	}
	return m
}

// MaxWeightBMatching computes an exact maximum-weight b-matching of g:
// a subset M of edges maximising Σweight such that every left vertex l is
// covered at most capL[l] times and every right vertex r at most capR[r]
// times.  Edge weights must be non-negative (benefit values are); it panics
// otherwise.
//
// This is the paper's exact solver for the linear mutual-benefit objective:
// source → worker arcs with capacity capL, per-edge unit arcs carrying the
// negated scaled weight, task → sink arcs with capacity capR, then min-cost
// flow with the stop-at-non-negative rule so only benefit-positive
// augmenting paths are taken.  Scratch and the network arena come from a
// pooled FlowWorkspace; MaxWeightBMatchingWS pins one across solves.
func MaxWeightBMatching(g *Graph, capL, capR []int) BMatching {
	return MaxWeightBMatchingWS(g, capL, capR, nil)
}

// MaxWeightBMatchingWS is MaxWeightBMatching solving inside ws: the flow
// network is rebuilt in ws's retained arena and every kernel scratch array
// is reused, so steady-state repeated solves allocate only the returned
// matching.  A nil ws borrows one from the package pool.
func MaxWeightBMatchingWS(g *Graph, capL, capR []int, ws *FlowWorkspace) BMatching {
	ws, pooled := acquireFlowWorkspace(ws)
	net, edgeArc, s, t := buildAssignmentNetwork(ws, g, capL, capR)
	net.MinCostFlowWS(s, t, int64(1)<<60, true, ws)
	m := collectMatching(g, net, edgeArc)
	releaseFlowWorkspace(ws, pooled)
	return m
}

// Package bipartite implements the graph-algorithm substrate of the
// reproduction: weighted bipartite graphs, minimum-cost flow (successive
// shortest paths with Johnson potentials) and the exact maximum-weight
// b-matching built on it, cold, warm-started and incremental (DeltaMatcher).
//
// The paper's central observation is that a labor market is a *bipartite*
// structure — workers on one side, tasks on the other — and that assignment
// must respect degree constraints on both sides.  The exact optimum of the
// linear mutual-benefit objective (MBA-L in DESIGN.md) is a maximum-weight
// degree-constrained b-matching, which this package solves via a min-cost
// flow reduction.  The heuristic and online algorithms in internal/core are
// all measured against that optimum.
//
// The min-cost-flow kernel and the b-matching solver come in three shapes:
// the plain entry point (pooled scratch), a WS variant taking a pinned
// FlowWorkspace for allocation-free repeated solves, and a retained *Serial
// reference — the straightforward allocation-per-call implementation the
// property tests pin the optimised kernels against, bit for bit.
package bipartite

import "fmt"

// Edge is a weighted edge between left vertex L and right vertex R.
type Edge struct {
	L, R   int
	Weight float64
}

// Graph is a weighted bipartite graph with nL left vertices and nR right
// vertices.  Vertices are dense integer ids (0-based on each side); the
// market layer maps worker/task identities onto them.
//
// Adjacency is stored in CSR form — one flat edge-index array per side plus
// an offsets array — built lazily in two counted passes the first time any
// adjacency accessor runs after an AddEdge.  Building therefore performs a
// fixed number of allocations regardless of degree distribution, and Reset
// lets a retained Graph rebuild a same-or-different-shape instance inside
// its previous arenas.
type Graph struct {
	nL, nR int
	edges  []Edge
	adjL   []int32 // edge indices incident to l at [offL[l], offL[l+1])
	offL   []int32 // len nL+1
	adjR   []int32 // edge indices incident to r at [offR[r], offR[r+1])
	offR   []int32 // len nR+1
	dirty  bool
}

// NewGraph returns an empty bipartite graph with the given side sizes.
// It panics on negative sizes.
func NewGraph(nL, nR int) *Graph {
	g := &Graph{}
	g.Reset(nL, nR)
	return g
}

// Reset re-initialises g to an empty graph with the given side sizes,
// retaining every backing array for reuse.  It panics on negative sizes.
func (g *Graph) Reset(nL, nR int) {
	if nL < 0 || nR < 0 {
		panic("bipartite: negative side size")
	}
	g.nL, g.nR = nL, nR
	g.edges = g.edges[:0]
	g.dirty = true
}

// NL returns the number of left vertices.
func (g *Graph) NL() int { return g.nL }

// NR returns the number of right vertices.
func (g *Graph) NR() int { return g.nR }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddEdge appends an edge (l, r, w).  Duplicate pairs are allowed by the
// graph itself (the assignment layer forbids them) — algorithms treat them
// as parallel edges.  It panics on out-of-range endpoints.
func (g *Graph) AddEdge(l, r int, w float64) {
	if l < 0 || l >= g.nL || r < 0 || r >= g.nR {
		panic(fmt.Sprintf("bipartite: edge (%d,%d) out of range (%d,%d)", l, r, g.nL, g.nR))
	}
	g.edges = append(g.edges, Edge{L: l, R: r, Weight: w})
	g.dirty = true
}

// ensureAdj (re)builds the CSR adjacency in two counted passes: exact
// per-vertex degrees first, then a cursor sweep filling each vertex's list
// in ascending edge order (the order AddEdge appended them).
func (g *Graph) ensureAdj() {
	if !g.dirty {
		return
	}
	offL := grow(g.offL, g.nL+1)
	offR := grow(g.offR, g.nR+1)
	clear(offL)
	clear(offR)
	for i := range g.edges {
		offL[g.edges[i].L+1]++
		offR[g.edges[i].R+1]++
	}
	for l := 0; l < g.nL; l++ {
		offL[l+1] += offL[l]
	}
	for r := 0; r < g.nR; r++ {
		offR[r+1] += offR[r]
	}
	adjL := grow(g.adjL, len(g.edges))
	adjR := grow(g.adjR, len(g.edges))
	for i := range g.edges {
		e := &g.edges[i]
		adjL[offL[e.L]] = int32(i)
		offL[e.L]++
		adjR[offR[e.R]] = int32(i)
		offR[e.R]++
	}
	// The fill advanced each offset to its successor; shift back.
	for l := g.nL; l > 0; l-- {
		offL[l] = offL[l-1]
	}
	offL[0] = 0
	for r := g.nR; r > 0; r-- {
		offR[r] = offR[r-1]
	}
	offR[0] = 0
	g.adjL, g.offL = adjL, offL
	g.adjR, g.offR = adjR, offR
	g.dirty = false
}

// Edge returns the i-th edge.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// Edges returns the backing edge slice.  Callers must not mutate it.
func (g *Graph) Edges() []Edge { return g.edges }

// DegreeL returns the degree of left vertex l.
func (g *Graph) DegreeL(l int) int {
	g.ensureAdj()
	return int(g.offL[l+1] - g.offL[l])
}

// DegreeR returns the degree of right vertex r.
func (g *Graph) DegreeR(r int) int {
	g.ensureAdj()
	return int(g.offR[r+1] - g.offR[r])
}

// AdjL returns the edge indices incident to left vertex l.  Callers must not
// mutate the returned slice, and must not hold it across an AddEdge.
func (g *Graph) AdjL(l int) []int32 {
	g.ensureAdj()
	return g.adjL[g.offL[l]:g.offL[l+1]]
}

// AdjR returns the edge indices incident to right vertex r.
func (g *Graph) AdjR(r int) []int32 {
	g.ensureAdj()
	return g.adjR[g.offR[r]:g.offR[r+1]]
}

// TotalWeight sums all edge weights.
func (g *Graph) TotalWeight() float64 {
	var s float64
	for _, e := range g.edges {
		s += e.Weight
	}
	return s
}

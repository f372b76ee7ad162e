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
// Vertex degrees are counted lazily, in one pass the first time DegreeL
// or DegreeR runs after an AddEdge, and Reset lets a retained Graph
// rebuild a same-or-different-shape instance inside its previous arenas.
type Graph struct {
	nL, nR int
	edges  []Edge
	degL   []int32 // len nL
	degR   []int32 // len nR
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

// ensureDegrees (re)counts every vertex's degree.
func (g *Graph) ensureDegrees() {
	if !g.dirty {
		return
	}
	g.degL = grow(g.degL, g.nL)
	g.degR = grow(g.degR, g.nR)
	clear(g.degL)
	clear(g.degR)
	for i := range g.edges {
		g.degL[g.edges[i].L]++
		g.degR[g.edges[i].R]++
	}
	g.dirty = false
}

// Edge returns the i-th edge.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// Edges returns the backing edge slice.  Callers must not mutate it.
func (g *Graph) Edges() []Edge { return g.edges }

// DegreeL returns the degree of left vertex l.
func (g *Graph) DegreeL(l int) int {
	g.ensureDegrees()
	return int(g.degL[l])
}

// DegreeR returns the degree of right vertex r.
func (g *Graph) DegreeR(r int) int {
	g.ensureDegrees()
	return int(g.degR[r])
}

package bipartite

// FlowNetwork is a directed graph with edge capacities and costs, solved by
// minimum-cost flow (MinCostFlowWS).  Edges are stored in the standard
// paired-arc layout: edge i and its residual reverse edge i^1 are adjacent,
// so residual updates are branch-free.
//
// Arcs are ingested in AddEdge order into a staging array (raw) and, once
// arcs stop being added, laid out in CSR position order: a vertex's
// out-arcs occupy the contiguous records es[adjOff[v]:adjOff[v+1]], sorted
// by arc id, so the relaxation kernels stream memory sequentially instead
// of chasing a linked list or an arc-id indirection.  pairPos maps a
// position to its reverse arc's position, posOfArc an AddEdge-order arc id
// to its position.  Reset rebuilds a same-shape network inside the
// previous arenas.
type FlowNetwork struct {
	n   int
	raw []flowArc // staging, AddEdge (arc-id) order

	es       []flowArc // live arcs in CSR position order
	adjOff   []int32   // vertex v's arcs live at es[adjOff[v]:adjOff[v+1]]
	pairPos  []int32   // position of the paired reverse arc, per position
	posOfArc []int32   // arc id → position
	dirty    bool
	flows    int // number of AddEdge calls
}

// flowArc is one directed arc of the paired-arc layout.  Head, residual
// capacity and cost live interleaved in a single record so the relaxation
// loops touch one cache line per arc instead of three parallel arrays —
// on large networks the Dijkstra sweep is memory-bound and the layout is
// worth a sizeable constant factor.
type flowArc struct {
	to        int32
	cap, cost int64
}

// NewFlowNetwork creates a network with n vertices and capacity hint for m
// edges (each AddEdge consumes two arcs).
func NewFlowNetwork(n, m int) *FlowNetwork {
	f := &FlowNetwork{}
	f.Reset(n, m)
	return f
}

// Reset re-initialises f to an empty network with n vertices and a capacity
// hint of m AddEdge calls, retaining every backing array that is already
// large enough.  It panics on a negative vertex count.
func (f *FlowNetwork) Reset(n, m int) {
	if n < 0 {
		panic("bipartite: negative vertex count")
	}
	f.n = n
	if cap(f.raw) < 2*m {
		f.raw = make([]flowArc, 0, 2*m)
	} else {
		f.raw = f.raw[:0]
	}
	f.posOfArc = f.posOfArc[:0] // discard any previous build's residual state
	f.flows = 0
	f.dirty = true
}

// RebuildNetwork re-arenas net for an n-vertex, m-edge instance: it resets a
// non-nil network in place (reusing its allocations — the steady state of
// repeated same-shape solves) and allocates a fresh one otherwise.
func RebuildNetwork(net *FlowNetwork, n, m int) *FlowNetwork {
	if net == nil {
		return NewFlowNetwork(n, m)
	}
	net.Reset(n, m)
	return net
}

// AddEdge adds a directed edge u→v with the given capacity and cost and its
// zero-capacity reverse arc.  It returns the arc index, from which the flow
// can later be read with Flow.  It panics on out-of-range endpoints or
// negative capacity.
func (f *FlowNetwork) AddEdge(u, v int, capacity, cost int64) int {
	if u < 0 || u >= f.n || v < 0 || v >= f.n {
		panic("bipartite: AddEdge endpoint out of range")
	}
	if capacity < 0 {
		panic("bipartite: negative capacity")
	}
	a := int32(len(f.raw))
	f.raw = append(f.raw,
		flowArc{to: int32(v), cap: capacity, cost: cost},
		flowArc{to: int32(u), cap: 0, cost: -cost})
	f.flows++
	f.dirty = true
	return int(a)
}

// ensureAdj (re)builds the position-ordered arc records in two counted
// passes.  An arc's tail is the head of its paired reverse arc; arcs
// appear in each vertex's block in ascending arc id, so iteration order is
// deterministic and independent of how the layout is rebuilt.
func (f *FlowNetwork) ensureAdj() {
	if !f.dirty {
		return
	}
	// A previous build's es records hold the live residual capacities;
	// fold them back into staging order first so adding arcs after a solve
	// does not discard flow state.
	for a, p := range f.posOfArc {
		f.raw[a].cap = f.es[p].cap
	}
	off := grow(f.adjOff, f.n+1)
	clear(off)
	for a := range f.raw {
		off[f.raw[a^1].to+1]++
	}
	for v := 0; v < f.n; v++ {
		off[v+1] += off[v]
	}
	es := grow(f.es, len(f.raw))
	posOfArc := grow(f.posOfArc, len(f.raw))
	for a := range f.raw {
		u := f.raw[a^1].to
		p := off[u]
		es[p] = f.raw[a]
		posOfArc[a] = p
		off[u]++
	}
	for v := f.n; v > 0; v-- {
		off[v] = off[v-1]
	}
	off[0] = 0
	pairPos := grow(f.pairPos, len(f.raw))
	for a, p := range posOfArc {
		pairPos[p] = posOfArc[a^1]
	}
	f.adjOff, f.es, f.posOfArc, f.pairPos = off, es, posOfArc, pairPos
	f.dirty = false
}

// Flow returns the flow currently pushed through arc a (an AddEdge return
// value) — the residual capacity of its reverse arc.
func (f *FlowNetwork) Flow(a int) int64 {
	f.ensureAdj()
	return f.es[f.posOfArc[a^1]].cap
}

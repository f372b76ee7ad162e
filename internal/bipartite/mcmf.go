package bipartite

import "math"

const infCost = int64(math.MaxInt64 / 4)

// MCMFResult reports the outcome of a minimum-cost flow computation.
type MCMFResult struct {
	Flow int64 // total flow pushed
	Cost int64 // total cost of that flow
}

// MinCostFlow pushes flow from s to t along successive shortest (cheapest)
// paths until either maxFlow units have been sent or no augmenting path
// remains.  If stopAtNonNegative is true it additionally stops as soon as the
// cheapest augmenting path has non-negative cost — exactly the stopping rule
// that turns a min-cost-flow solver into a *maximum-weight* b-matching solver
// when edge weights are encoded as negated costs.
//
// Scratch comes from a pooled FlowWorkspace; use MinCostFlowWS to pin one
// across calls and amortise the arrays over many solves.
func (f *FlowNetwork) MinCostFlow(s, t int, maxFlow int64, stopAtNonNegative bool) MCMFResult {
	ws, pooled := acquireFlowWorkspace(nil)
	res := f.MinCostFlowWS(s, t, maxFlow, stopAtNonNegative, ws)
	releaseFlowWorkspace(ws, pooled)
	return res
}

// MinCostFlowWS is MinCostFlow drawing every scratch array — potentials,
// Dijkstra labels, the heap — from ws, so repeated solves through a pinned
// workspace allocate nothing.
//
// Costs may be negative on original arcs (they are, in the b-matching
// reduction).  Initial potentials come from an ordered relaxation sweep
// (initPotentials) that costs O(E) on the s→L→R→t DAG the reduction
// produces — Bellman–Ford is only needed once flow exists, and the first
// potentials never see flow.  Every augmentation then runs Dijkstra with
// reduced costs, stopping as soon as t is finalised; vertices the truncated
// search did not finalise have their potentials advanced by dist(t), the
// standard clamp that keeps every residual reduced cost non-negative.
func (f *FlowNetwork) MinCostFlowWS(s, t int, maxFlow int64, stopAtNonNegative bool, ws *FlowWorkspace) MCMFResult {
	if s == t {
		panic("bipartite: MinCostFlow with s == t")
	}
	f.ensureAdj()
	pot := grow(ws.pot, f.n)
	f.initPotentials(s, pot)
	ws.pot = pot
	return f.minCostFlowLoop(s, t, maxFlow, stopAtNonNegative, ws)
}

// minCostFlowLoop is the successive-shortest-paths augmentation loop shared
// by the cold path (MinCostFlowWS, potentials from initPotentials) and the
// warm path (MinCostFlowWarmWS, carried duals validated/repaired first).
// Precondition: ws.pot[:f.n] holds reduced-cost-feasible potentials for the
// current residual graph.  On return ws.potN records the network size the
// final potentials are valid for, which is what the warm path checks.
func (f *FlowNetwork) minCostFlowLoop(s, t int, maxFlow int64, stopAtNonNegative bool, ws *FlowWorkspace) MCMFResult {
	pot := ws.pot[:f.n]
	dist := grow(ws.dist, f.n)
	prevArc := grow(ws.prevArc, f.n)
	inHeap := grow(ws.heapPos, f.n) // position in heap + 1; 0 = absent
	h := heap64{es: ws.heapEs[:0], pos: inHeap}
	ws.dist, ws.prevArc = dist, prevArc

	// Hoisted locals: the relaxation loop is the hot path of the whole
	// exact solver, and keeping the slice headers out of the FlowNetwork
	// indirection lets the compiler keep them in registers.
	es, adjOff, pairPos := f.es, f.adjOff, f.pairPos

	var res MCMFResult
	for res.Flow < maxFlow {
		// Cooperative cancellation: one poll per augmentation keeps the
		// check off the relaxation hot path while bounding the latency of
		// a deadline fire to a single Dijkstra round.
		if ws.Stop != nil && ws.Stop() {
			break
		}
		// Dijkstra over reduced costs, truncated at t's finalisation.
		for i := range dist {
			dist[i] = infCost
			inHeap[i] = 0
		}
		dist[s] = 0
		h.es = h.es[:0]
		h.push(int32(s), 0)
		for h.len() > 0 {
			v, dv := h.pop()
			if dv > dist[v] {
				continue
			}
			if v == int32(t) {
				break
			}
			base := dv + pot[v]
			for a, end := adjOff[v], adjOff[v+1]; a < end; a++ {
				e := &es[a]
				if e.cap <= 0 {
					continue
				}
				w := e.to
				// Reduced cost is non-negative once potentials are valid.
				nd := base + e.cost - pot[w]
				if nd < dist[w] {
					dist[w] = nd
					prevArc[w] = a
					h.push(w, nd)
				}
			}
		}
		dt := dist[t]
		if dt >= infCost {
			break // t unreachable in the residual graph
		}
		realPathCost := dt - pot[s] + pot[t]
		if stopAtNonNegative && realPathCost >= 0 {
			break
		}
		// Update potentials for the next round; vertices beyond the
		// truncation horizon advance by dt, preserving reduced-cost
		// feasibility on every residual arc.
		for v := 0; v < f.n; v++ {
			if dist[v] < dt {
				pot[v] += dist[v]
			} else {
				pot[v] += dt
			}
		}
		// Bottleneck along the path.
		push := maxFlow - res.Flow
		for v := int32(t); v != int32(s); {
			a := prevArc[v]
			if es[a].cap < push {
				push = es[a].cap
			}
			v = es[pairPos[a]].to
		}
		for v := int32(t); v != int32(s); {
			a := prevArc[v]
			es[a].cap -= push
			es[pairPos[a]].cap += push
			v = es[pairPos[a]].to
		}
		res.Flow += push
		res.Cost += push * realPathCost
	}
	ws.heapEs = h.es[:0]
	ws.potN = f.n
	return res
}

// initPotentials fills pot with shortest-path distances from s over arcs
// with positive residual capacity, tolerating negative costs.  It relaxes
// every vertex's out-arcs in ascending vertex order and repeats until a
// pass changes nothing.  The b-matching reduction lays its vertices out as
// source < left block < right block < sink, so that order is topological
// and the sweep converges in one relaxing pass plus one verification pass —
// O(E) total, against Bellman–Ford's O(V·E).  On graphs where vertex order
// is not topological the sweep degrades gracefully into ordered
// Bellman–Ford and still terminates with exact distances.  Vertices
// unreachable from s keep potential 0 (the value is irrelevant, it only
// has to be finite).
func (f *FlowNetwork) initPotentials(s int, pot []int64) {
	for i := range pot {
		pot[i] = infCost
	}
	pot[s] = 0
	es, adjOff := f.es, f.adjOff
	for pass := 0; pass < f.n; pass++ {
		changed := false
		for v := int32(0); v < int32(f.n); v++ {
			pv := pot[v]
			if pv == infCost {
				continue
			}
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
			break
		}
	}
	for i := range pot {
		if pot[i] == infCost {
			pot[i] = 0
		}
	}
}

// heap64 is a small binary min-heap of (vertex, priority) used by Dijkstra.
// Entries are stored as fused (vertex, key) records so a sift touches one
// cache line per level instead of two; pos tracks heap positions (+1) for
// decrease-key.
type heap64 struct {
	es  []heapEnt
	pos []int32
}

type heapEnt struct {
	v int32
	d int64
}

func (h *heap64) len() int { return len(h.es) }

func (h *heap64) push(v int32, d int64) {
	if p := h.pos[v]; p != 0 {
		// decrease-key
		i := int(p - 1)
		if d >= h.es[i].d {
			return
		}
		h.es[i].d = d
		h.up(i)
		return
	}
	h.es = append(h.es, heapEnt{v, d})
	h.pos[v] = int32(len(h.es))
	h.up(len(h.es) - 1)
}

func (h *heap64) pop() (int32, int64) {
	top := h.es[0]
	last := len(h.es) - 1
	h.swap(0, last)
	h.pos[top.v] = 0
	h.es = h.es[:last]
	if last > 0 {
		h.down(0)
	}
	return top.v, top.d
}

func (h *heap64) swap(i, j int) {
	h.es[i], h.es[j] = h.es[j], h.es[i]
	h.pos[h.es[i].v] = int32(i + 1)
	h.pos[h.es[j].v] = int32(j + 1)
}

func (h *heap64) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h.es[p].d <= h.es[i].d {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *heap64) down(i int) {
	n := len(h.es)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.es[l].d < h.es[small].d {
			small = l
		}
		if r < n && h.es[r].d < h.es[small].d {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}

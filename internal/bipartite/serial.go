package bipartite

// The retained reference implementation of the min-cost-flow kernel and of
// the exact b-matching solver built on it, in the style of
// core.NewProblemSerial / core.LocalSearchSerial: straightforward
// allocation-per-call code with the classic start-up (Bellman–Ford
// potentials, fresh scratch every augmentation).  The property tests pin
// the workspace kernels against it bit for bit — identical flows, costs,
// residual capacities, matched pair sets and weights — across seeds,
// generators and pool reuse, so the allocation-free fast paths cannot drift
// semantically.

// MinCostFlowSerial is the reference successive-shortest-paths solver: SPFA
// Bellman–Ford potentials and per-call allocated Dijkstra state.  It must
// produce the same flow, cost and residual capacities as MinCostFlowWS.
func (f *FlowNetwork) MinCostFlowSerial(s, t int, maxFlow int64, stopAtNonNegative bool) MCMFResult {
	if s == t {
		panic("bipartite: MinCostFlow with s == t")
	}
	f.ensureAdj()

	pot := f.bellmanFord(s)
	dist := make([]int64, f.n)
	prevArc := make([]int32, f.n)
	inHeap := make([]int32, f.n)

	var res MCMFResult
	for res.Flow < maxFlow {
		for i := range dist {
			dist[i] = infCost
			prevArc[i] = -1
			inHeap[i] = 0
		}
		dist[s] = 0
		h := heap64{pos: inHeap}
		h.push(int32(s), 0)
		for h.len() > 0 {
			v, dv := h.pop()
			if dv > dist[v] {
				continue
			}
			if v == int32(t) {
				break
			}
			for a, end := f.adjOff[v], f.adjOff[v+1]; a < end; a++ {
				if f.es[a].cap <= 0 {
					continue
				}
				w := f.es[a].to
				rc := f.es[a].cost + pot[v] - pot[w]
				nd := dist[v] + rc
				if nd < dist[w] {
					dist[w] = nd
					prevArc[w] = a
					h.push(w, nd)
				}
			}
		}
		dt := dist[t]
		if dt >= infCost {
			break
		}
		realPathCost := dt - pot[s] + pot[t]
		if stopAtNonNegative && realPathCost >= 0 {
			break
		}
		for v := 0; v < f.n; v++ {
			if dist[v] < dt {
				pot[v] += dist[v]
			} else {
				pot[v] += dt
			}
		}
		push := maxFlow - res.Flow
		for v := int32(t); v != int32(s); {
			a := prevArc[v]
			if f.es[a].cap < push {
				push = f.es[a].cap
			}
			v = f.es[f.pairPos[a]].to
		}
		for v := int32(t); v != int32(s); {
			a := prevArc[v]
			f.es[a].cap -= push
			f.es[f.pairPos[a]].cap += push
			v = f.es[f.pairPos[a]].to
		}
		res.Flow += push
		res.Cost += push * realPathCost
	}
	return res
}

// bellmanFord computes shortest-path potentials from s over arcs with
// positive residual capacity, tolerating negative costs.  Vertices
// unreachable from s keep potential 0 so later reduced costs stay
// well-defined.  Retained as the reference start-up that initPotentials'
// O(E) ordered sweep is pinned against.
func (f *FlowNetwork) bellmanFord(s int) []int64 {
	pot := make([]int64, f.n)
	for i := range pot {
		pot[i] = infCost
	}
	pot[s] = 0
	// SPFA (queue-based Bellman-Ford) — fast on the layered DAG-like
	// networks the b-matching reduction produces.
	inQueue := make([]bool, f.n)
	queue := make([]int32, 0, f.n)
	queue = append(queue, int32(s))
	inQueue[s] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		inQueue[v] = false
		for a, end := f.adjOff[v], f.adjOff[v+1]; a < end; a++ {
			if f.es[a].cap <= 0 {
				continue
			}
			w := f.es[a].to
			nd := pot[v] + f.es[a].cost
			if nd < pot[w] {
				pot[w] = nd
				if !inQueue[w] {
					queue = append(queue, w)
					inQueue[w] = true
				}
			}
		}
	}
	for i := range pot {
		if pot[i] == infCost {
			pot[i] = 0 // unreachable: potential value is irrelevant
		}
	}
	return pot
}

// MaxWeightBMatchingSerial is the reference exact solver: a freshly
// allocated flow network per call solved with MinCostFlowSerial.
func MaxWeightBMatchingSerial(g *Graph, capL, capR []int) BMatching {
	net, edgeArc, s, t := buildAssignmentNetwork(nil, g, capL, capR)
	net.MinCostFlowSerial(s, t, int64(1)<<60, true)
	return collectMatching(g, net, edgeArc)
}

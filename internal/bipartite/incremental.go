package bipartite

import (
	"errors"
	"fmt"
)

// ErrStopped reports that a cooperative cancellation hook fired mid-solve;
// the matcher state is no longer trustworthy and must be rebuilt.
var ErrStopped = errors.New("bipartite: solve cancelled")

// DeltaMatcher maintains an exact maximum-weight b-matching under slot
// arrivals, departures and arc-cost changes, without re-solving from
// scratch.  It is the flow-level engine behind core's `incremental` solver.
//
// # Formulation
//
// The b-matching reduction's source and sink are merged into one node ST,
// turning the assignment network into a circulation instance: ST→l arcs
// with capacity capL, unit matching arcs l→r carrying negated scaled
// weights, r→ST arcs with capacity capR.  A flow with zero divergence at
// every node is a b-matching, and node potentials π that make every
// residual reduced cost non-negative certify there is no negative residual
// cycle — i.e. the matching is maximum-weight.  (The plain s–t view cannot
// express that certificate across rounds: cancelling flow leaves negative
// residual cycles *through* the sink that no s→t shortest path ever sees.)
//
// # Mutations
//
// Every mutation is dual-feasibility-preserving surgery that may leave
// integer imbalances (divergence ≠ 0) behind:
//
//   - removing a slot unflows its arcs and source/sink flow, leaving
//     excesses/deficits at its former partners and at ST;
//   - adding a slot starts at π = π(ST), trivially feasible for its ST arc;
//   - a new or cheapened arc whose reduced cost would go negative is
//     *force-saturated*: pushing its unit keeps the (reverse) residual arc
//     feasible and records a deficit at its tail and an excess at its head.
//
// Reoptimize then resolves all imbalances with multi-source Dijkstra over
// reduced costs (truncated at the first deficit), augmenting one unit per
// round and advancing potentials by the standard min(dist, dist_target)
// clamp.  Flow decomposition guarantees every deficit is reachable from an
// excess in the residual graph, so resolution always terminates; when it
// does, zero divergence plus feasible π certify the matching is again a
// global optimum — bit-identical in objective (Σ of ScaledCost values) to a
// cold exact solve of the mutated instance.  A force-saturated arc that
// should not have been taken is undone by its own reverse arc, and the
// clamp leaves it at reduced cost exactly 0.
//
// The zero-value matcher is empty; seed it with SolveFull.  Not safe for
// concurrent use.  All state is slot-addressed and arena-reused: steady
// rounds allocate nothing.
type DeltaMatcher struct {
	// Stop, when non-nil, is polled once per augmentation in Reoptimize and
	// once per Dijkstra round in SolveFull's import; a true return aborts
	// with ErrStopped and invalidates the matcher.
	Stop func() bool

	// Per-left-slot state.
	capL    []int64
	srcFlow []int64 // flow on the ST→l arc
	potL    []int64
	balL    []int32 // divergence bookkeeping (inflow − outflow)
	aliveL  []bool
	adjL    [][]int32 // live arc ids, unordered
	freeL   []int32

	// Per-right-slot state.
	capR    []int64
	snkFlow []int64 // flow on the r→ST arc
	potR    []int64
	balR    []int32
	aliveR  []bool
	adjR    [][]int32
	freeR   []int32

	potST    int64
	balST    int32
	freeArcs []int32

	arcs     []deltaArc
	liveArcs int
	matched  int
	// objective is Σ(−cost) over flowing arcs — the scaled-int matching
	// weight, the exact quantity the cold kernel maximises.
	objective int64
	// totalDeficit is Σ max(0, −bal) over all nodes: outstanding
	// augmentations Reoptimize owes.
	totalDeficit int
	excess       []int32 // stable node ids that crossed into excess; stale-tolerant

	// Dijkstra scratch, indexed by stable node id (ST=0, left l=2l+1,
	// right r=2r+2 — ids survive slot-array growth mid-batch).
	dist    []int64
	prevK   []int8
	prevI   []int32
	heapEs  []heapEnt
	heapPos []int32
}

// deltaArc is one matching arc.  A freed record has l == -1 and sits on
// freeArcs for reuse; adjacency lists never reference freed records.
type deltaArc struct {
	l, r int32
	cost int64 // ≤ 0: ScaledCost of the edge weight
	flow bool
	ext  int32 // caller tag (core stores the current problem's edge index)
}

// Residual arc kinds recorded on Dijkstra's shortest-path tree.
const (
	arcNone int8 = iota
	arcSTtoL
	arcLtoST
	arcLtoR
	arcRtoL
	arcRtoST
	arcSTtoR
)

// Stable node-id encoding (survives slot-array growth between surgeries).
func idOfL(l int) int32 { return int32(2*l + 1) }
func idOfR(r int) int32 { return int32(2*r + 2) }

const idST = int32(0)

// NumLeftSlots and NumRightSlots return the slot-array sizes (including
// dead slots awaiting reuse).
func (m *DeltaMatcher) NumLeftSlots() int  { return len(m.capL) }
func (m *DeltaMatcher) NumRightSlots() int { return len(m.capR) }

// MatchedCount returns the number of arcs currently carrying flow.
func (m *DeltaMatcher) MatchedCount() int { return m.matched }

// ArcsOfLeft returns the live arc ids of left slot l.  The slice is owned
// by the matcher, is invalidated by any mutation, and must not be modified.
func (m *DeltaMatcher) ArcsOfLeft(l int) []int32 { return m.adjL[l] }

// DegreeLeft and DegreeRight return a slot's live arc count.
func (m *DeltaMatcher) DegreeLeft(l int) int  { return len(m.adjL[l]) }
func (m *DeltaMatcher) DegreeRight(r int) int { return len(m.adjR[r]) }

// LeftCapacity and RightCapacity return a slot's capacity (0 once dead).
func (m *DeltaMatcher) LeftCapacity(l int) int64  { return m.capL[l] }
func (m *DeltaMatcher) RightCapacity(r int) int64 { return m.capR[r] }

// Arc returns arc a's endpoints, cost, flow state and caller tag.
func (m *DeltaMatcher) Arc(a int32) (l, r int, cost int64, flow bool, ext int32) {
	rec := &m.arcs[a]
	return int(rec.l), int(rec.r), rec.cost, rec.flow, rec.ext
}

// SetArcExt updates arc a's caller tag without touching flow or duals.
func (m *DeltaMatcher) SetArcExt(a int32, ext int32) { m.arcs[a].ext = ext }

// AppendMatched appends the ext tag of every flowing arc to dst, in
// left-slot order, and returns the extended slice.  It takes no closure,
// so the caller that counts allocations (the incremental solver's
// per-round extraction) pays only for dst's own growth.
func (m *DeltaMatcher) AppendMatched(dst []int) []int {
	for l := range m.adjL {
		for _, a := range m.adjL[l] {
			if rec := &m.arcs[a]; rec.flow {
				dst = append(dst, int(rec.ext))
			}
		}
	}
	return dst
}

// Balance bookkeeping: every flow mutation below keeps bal == inflow −
// outflow at each node, so a node's bookkept balance is trustworthy at all
// times and totalDeficit counts exactly the augmentations still owed.

func (m *DeltaMatcher) shiftBal(old, nw int32, id int32) {
	if old < 0 {
		m.totalDeficit -= int(-old)
	}
	if nw < 0 {
		m.totalDeficit += int(-nw)
	}
	if nw > 0 && old <= 0 {
		m.excess = append(m.excess, id)
	}
}

func (m *DeltaMatcher) addBalL(l int, d int32) {
	old := m.balL[l]
	m.balL[l] = old + d
	m.shiftBal(old, old+d, idOfL(l))
}

func (m *DeltaMatcher) addBalR(r int, d int32) {
	old := m.balR[r]
	m.balR[r] = old + d
	m.shiftBal(old, old+d, idOfR(r))
}

func (m *DeltaMatcher) addBalST(d int32) {
	old := m.balST
	m.balST = old + d
	m.shiftBal(old, old+d, idST)
}

func (m *DeltaMatcher) balOf(id int32) int32 {
	switch {
	case id == idST:
		return m.balST
	case id&1 == 1:
		return m.balL[(id-1)/2]
	default:
		return m.balR[(id-2)/2]
	}
}

// AddLeft opens a new left slot with the given capacity and returns its
// slot index, reusing a freed slot when one exists.  The new slot starts
// at π(ST), which keeps its (empty-flow) ST arc feasible by construction.
func (m *DeltaMatcher) AddLeft(capacity int) int {
	if capacity < 0 {
		panic("bipartite: negative left capacity")
	}
	var l int
	if n := len(m.freeL); n > 0 {
		l = int(m.freeL[n-1])
		m.freeL = m.freeL[:n-1]
		m.capL[l], m.srcFlow[l], m.potL[l], m.aliveL[l] = int64(capacity), 0, m.potST, true
		m.adjL[l] = m.adjL[l][:0]
	} else {
		l = len(m.capL)
		m.capL = append(m.capL, int64(capacity))
		m.srcFlow = append(m.srcFlow, 0)
		m.potL = append(m.potL, m.potST)
		m.balL = append(m.balL, 0)
		m.aliveL = append(m.aliveL, true)
		m.adjL = append(m.adjL, nil)
	}
	return l
}

// AddRight opens a new right slot; symmetric to AddLeft.
func (m *DeltaMatcher) AddRight(capacity int) int {
	if capacity < 0 {
		panic("bipartite: negative right capacity")
	}
	var r int
	if n := len(m.freeR); n > 0 {
		r = int(m.freeR[n-1])
		m.freeR = m.freeR[:n-1]
		m.capR[r], m.snkFlow[r], m.potR[r], m.aliveR[r] = int64(capacity), 0, m.potST, true
		m.adjR[r] = m.adjR[r][:0]
	} else {
		r = len(m.capR)
		m.capR = append(m.capR, int64(capacity))
		m.snkFlow = append(m.snkFlow, 0)
		m.potR = append(m.potR, m.potST)
		m.balR = append(m.balR, 0)
		m.aliveR = append(m.aliveR, true)
		m.adjR = append(m.adjR, nil)
	}
	return r
}

// allocArc appends or reuses an arc record and links it into both
// adjacency lists.
func (m *DeltaMatcher) allocArc(l, r int, cost int64, ext int32) int32 {
	var a int32
	if n := len(m.freeArcs); n > 0 {
		a = m.freeArcs[n-1]
		m.freeArcs = m.freeArcs[:n-1]
		m.arcs[a] = deltaArc{l: int32(l), r: int32(r), cost: cost, ext: ext}
	} else {
		a = int32(len(m.arcs))
		m.arcs = append(m.arcs, deltaArc{l: int32(l), r: int32(r), cost: cost, ext: ext})
	}
	m.adjL[l] = append(m.adjL[l], a)
	m.adjR[r] = append(m.adjR[r], a)
	m.liveArcs++
	return a
}

// AddArc adds a matching arc between live slots with the given (≤ 0)
// scaled cost.  If the arc's reduced cost under the current duals is
// negative — the new edge is profitable where it stands — it is
// force-saturated: the unit of flow makes the residual (reverse) arc
// feasible and leaves a deficit at l and an excess at r for Reoptimize to
// arbitrate.  Returns the arc id.
func (m *DeltaMatcher) AddArc(l, r int, cost int64, ext int32) int32 {
	if !m.aliveL[l] || !m.aliveR[r] {
		panic("bipartite: AddArc on a dead slot")
	}
	if cost > 0 {
		panic("bipartite: positive arc cost (weights must be non-negative)")
	}
	a := m.allocArc(l, r, cost, ext)
	if cost+m.potL[l]-m.potR[r] < 0 {
		m.arcs[a].flow = true
		m.matched++
		m.objective += -cost
		m.addBalL(l, -1)
		m.addBalR(r, 1)
	}
	return a
}

// SetArcCost re-prices a live arc.  A flowing arc stays matched while its
// reduced cost stays ≤ 0 (the reverse residual arc stays feasible);
// otherwise it is unmatched, leaving an excess at l and a deficit at r.
// An idle arc whose new reduced cost goes negative is force-saturated as
// in AddArc.
func (m *DeltaMatcher) SetArcCost(a int32, cost int64) {
	if cost > 0 {
		panic("bipartite: positive arc cost (weights must be non-negative)")
	}
	rec := &m.arcs[a]
	if rec.l < 0 {
		panic("bipartite: SetArcCost on a freed arc")
	}
	old := rec.cost
	rec.cost = cost
	rc := cost + m.potL[rec.l] - m.potR[rec.r]
	if rec.flow {
		if rc <= 0 {
			m.objective += old - cost
			return
		}
		rec.flow = false
		m.matched--
		m.objective -= -old
		m.addBalL(int(rec.l), 1)
		m.addBalR(int(rec.r), -1)
		return
	}
	if rc < 0 {
		rec.flow = true
		m.matched++
		m.objective += -cost
		m.addBalL(int(rec.l), -1)
		m.addBalR(int(rec.r), 1)
	}
}

// unflowArc removes arc a's unit of flow, adjusting balances as a pure
// flow deletion (the unit vanishes rather than being rerouted).
func (m *DeltaMatcher) unflowArc(rec *deltaArc) {
	rec.flow = false
	m.matched--
	m.objective -= -rec.cost
	m.addBalL(int(rec.l), 1)
	m.addBalR(int(rec.r), -1)
}

// dropFromAdj removes arc a from adj by swap-delete.
func dropFromAdj(adj []int32, a int32) []int32 {
	for i, x := range adj {
		if x == a {
			adj[i] = adj[len(adj)-1]
			return adj[:len(adj)-1]
		}
	}
	panic("bipartite: arc missing from adjacency list")
}

// RemoveLeft closes left slot l: every incident arc is unflowed and freed,
// its source flow is returned to ST, and the slot goes on the free list.
// Flow-conservation bookkeeping guarantees the slot's own balance nets to
// zero; its former partners are left with deficits for Reoptimize.
func (m *DeltaMatcher) RemoveLeft(l int) {
	if !m.aliveL[l] {
		panic("bipartite: RemoveLeft on a dead slot")
	}
	for _, a := range m.adjL[l] {
		rec := &m.arcs[a]
		if rec.flow {
			m.unflowArc(rec)
		}
		m.adjR[rec.r] = dropFromAdj(m.adjR[rec.r], a)
		rec.l = -1
		m.freeArcs = append(m.freeArcs, a)
		m.liveArcs--
	}
	m.adjL[l] = m.adjL[l][:0]
	if sf := m.srcFlow[l]; sf > 0 {
		m.addBalST(int32(sf))
		m.addBalL(l, int32(-sf))
		m.srcFlow[l] = 0
	}
	m.capL[l] = 0
	m.aliveL[l] = false
	m.freeL = append(m.freeL, int32(l))
}

// RemoveRight closes right slot r; symmetric to RemoveLeft.
func (m *DeltaMatcher) RemoveRight(r int) {
	if !m.aliveR[r] {
		panic("bipartite: RemoveRight on a dead slot")
	}
	for _, a := range m.adjR[r] {
		rec := &m.arcs[a]
		if rec.flow {
			m.unflowArc(rec)
		}
		m.adjL[rec.l] = dropFromAdj(m.adjL[rec.l], a)
		rec.l = -1
		m.freeArcs = append(m.freeArcs, a)
		m.liveArcs--
	}
	m.adjR[r] = m.adjR[r][:0]
	if sf := m.snkFlow[r]; sf > 0 {
		m.addBalST(int32(-sf))
		m.addBalR(r, int32(sf))
		m.snkFlow[r] = 0
	}
	m.capR[r] = 0
	m.aliveR[r] = false
	m.freeR = append(m.freeR, int32(r))
}

// Reoptimize resolves every outstanding imbalance and returns the number
// of unit augmentations it ran.  On return with nil error the matcher
// holds a certified maximum-weight b-matching of the mutated instance.
// A non-nil error (cancellation, or an internal invariant breach) leaves
// the matcher invalid; the caller must rebuild via SolveFull.
func (m *DeltaMatcher) Reoptimize() (int, error) {
	if m.totalDeficit == 0 {
		m.excess = m.excess[:0]
		return 0, nil
	}
	ids := 1 + 2*max(len(m.capL), len(m.capR))
	dist := grow(m.dist, ids)
	prevK := grow(m.prevK, ids)
	prevI := grow(m.prevI, ids)
	heapPos := grow(m.heapPos, ids)
	m.dist, m.prevK, m.prevI, m.heapPos = dist, prevK, prevI, heapPos

	augmentations := 0
	for m.totalDeficit > 0 {
		if m.Stop != nil && m.Stop() {
			return augmentations, ErrStopped
		}
		target, err := m.dijkstra(dist, prevK, prevI, heapPos)
		if err != nil {
			return augmentations, err
		}
		m.applyClamp(dist, dist[target])
		src := m.augmentPath(target, prevK, prevI)
		m.addBalIDs(src, -1)
		m.addBalIDs(target, 1)
		augmentations++
	}
	m.excess = m.excess[:0]
	return augmentations, nil
}

func (m *DeltaMatcher) addBalIDs(id int32, d int32) {
	switch {
	case id == idST:
		m.addBalST(d)
	case id&1 == 1:
		m.addBalL(int(id-1)/2, d)
	default:
		m.addBalR(int(id-2)/2, d)
	}
}

// dijkstra runs a multi-source shortest-path search over residual reduced
// costs, seeded at every excess node, truncated at the first deficit node
// it settles.  Returns that node's stable id.
func (m *DeltaMatcher) dijkstra(dist []int64, prevK []int8, prevI, heapPos []int32) (int32, error) {
	for i := range dist {
		dist[i] = infCost
		heapPos[i] = 0
	}
	h := heap64{es: m.heapEs[:0], pos: heapPos}
	kept := m.excess[:0]
	for _, id := range m.excess {
		if m.balOf(id) > 0 && dist[id] != 0 {
			dist[id] = 0
			prevK[id] = arcNone
			kept = append(kept, id)
			h.push(id, 0)
		}
	}
	m.excess = kept

	for h.len() > 0 {
		v, dv := h.pop()
		if dv > dist[v] {
			continue
		}
		if m.balOf(v) < 0 {
			m.heapEs = h.es[:0]
			return v, nil
		}
		switch {
		case v == idST:
			for l, alive := range m.aliveL {
				if alive && m.srcFlow[l] < m.capL[l] {
					m.relax(&h, dist, prevK, prevI, idOfL(l), dv+m.potST-m.potL[l], arcSTtoL, int32(l))
				}
			}
			for r, alive := range m.aliveR {
				if alive && m.snkFlow[r] > 0 {
					m.relax(&h, dist, prevK, prevI, idOfR(r), dv+m.potST-m.potR[r], arcSTtoR, int32(r))
				}
			}
		case v&1 == 1:
			l := int(v-1) / 2
			if m.srcFlow[l] > 0 {
				m.relax(&h, dist, prevK, prevI, idST, dv+m.potL[l]-m.potST, arcLtoST, int32(l))
			}
			for _, a := range m.adjL[l] {
				rec := &m.arcs[a]
				if !rec.flow {
					m.relax(&h, dist, prevK, prevI, idOfR(int(rec.r)), dv+rec.cost+m.potL[l]-m.potR[rec.r], arcLtoR, a)
				}
			}
		default:
			r := int(v-2) / 2
			if m.snkFlow[r] < m.capR[r] {
				m.relax(&h, dist, prevK, prevI, idST, dv+m.potR[r]-m.potST, arcRtoST, int32(r))
			}
			for _, a := range m.adjR[r] {
				rec := &m.arcs[a]
				if rec.flow {
					m.relax(&h, dist, prevK, prevI, idOfL(int(rec.l)), dv-rec.cost+m.potR[r]-m.potL[rec.l], arcRtoL, a)
				}
			}
		}
	}
	m.heapEs = h.es[:0]
	// Flow decomposition guarantees a residual path from some excess to
	// every deficit; exhausting the heap first means the bookkeeping broke.
	return 0, fmt.Errorf("bipartite: %d imbalance units unreachable from any excess", m.totalDeficit)
}

func (m *DeltaMatcher) relax(h *heap64, dist []int64, prevK []int8, prevI []int32, to int32, nd int64, kind int8, idx int32) {
	if nd < dist[to] {
		dist[to] = nd
		prevK[to] = kind
		prevI[to] = idx
		h.push(to, nd)
	}
}

// applyClamp advances every live node's potential by min(dist, D), the
// standard truncated-Dijkstra update that keeps all residual reduced costs
// non-negative and zeroes them along the augmenting path.
func (m *DeltaMatcher) applyClamp(dist []int64, d int64) {
	if dv := dist[idST]; dv < d {
		m.potST += dv
	} else {
		m.potST += d
	}
	for l, alive := range m.aliveL {
		if !alive {
			continue
		}
		if dv := dist[idOfL(l)]; dv < d {
			m.potL[l] += dv
		} else {
			m.potL[l] += d
		}
	}
	for r, alive := range m.aliveR {
		if !alive {
			continue
		}
		if dv := dist[idOfR(r)]; dv < d {
			m.potR[r] += dv
		} else {
			m.potR[r] += d
		}
	}
}

// augmentPath pushes one unit along the shortest-path tree from the
// settled deficit node back to its source and returns the source's id.
func (m *DeltaMatcher) augmentPath(target int32, prevK []int8, prevI []int32) int32 {
	cur := target
	for prevK[cur] != arcNone {
		switch prevK[cur] {
		case arcSTtoL:
			m.srcFlow[prevI[cur]]++
			cur = idST
		case arcLtoST:
			m.srcFlow[prevI[cur]]--
			cur = idOfL(int(prevI[cur]))
		case arcLtoR:
			rec := &m.arcs[prevI[cur]]
			rec.flow = true
			m.matched++
			m.objective += -rec.cost
			cur = idOfL(int(rec.l))
		case arcRtoL:
			rec := &m.arcs[prevI[cur]]
			rec.flow = false
			m.matched--
			m.objective -= -rec.cost
			cur = idOfR(int(rec.r))
		case arcRtoST:
			m.snkFlow[prevI[cur]]++
			cur = idOfR(int(prevI[cur]))
		case arcSTtoR:
			m.snkFlow[prevI[cur]]--
			cur = idST
		}
	}
	return cur
}

// reset clears the matcher to an empty instance with nL left and nR right
// slots, reusing every arena.
func (m *DeltaMatcher) reset(nL, nR int) {
	m.capL = grow(m.capL, nL)
	m.srcFlow = grow(m.srcFlow, nL)
	m.potL = grow(m.potL, nL)
	m.balL = grow(m.balL, nL)
	m.aliveL = grow(m.aliveL, nL)
	clear(m.srcFlow)
	clear(m.balL)
	for i := range m.aliveL {
		m.aliveL[i] = true
	}
	if cap(m.adjL) < nL {
		m.adjL = append(m.adjL[:cap(m.adjL)], make([][]int32, nL-cap(m.adjL))...)
	}
	m.adjL = m.adjL[:nL]
	for i := range m.adjL {
		m.adjL[i] = m.adjL[i][:0]
	}

	m.capR = grow(m.capR, nR)
	m.snkFlow = grow(m.snkFlow, nR)
	m.potR = grow(m.potR, nR)
	m.balR = grow(m.balR, nR)
	m.aliveR = grow(m.aliveR, nR)
	clear(m.snkFlow)
	clear(m.balR)
	for i := range m.aliveR {
		m.aliveR[i] = true
	}
	if cap(m.adjR) < nR {
		m.adjR = append(m.adjR[:cap(m.adjR)], make([][]int32, nR-cap(m.adjR))...)
	}
	m.adjR = m.adjR[:nR]
	for i := range m.adjR {
		m.adjR[i] = m.adjR[i][:0]
	}

	m.freeL = m.freeL[:0]
	m.freeR = m.freeR[:0]
	m.freeArcs = m.freeArcs[:0]
	m.arcs = m.arcs[:0]
	m.excess = m.excess[:0]
	m.liveArcs, m.matched, m.objective = 0, 0, 0
	m.potST, m.balST, m.totalDeficit = 0, 0, 0
}

// SolveFull seeds (or re-seeds) the matcher from a cold/warm exact solve of
// g: the s–t kernel runs inside ws (warm-starting from ws's carried duals
// when they validate), and the solved flow plus its duals are imported into
// the merged-ST view.  Left slot i maps to g's left vertex i, right slot j
// to right vertex j, and each arc's ext tag is set to its g edge index.
// On error the matcher is left empty.
func (m *DeltaMatcher) SolveFull(g *Graph, capL, capR []int, ws *FlowWorkspace) (WarmInfo, error) {
	ws, pooled := acquireFlowWorkspace(ws)
	defer releaseFlowWorkspace(ws, pooled)
	if ws.Stop == nil {
		ws.Stop = m.Stop
		defer func() { ws.Stop = nil }()
	}
	net, edgeArc, s, t := buildAssignmentNetwork(ws, g, capL, capR)
	_, info := net.MinCostFlowWarmWS(s, t, int64(1)<<60, true, ws)
	nL, nR := g.NL(), g.NR()
	m.reset(nL, nR)
	if ws.Stop != nil && ws.Stop() {
		return info, ErrStopped
	}
	for l := 0; l < nL; l++ {
		m.capL[l] = int64(capL[l])
		m.potL[l] = ws.pot[1+l]
	}
	for r := 0; r < nR; r++ {
		m.capR[r] = int64(capR[r])
		m.potR[r] = ws.pot[1+nL+r]
	}
	// Seed π(ST) from the sink's potential: every r↔ST residual constraint
	// is then satisfied by the s–t solve's own feasibility, leaving only
	// source-side arcs for the merge sweep below to repair.
	m.potST = ws.pot[t]
	for i, e := range g.Edges() {
		c := ScaledCost(e.Weight)
		a := m.allocArc(e.L, e.R, c, int32(i))
		if edgeArc[i] >= 0 && net.Flow(int(edgeArc[i])) > 0 {
			m.arcs[a].flow = true
			m.matched++
			m.objective += -c
			m.srcFlow[e.L]++
			m.snkFlow[e.R]++
		}
	}
	if err := m.mergePotentials(); err != nil {
		m.reset(0, 0)
		return info, err
	}
	return info, nil
}

// mergePotentials lowers π until every residual arc of the merged-ST view
// has non-negative reduced cost.  Ordered relaxation from the imported s–t
// duals is Bellman–Ford from a virtual super-source, so on the optimal
// (negative-cycle-free) residual graph it converges within n passes; the
// stop-rule optimum guarantees no negative cycle through ST exists.
func (m *DeltaMatcher) mergePotentials() error {
	maxPasses := len(m.capL) + len(m.capR) + 2
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		for l := range m.capL {
			if m.srcFlow[l] < m.capL[l] && m.potL[l] > m.potST {
				m.potL[l] = m.potST
				changed = true
			}
			if m.srcFlow[l] > 0 && m.potST > m.potL[l] {
				m.potST = m.potL[l]
				changed = true
			}
			for _, a := range m.adjL[l] {
				rec := &m.arcs[a]
				if !rec.flow {
					if nd := m.potL[l] + rec.cost; nd < m.potR[rec.r] {
						m.potR[rec.r] = nd
						changed = true
					}
				} else {
					if nd := m.potR[rec.r] - rec.cost; nd < m.potL[l] {
						m.potL[l] = nd
						changed = true
					}
				}
			}
		}
		for r := range m.capR {
			if m.snkFlow[r] < m.capR[r] && m.potST > m.potR[r] {
				m.potST = m.potR[r]
				changed = true
			}
			if m.snkFlow[r] > 0 && m.potR[r] > m.potST {
				m.potR[r] = m.potST
				changed = true
			}
		}
		if !changed {
			return nil
		}
	}
	return errors.New("bipartite: merged-potential sweep did not converge (negative residual cycle)")
}

package bipartite

import (
	"fmt"
	"math/rand"
	"testing"
)

// mirrorEdge tracks one live matcher arc for the test's oracle model.
type mirrorEdge struct {
	l, r int
	w    float64
}

// mirrorState mirrors the matcher's live instance in plain slices so each
// round can be re-solved cold as an oracle.
type mirrorState struct {
	capL, capR     []int
	aliveL, aliveR []bool
	edges          map[int32]mirrorEdge // keyed by matcher arc id
}

// oracleObjective cold-solves the mirrored instance and returns the
// scaled-integer objective — the quantity DeltaMatcher.Objective reports.
func (ms *mirrorState) oracleObjective(t *testing.T) int64 {
	t.Helper()
	mapL := make([]int, len(ms.capL))
	mapR := make([]int, len(ms.capR))
	var capL, capR []int
	for l := range ms.capL {
		mapL[l] = -1
		if ms.aliveL[l] {
			mapL[l] = len(capL)
			capL = append(capL, ms.capL[l])
		}
	}
	for r := range ms.capR {
		mapR[r] = -1
		if ms.aliveR[r] {
			mapR[r] = len(capR)
			capR = append(capR, ms.capR[r])
		}
	}
	g := NewGraph(len(capL), len(capR))
	for _, e := range ms.edges {
		g.AddEdge(mapL[e.l], mapR[e.r], e.w)
	}
	m := MaxWeightBMatchingWS(g, capL, capR, nil)
	var scaled int64
	for _, ei := range m.EdgeIdx {
		scaled += -ScaledCost(g.Edge(ei).Weight)
	}
	return scaled
}

// seedMirror builds a random instance, seeds the matcher from a full solve
// and returns the synced mirror.
func seedMirror(t *testing.T, m *DeltaMatcher, rng *rand.Rand, nL, nR int, density float64) *mirrorState {
	t.Helper()
	ms := &mirrorState{edges: map[int32]mirrorEdge{}}
	g := NewGraph(nL, nR)
	type raw struct {
		l, r int
		w    float64
	}
	var raws []raw
	for l := 0; l < nL; l++ {
		ms.capL = append(ms.capL, 1+rng.Intn(3))
		ms.aliveL = append(ms.aliveL, true)
	}
	for r := 0; r < nR; r++ {
		ms.capR = append(ms.capR, 1+rng.Intn(2))
		ms.aliveR = append(ms.aliveR, true)
	}
	for l := 0; l < nL; l++ {
		for r := 0; r < nR; r++ {
			if rng.Float64() < density {
				w := rng.Float64()
				g.AddEdge(l, r, w)
				raws = append(raws, raw{l, r, w})
			}
		}
	}
	if _, err := m.SolveFull(g, ms.capL, ms.capR, nil); err != nil {
		t.Fatalf("SolveFull: %v", err)
	}
	// SolveFull allocates arcs in edge order, so re-associate by walking
	// each left slot's arcs through their ext tags.
	for l := 0; l < nL; l++ {
		for _, a := range m.ArcsOfLeft(l) {
			_, _, _, _, ext := m.Arc(a)
			ms.edges[a] = mirrorEdge{l: raws[ext].l, r: raws[ext].r, w: raws[ext].w}
		}
	}
	if len(ms.edges) != len(raws) {
		t.Fatalf("mirror lost edges: %d != %d", len(ms.edges), len(raws))
	}
	return ms
}

func livePick(rng *rand.Rand, alive []bool) int {
	var live []int
	for i, a := range alive {
		if a {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return -1
	}
	return live[rng.Intn(len(live))]
}

// TestDeltaMatcherChurnOracle drives random removal / arrival / re-pricing
// batches through the matcher and checks, every round, that Reoptimize
// restores a matching whose scaled objective is bit-identical to a cold
// exact solve of the same instance, and that every internal invariant
// (balances, capacities, dual feasibility) holds.
func TestDeltaMatcherChurnOracle(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := &DeltaMatcher{}
		ms := seedMirror(t, m, rng, 25, 18, 0.25)
		for round := 0; round < 30; round++ {
			ops := 1 + rng.Intn(6)
			for k := 0; k < ops; k++ {
				switch rng.Intn(6) {
				case 0: // remove a worker
					if l := livePick(rng, ms.aliveL); l >= 0 {
						m.RemoveLeft(l)
						ms.aliveL[l] = false
						for a, e := range ms.edges {
							if e.l == l {
								delete(ms.edges, a)
							}
						}
					}
				case 1: // remove a task
					if r := livePick(rng, ms.aliveR); r >= 0 {
						m.RemoveRight(r)
						ms.aliveR[r] = false
						for a, e := range ms.edges {
							if e.r == r {
								delete(ms.edges, a)
							}
						}
					}
				case 2: // new worker with arcs to a few live tasks
					capacity := 1 + rng.Intn(3)
					l := m.AddLeft(capacity)
					for len(ms.capL) <= l {
						ms.capL = append(ms.capL, 0)
						ms.aliveL = append(ms.aliveL, false)
					}
					ms.capL[l] = capacity
					ms.aliveL[l] = true
					for i := 0; i < 4; i++ {
						if r := livePick(rng, ms.aliveR); r >= 0 {
							if dupArc(ms, l, r) {
								continue
							}
							w := rng.Float64()
							a := m.AddArc(l, r, ScaledCost(w), -1)
							ms.edges[a] = mirrorEdge{l: l, r: r, w: w}
						}
					}
				case 3: // new task with arcs from a few live workers
					capacity := 1 + rng.Intn(2)
					r := m.AddRight(capacity)
					for len(ms.capR) <= r {
						ms.capR = append(ms.capR, 0)
						ms.aliveR = append(ms.aliveR, false)
					}
					ms.capR[r] = capacity
					ms.aliveR[r] = true
					for i := 0; i < 4; i++ {
						if l := livePick(rng, ms.aliveL); l >= 0 {
							if dupArc(ms, l, r) {
								continue
							}
							w := rng.Float64()
							a := m.AddArc(l, r, ScaledCost(w), -1)
							ms.edges[a] = mirrorEdge{l: l, r: r, w: w}
						}
					}
				case 4: // re-price an existing edge
					for a, e := range ms.edges {
						w := rng.Float64()
						m.SetArcCost(a, ScaledCost(w))
						e.w = w
						ms.edges[a] = e
						break
					}
				case 5: // fresh eligibility between existing entities
					l, r := livePick(rng, ms.aliveL), livePick(rng, ms.aliveR)
					if l >= 0 && r >= 0 && !dupArc(ms, l, r) {
						w := rng.Float64()
						a := m.AddArc(l, r, ScaledCost(w), -1)
						ms.edges[a] = mirrorEdge{l: l, r: r, w: w}
					}
				}
			}
			if _, err := m.Reoptimize(); err != nil {
				t.Fatalf("seed %d round %d: Reoptimize: %v", seed, round, err)
			}
			if m.totalDeficit != 0 {
				t.Fatalf("seed %d round %d: deficit %d after Reoptimize", seed, round, m.totalDeficit)
			}
			if err := m.Verify(); err != nil {
				t.Fatalf("seed %d round %d: Verify: %v", seed, round, err)
			}
			want := ms.oracleObjective(t)
			if got := m.Objective(); got != want {
				t.Fatalf("seed %d round %d: objective %d != oracle %d", seed, round, got, want)
			}
		}
	}
}

func dupArc(ms *mirrorState, l, r int) bool {
	for _, e := range ms.edges {
		if e.l == l && e.r == r {
			return true
		}
	}
	return false
}

// TestDeltaMatcherRemovalCycle reproduces the case that breaks naive
// cancel-and-re-augment schemes: removing a worker leaves a negative
// residual cycle through the sink that only the merged-ST view repairs.
// l0 is matched to r1 (its best partner r0 being taken by l1); removing
// l1 must reroute l0 to r0.
func TestDeltaMatcherRemovalCycle(t *testing.T) {
	g := NewGraph(2, 2)
	g.AddEdge(0, 0, 0.9) // l0–r0
	g.AddEdge(0, 1, 0.1) // l0–r1
	g.AddEdge(1, 0, 1.0) // l1–r0
	m := &DeltaMatcher{}
	if _, err := m.SolveFull(g, []int{1, 1}, []int{1, 1}, nil); err != nil {
		t.Fatalf("SolveFull: %v", err)
	}
	if got, want := m.Objective(), -ScaledCost(1.0)-ScaledCost(0.1); got != want {
		t.Fatalf("seed objective %d, want %d", got, want)
	}
	m.RemoveLeft(1)
	if _, err := m.Reoptimize(); err != nil {
		t.Fatalf("Reoptimize: %v", err)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if got, want := m.Objective(), -ScaledCost(0.9); got != want {
		t.Fatalf("objective after removal %d, want %d (l0 must reroute to r0)", got, want)
	}
	if m.MatchedCount() != 1 {
		t.Fatalf("matched %d, want 1", m.MatchedCount())
	}
}

// TestDeltaMatcherFromEmpty seeds from an edgeless instance and grows the
// whole market through the delta path.
func TestDeltaMatcherFromEmpty(t *testing.T) {
	m := &DeltaMatcher{}
	if _, err := m.SolveFull(NewGraph(0, 0), nil, nil, nil); err != nil {
		t.Fatalf("SolveFull: %v", err)
	}
	l0 := m.AddLeft(2)
	r0 := m.AddRight(1)
	r1 := m.AddRight(1)
	m.AddArc(l0, r0, ScaledCost(0.5), -1)
	m.AddArc(l0, r1, ScaledCost(0.25), -1)
	if _, err := m.Reoptimize(); err != nil {
		t.Fatalf("Reoptimize: %v", err)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if got, want := m.Objective(), -ScaledCost(0.5)-ScaledCost(0.25); got != want {
		t.Fatalf("objective %d, want %d", got, want)
	}
}

// TestWarmStartMatchesCold checks the rebuilt-network warm path: a pinned
// workspace carries duals across solves, the second solve reports warm
// engagement, and perturbed weights still produce the cold optimum.
func TestWarmStartMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nL, nR := 40, 30
	weights := make([]float64, 0, nL*nR)
	build := func() *Graph {
		g := NewGraph(nL, nR)
		i := 0
		for l := 0; l < nL; l++ {
			for r := 0; r < nR; r++ {
				if (l+r)%3 == 0 {
					g.AddEdge(l, r, weights[i])
					i++
				}
			}
		}
		return g
	}
	for l := 0; l < nL; l++ {
		for r := 0; r < nR; r++ {
			if (l+r)%3 == 0 {
				weights = append(weights, rng.Float64())
			}
		}
	}
	capL := make([]int, nL)
	capR := make([]int, nR)
	for i := range capL {
		capL[i] = 1 + rng.Intn(2)
	}
	for i := range capR {
		capR[i] = 1 + rng.Intn(2)
	}
	ws := NewFlowWorkspace()
	first, info := MaxWeightBMatchingWarmWS(build(), capL, capR, ws)
	if info.Warm {
		t.Fatal("first solve cannot be warm")
	}
	// Same instance again: duals must validate (repair allowed — the
	// rebuilt network has zero flow, so previously saturated arcs start
	// violated) and the result must be identical.
	second, info := MaxWeightBMatchingWarmWS(build(), capL, capR, ws)
	if !info.Warm {
		t.Fatalf("second solve not warm: %+v", info)
	}
	if first.Weight != second.Weight {
		t.Fatalf("warm weight %v != cold weight %v", second.Weight, first.Weight)
	}
	// Perturb weights; warm solve must still match a cold reference.
	for i := range weights {
		if rng.Float64() < 0.2 {
			weights[i] = rng.Float64()
		}
	}
	warm, _ := MaxWeightBMatchingWarmWS(build(), capL, capR, ws)
	cold := MaxWeightBMatchingWS(build(), capL, capR, nil)
	var sw, sc int64
	g := build()
	for _, ei := range warm.EdgeIdx {
		sw += -ScaledCost(g.Edge(ei).Weight)
	}
	for _, ei := range cold.EdgeIdx {
		sc += -ScaledCost(g.Edge(ei).Weight)
	}
	if sw != sc {
		t.Fatalf("warm objective %d != cold %d after perturbation", sw, sc)
	}
	// Shape change (one more left vertex) must refuse the carried duals
	// gracefully and fall back cold.
	nL++
	weights = weights[:0]
	for l := 0; l < nL; l++ {
		for r := 0; r < nR; r++ {
			if (l+r)%3 == 0 {
				weights = append(weights, rng.Float64())
			}
		}
	}
	capL = append(capL, 1)
	grown, info := MaxWeightBMatchingWarmWS(build(), capL, capR, ws)
	if info.Warm {
		t.Fatal("size change must cold-start")
	}
	ref := MaxWeightBMatchingWS(build(), capL, capR, nil)
	if grown.Weight != ref.Weight {
		t.Fatalf("fallback weight %v != cold %v", grown.Weight, ref.Weight)
	}
}

// Objective returns the scaled-integer matching weight Σ round(w·1e9),
// the exact objective the cold kernel maximises.
func (m *DeltaMatcher) Objective() int64 { return m.objective }

// Verify exhaustively checks the matcher's invariants: balance bookkeeping
// against actual flow divergence, capacity bounds, dual feasibility of
// every residual arc, and the objective/matched counters.  Test and
// self-check hook; O(V + E).
func (m *DeltaMatcher) Verify() error {
	var st int64
	inL := make([]int64, len(m.capL))
	matched, liveArcs := 0, 0
	var objective int64
	for l := range m.adjL {
		if !m.aliveL[l] && (len(m.adjL[l]) > 0 || m.srcFlow[l] != 0) {
			return fmt.Errorf("dead left slot %d still has arcs or source flow", l)
		}
		for _, a := range m.adjL[l] {
			rec := &m.arcs[a]
			liveArcs++
			if int(rec.l) != l {
				return fmt.Errorf("arc %d in adjL[%d] claims tail %d", a, l, rec.l)
			}
			if rec.flow {
				matched++
				objective += -rec.cost
				inL[l]--
			}
			// Dual feasibility: idle arcs need rc ≥ 0, flowing arcs rc ≤ 0
			// (their reverse is the residual arc).
			rc := rec.cost + m.potL[l] - m.potR[rec.r]
			if !rec.flow && rc < 0 {
				return fmt.Errorf("idle arc %d has negative reduced cost %d", a, rc)
			}
			if rec.flow && rc > 0 {
				return fmt.Errorf("flowing arc %d has positive reduced cost %d", a, rc)
			}
		}
		if m.srcFlow[l] < 0 || m.srcFlow[l] > m.capL[l] {
			return fmt.Errorf("left slot %d source flow %d outside [0,%d]", l, m.srcFlow[l], m.capL[l])
		}
		if m.aliveL[l] {
			if m.srcFlow[l] > 0 && m.potST > m.potL[l] {
				return fmt.Errorf("left slot %d: reverse source arc infeasible", l)
			}
			if m.srcFlow[l] < m.capL[l] && m.potL[l] > m.potST {
				return fmt.Errorf("left slot %d: source arc infeasible", l)
			}
		}
		inL[l] += m.srcFlow[l]
		st -= m.srcFlow[l]
	}
	for r := range m.adjR {
		if !m.aliveR[r] && (len(m.adjR[r]) > 0 || m.snkFlow[r] != 0) {
			return fmt.Errorf("dead right slot %d still has arcs or sink flow", r)
		}
		if m.snkFlow[r] < 0 || m.snkFlow[r] > m.capR[r] {
			return fmt.Errorf("right slot %d sink flow %d outside [0,%d]", r, m.snkFlow[r], m.capR[r])
		}
		if m.aliveR[r] {
			if m.snkFlow[r] > 0 && m.potR[r] > m.potST {
				return fmt.Errorf("right slot %d: reverse sink arc infeasible", r)
			}
			if m.snkFlow[r] < m.capR[r] && m.potST > m.potR[r] {
				return fmt.Errorf("right slot %d: sink arc infeasible", r)
			}
		}
		st += m.snkFlow[r]
		var div int64
		for _, a := range m.adjR[r] {
			if int(m.arcs[a].r) != r {
				return fmt.Errorf("arc %d in adjR[%d] claims head %d", a, r, m.arcs[a].r)
			}
			if m.arcs[a].flow {
				div++
			}
		}
		div -= m.snkFlow[r]
		if int32(div) != m.balR[r] {
			return fmt.Errorf("right slot %d divergence %d != bookkept balance %d", r, div, m.balR[r])
		}
	}
	for l := range inL {
		if int32(inL[l]) != m.balL[l] {
			return fmt.Errorf("left slot %d divergence %d != bookkept balance %d", l, inL[l], m.balL[l])
		}
	}
	if int32(st) != m.balST {
		return fmt.Errorf("ST divergence %d != bookkept balance %d", st, m.balST)
	}
	if matched != m.matched {
		return fmt.Errorf("matched recount %d != counter %d", matched, m.matched)
	}
	if liveArcs != m.liveArcs {
		return fmt.Errorf("live-arc recount %d != counter %d", liveArcs, m.liveArcs)
	}
	if objective != m.objective {
		return fmt.Errorf("objective recount %d != counter %d", objective, m.objective)
	}
	return nil
}

// MaxWeightBMatchingWarmWS is MaxWeightBMatchingWS through the warm-start
// path: a pinned ws carries the previous round's duals into this solve.
// The matching is exactly as optimal as the cold entry point; WarmInfo
// reports whether persistence actually engaged.
func MaxWeightBMatchingWarmWS(g *Graph, capL, capR []int, ws *FlowWorkspace) (BMatching, WarmInfo) {
	ws, pooled := acquireFlowWorkspace(ws)
	net, edgeArc, s, t := buildAssignmentNetwork(ws, g, capL, capR)
	_, info := net.MinCostFlowWarmWS(s, t, int64(1)<<60, true, ws)
	m := collectMatching(g, net, edgeArc)
	releaseFlowWorkspace(ws, pooled)
	return m, info
}

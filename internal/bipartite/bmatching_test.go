package bipartite

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// bruteMaxWeightBMatching enumerates all edge subsets (instances are kept
// tiny) and returns the best feasible total weight.
func bruteMaxWeightBMatching(g *Graph, capL, capR []int) float64 {
	m := g.NumEdges()
	if m > 20 {
		panic("brute force limited to 20 edges")
	}
	best := 0.0
	for mask := 0; mask < 1<<m; mask++ {
		degL := make([]int, g.NL())
		degR := make([]int, g.NR())
		w := 0.0
		ok := true
		for i := 0; i < m && ok; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			e := g.Edge(i)
			degL[e.L]++
			degR[e.R]++
			if degL[e.L] > capL[e.L] || degR[e.R] > capR[e.R] {
				ok = false
			}
			w += e.Weight
		}
		if ok && w > best {
			best = w
		}
	}
	return best
}

func feasible(t *testing.T, g *Graph, m BMatching, capL, capR []int) {
	t.Helper()
	degL := make([]int, g.NL())
	degR := make([]int, g.NR())
	seen := map[int]bool{}
	total := 0.0
	for _, ei := range m.EdgeIdx {
		if seen[ei] {
			t.Fatalf("edge %d chosen twice", ei)
		}
		seen[ei] = true
		e := g.Edge(ei)
		degL[e.L]++
		degR[e.R]++
		total += e.Weight
	}
	for l, d := range degL {
		if d > capL[l] {
			t.Fatalf("left %d over capacity: %d > %d", l, d, capL[l])
		}
	}
	for r, d := range degR {
		if d > capR[r] {
			t.Fatalf("right %d over capacity: %d > %d", r, d, capR[r])
		}
	}
	if math.Abs(total-m.Weight) > 1e-9 {
		t.Fatalf("reported weight %v != recomputed %v", m.Weight, total)
	}
}

func TestMaxWeightBMatchingSimple(t *testing.T) {
	// Two workers, one task needing 1 worker: must pick the heavier edge.
	g := NewGraph(2, 1)
	g.AddEdge(0, 0, 0.3)
	g.AddEdge(1, 0, 0.9)
	m := MaxWeightBMatching(g, []int{1, 1}, []int{1})
	if len(m.EdgeIdx) != 1 || g.Edge(m.EdgeIdx[0]).L != 1 {
		t.Fatalf("picked %v", m)
	}
	if math.Abs(m.Weight-0.9) > 1e-9 {
		t.Fatalf("weight %v", m.Weight)
	}
}

func TestMaxWeightBMatchingUsesCapacities(t *testing.T) {
	// One worker with capacity 2 serving two tasks.
	g := NewGraph(1, 2)
	g.AddEdge(0, 0, 0.5)
	g.AddEdge(0, 1, 0.6)
	m := MaxWeightBMatching(g, []int{2}, []int{1, 1})
	if len(m.EdgeIdx) != 2 || math.Abs(m.Weight-1.1) > 1e-9 {
		t.Fatalf("m = %+v", m)
	}
	// With capacity 1 only the better edge survives.
	m = MaxWeightBMatching(g, []int{1}, []int{1, 1})
	if len(m.EdgeIdx) != 1 || math.Abs(m.Weight-0.6) > 1e-9 {
		t.Fatalf("m = %+v", m)
	}
}

func TestMaxWeightBMatchingZeroCapacity(t *testing.T) {
	g := NewGraph(1, 1)
	g.AddEdge(0, 0, 1)
	m := MaxWeightBMatching(g, []int{0}, []int{1})
	if len(m.EdgeIdx) != 0 {
		t.Fatal("zero-capacity worker must stay unmatched")
	}
}

func TestMaxWeightBMatchingEmptyGraph(t *testing.T) {
	g := NewGraph(3, 3)
	m := MaxWeightBMatching(g, []int{1, 1, 1}, []int{1, 1, 1})
	if len(m.EdgeIdx) != 0 || m.Weight != 0 {
		t.Fatalf("m = %+v", m)
	}
}

func TestMaxWeightBMatchingTradesCardinalityForWeight(t *testing.T) {
	// A single heavy edge can beat two light ones when they conflict:
	// L0-R0 (1.0) vs L0-R1 (0.2) + L1-R0 (0.2) with all capacities 1.
	// Max weight picks both light? 0.4 < 1.0, and the heavy edge blocks
	// neither light edge's partner... actually heavy uses L0 and R0, blocking
	// both light edges, so the choice is {heavy}=1.0 vs {two light}=0.4.
	g := NewGraph(2, 2)
	g.AddEdge(0, 0, 1.0)
	g.AddEdge(0, 1, 0.2)
	g.AddEdge(1, 0, 0.2)
	m := MaxWeightBMatching(g, []int{1, 1}, []int{1, 1})
	// Optimum is heavy + nothing else? L0-R0 (1.0) plus no other feasible
	// edge (L1-R1 absent) = 1.0, vs 0.4.  But wait: with heavy chosen, L1
	// and R1 are free yet not adjacent.  So best = 1.0.
	if math.Abs(m.Weight-1.0) > 1e-9 {
		t.Fatalf("weight = %v, want 1.0 (%+v)", m.Weight, m)
	}
}

func TestMaxWeightBMatchingMatchesBruteForce(t *testing.T) {
	r := stats.NewRNG(606)
	for trial := 0; trial < 60; trial++ {
		nL := r.IntRange(1, 4)
		nR := r.IntRange(1, 4)
		g := NewGraph(nL, nR)
		for l := 0; l < nL; l++ {
			for rr := 0; rr < nR; rr++ {
				if r.Bool(0.6) && g.NumEdges() < 12 {
					// Two-decimal weights keep the scaled-integer solver and
					// the float brute force exactly comparable.
					g.AddEdge(l, rr, math.Round(r.Float64()*100)/100)
				}
			}
		}
		capL := make([]int, nL)
		capR := make([]int, nR)
		for i := range capL {
			capL[i] = r.IntRange(0, 3)
		}
		for i := range capR {
			capR[i] = r.IntRange(0, 3)
		}
		m := MaxWeightBMatching(g, capL, capR)
		feasible(t, g, m, capL, capR)
		want := bruteMaxWeightBMatching(g, capL, capR)
		if math.Abs(m.Weight-want) > 1e-6 {
			t.Fatalf("trial %d: flow %v vs brute %v", trial, m.Weight, want)
		}
	}
}

func TestMaxWeightBMatchingMatchesHungarianOnSquare(t *testing.T) {
	r := stats.NewRNG(707)
	for trial := 0; trial < 20; trial++ {
		n := r.IntRange(2, 8)
		g := NewGraph(n, n)
		weight := make([][]float64, n)
		for i := 0; i < n; i++ {
			weight[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				w := math.Round(r.Float64()*1000) / 1000
				weight[i][j] = w
				g.AddEdge(i, j, w)
			}
		}
		ones := make([]int, n)
		for i := range ones {
			ones[i] = 1
		}
		m := MaxWeightBMatching(g, ones, ones)
		_, hTotal := HungarianMax(weight)
		// Hungarian solves the *perfect* matching variant; with non-negative
		// weights the max-weight b-matching is at least as good and the
		// perfect matching is feasible for it, so they must agree.
		if m.Weight < hTotal-1e-6 {
			t.Fatalf("trial %d: bmatching %v < hungarian %v", trial, m.Weight, hTotal)
		}
		if m.Weight > hTotal+1e-6 {
			// b-matching can only exceed Hungarian by being non-perfect, but
			// dropping an edge never raises a non-negative sum: impossible.
			t.Fatalf("trial %d: bmatching %v > hungarian %v", trial, m.Weight, hTotal)
		}
	}
}

func TestMaxWeightBMatchingPanics(t *testing.T) {
	g := NewGraph(1, 1)
	g.AddEdge(0, 0, -0.5)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative weight did not panic")
			}
		}()
		MaxWeightBMatching(g, []int{1}, []int{1})
	}()
	g2 := NewGraph(2, 1)
	g2.AddEdge(0, 0, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("capacity length mismatch did not panic")
			}
		}()
		MaxWeightBMatching(g2, []int{1}, []int{1, 1})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative capacity did not panic")
			}
		}()
		MaxWeightBMatching(g2, []int{-1, 1}, []int{1})
	}()
}

// Property: the solver's result is always feasible and never below the
// weight of any single edge (with positive capacities).
func TestQuickBMatchingFeasibleAndMaximal(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		nL := r.IntRange(1, 6)
		nR := r.IntRange(1, 6)
		g := NewGraph(nL, nR)
		for l := 0; l < nL; l++ {
			for rr := 0; rr < nR; rr++ {
				if r.Bool(0.4) {
					g.AddEdge(l, rr, r.Float64())
				}
			}
		}
		capL := make([]int, nL)
		capR := make([]int, nR)
		for i := range capL {
			capL[i] = r.IntRange(1, 3)
		}
		for i := range capR {
			capR[i] = r.IntRange(1, 3)
		}
		m := MaxWeightBMatching(g, capL, capR)
		degL := make([]int, nL)
		degR := make([]int, nR)
		for _, ei := range m.EdgeIdx {
			e := g.Edge(ei)
			degL[e.L]++
			degR[e.R]++
		}
		for l, d := range degL {
			if d > capL[l] {
				return false
			}
		}
		for r2, d := range degR {
			if d > capR[r2] {
				return false
			}
		}
		// With all capacities >= 1, the optimum is at least the max edge.
		maxEdge := 0.0
		for _, e := range g.Edges() {
			if e.Weight > maxEdge {
				maxEdge = e.Weight
			}
		}
		return m.Weight >= maxEdge-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestMaxCardinalityBMatching: with every weight equal, the max-weight
// b-matching is a maximum-cardinality one, so the exact engine also answers
// "how many assignment slots can be filled at all".
func TestMaxCardinalityBMatching(t *testing.T) {
	g := NewGraph(2, 2)
	g.AddEdge(0, 0, 0.1)
	g.AddEdge(0, 1, 0.1)
	g.AddEdge(1, 0, 0.1)
	m := MaxWeightBMatching(g, []int{1, 1}, []int{1, 1})
	if len(m.EdgeIdx) != 2 {
		t.Fatalf("cardinality = %d, want 2", len(m.EdgeIdx))
	}
	// With worker 0 capacity 2, all three edges fit? deg constraints:
	// L0 ≤ 2 (edges to R0,R1), L1 ≤ 1 (edge to R0) but R0 ≤ 1 blocks one.
	m = MaxWeightBMatching(g, []int{2, 1}, []int{1, 1})
	if len(m.EdgeIdx) != 2 {
		t.Fatalf("cardinality = %d, want 2", len(m.EdgeIdx))
	}
	m = MaxWeightBMatching(g, []int{2, 1}, []int{2, 1})
	if len(m.EdgeIdx) != 3 {
		t.Fatalf("cardinality = %d, want 3", len(m.EdgeIdx))
	}
}

// TestBMatchingZeroCapacitySkipsArcs is the regression test for the flow
// reduction's zero-capacity handling: edges whose worker or task has
// capacity 0 must not emit unit arcs at all (they could never carry flow),
// and the solve must still match the brute-force optimum of the remaining
// market.
func TestBMatchingZeroCapacitySkipsArcs(t *testing.T) {
	g := NewGraph(3, 3)
	g.AddEdge(0, 0, 0.9) // worker 0 has capacity 0: excluded however heavy
	g.AddEdge(0, 1, 0.8)
	g.AddEdge(1, 1, 0.7)
	g.AddEdge(1, 2, 0.6) // task 2 has replication 0: excluded
	g.AddEdge(2, 1, 0.5)
	capL := []int{0, 1, 1}
	capR := []int{1, 1, 0}

	net, edgeArc, _, _ := buildAssignmentNetwork(nil, g, capL, capR)
	for i, want := range []bool{true, true, false, true, false} {
		if skipped := edgeArc[i] < 0; skipped != want {
			t.Errorf("edge %d: skipped = %v, want %v", i, skipped, want)
		}
	}
	// Arcs: 2 usable source arcs (workers 1, 2), 2 unit arcs, 2 sink arcs
	// (tasks 0, 1) — 6 AddEdge calls → 12 paired arcs, and nothing for the
	// zero-capacity endpoints.
	if net.NumArcs() != 12 {
		t.Errorf("network has %d arcs, want 12", net.NumArcs())
	}

	m := MaxWeightBMatching(g, capL, capR)
	feasible(t, g, m, capL, capR)
	if want := bruteMaxWeightBMatching(g, capL, capR); math.Abs(m.Weight-want) > 1e-9 {
		t.Errorf("weight %v, want brute-force optimum %v", m.Weight, want)
	}
	// Best remaining: worker 1 takes task 1 (0.7); worker 2 blocked on task
	// 1, task 0 unreachable — optimum 0.7 via edge 2.
	if len(m.EdgeIdx) != 1 || m.EdgeIdx[0] != 2 {
		t.Errorf("picked %v, want [2]", m.EdgeIdx)
	}

}

package bipartite

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// The parity suite pins every overhauled workspace kernel against its
// retained Serial reference, bit for bit: identical matched pair sets,
// identical weights, identical per-arc flows — across seeds, three graph
// generators and repeated solves through one pinned workspace (so arena
// reuse cannot leak state between instances).

// graphGen builds a random bipartite instance: graph plus both capacity
// vectors.  Weights are two-decimal so scaled-integer and float arithmetic
// stay exactly comparable.
type graphGen struct {
	name string
	gen  func(r *stats.RNG) (*Graph, []int, []int)
}

func parityGenerators() []graphGen {
	return []graphGen{
		{"uniform-sparse", func(r *stats.RNG) (*Graph, []int, []int) {
			nL, nR := r.IntRange(1, 12), r.IntRange(1, 12)
			g := NewGraph(nL, nR)
			for l := 0; l < nL; l++ {
				for rr := 0; rr < nR; rr++ {
					if r.Bool(0.25) {
						g.AddEdge(l, rr, math.Round(r.Float64()*100)/100)
					}
				}
			}
			return g, randomCaps(r, nL, 0, 3), randomCaps(r, nR, 0, 3)
		}},
		{"dense", func(r *stats.RNG) (*Graph, []int, []int) {
			nL, nR := r.IntRange(2, 8), r.IntRange(2, 8)
			g := NewGraph(nL, nR)
			for l := 0; l < nL; l++ {
				for rr := 0; rr < nR; rr++ {
					if r.Bool(0.9) {
						g.AddEdge(l, rr, math.Round(r.Float64()*100)/100)
					}
				}
			}
			return g, randomCaps(r, nL, 1, 4), randomCaps(r, nR, 1, 4)
		}},
		{"skewed", func(r *stats.RNG) (*Graph, []int, []int) {
			// A handful of popular right vertices soak up most edges —
			// the shape the Zipf market generators produce.
			nL, nR := r.IntRange(3, 14), r.IntRange(2, 10)
			g := NewGraph(nL, nR)
			for l := 0; l < nL; l++ {
				deg := r.IntRange(0, 4)
				for k := 0; k < deg; k++ {
					rr := r.IntRange(0, nR/2+1)
					if rr >= nR {
						rr = nR - 1
					}
					g.AddEdge(l, rr, math.Round(r.Float64()*100)/100)
				}
			}
			return g, randomCaps(r, nL, 0, 2), randomCaps(r, nR, 1, 5)
		}},
	}
}

func randomCaps(r *stats.RNG, n, lo, hi int) []int {
	caps := make([]int, n)
	for i := range caps {
		caps[i] = r.IntRange(lo, hi)
	}
	return caps
}

func matchingsEqual(t *testing.T, label string, got, want BMatching) {
	t.Helper()
	if !slices.Equal(got.EdgeIdx, want.EdgeIdx) {
		t.Fatalf("%s: edge sets diverge:\n  ws     %v\n  serial %v", label, got.EdgeIdx, want.EdgeIdx)
	}
	if got.Weight != want.Weight {
		t.Fatalf("%s: weights diverge: ws %v serial %v", label, got.Weight, want.Weight)
	}
}

// TestMaxWeightBMatchingBitIdenticalToSerial pins the workspace exact
// solver against MaxWeightBMatchingSerial across 24 seeds × all generators,
// solving every instance through one pinned workspace so cross-instance
// arena reuse is part of what is tested.
func TestMaxWeightBMatchingBitIdenticalToSerial(t *testing.T) {
	ws := NewFlowWorkspace()
	for _, gen := range parityGenerators() {
		for seed := uint64(0); seed < 24; seed++ {
			r := stats.NewRNG(seed*7919 + 13)
			g, capL, capR := gen.gen(r)
			want := MaxWeightBMatchingSerial(g, capL, capR)
			got := MaxWeightBMatchingWS(g, capL, capR, ws)
			matchingsEqual(t, gen.name, got, want)
			// A second solve through the warmed workspace must not drift.
			again := MaxWeightBMatchingWS(g, capL, capR, ws)
			matchingsEqual(t, gen.name+"/reuse", again, want)
		}
	}
}

// TestMaxCardinalityBMatchingBitIdenticalToSerial does the same with every
// weight set to 1: the solve is then a maximum-cardinality b-matching in
// which every augmenting path ties, and the workspace solver must still
// pick the reference's exact edge set.
func TestMaxCardinalityBMatchingBitIdenticalToSerial(t *testing.T) {
	ws := NewFlowWorkspace()
	for _, gen := range parityGenerators() {
		for seed := uint64(0); seed < 24; seed++ {
			r := stats.NewRNG(seed*104729 + 7)
			g, capL, capR := gen.gen(r)
			unit := NewGraph(g.NL(), g.NR())
			for _, e := range g.Edges() {
				unit.AddEdge(e.L, e.R, 1)
			}
			want := MaxWeightBMatchingSerial(unit, capL, capR)
			got := MaxWeightBMatchingWS(unit, capL, capR, ws)
			matchingsEqual(t, gen.name, got, want)
		}
	}
}

// TestMinCostFlowBitIdenticalToSerial compares the workspace solver against
// the Bellman–Ford reference on random layered networks with negative
// costs: identical flow, cost and full residual state.
func TestMinCostFlowBitIdenticalToSerial(t *testing.T) {
	ws := NewFlowWorkspace()
	for seed := uint64(0); seed < 30; seed++ {
		r := stats.NewRNG(seed*2741 + 29)
		n := r.IntRange(4, 12)
		build := func() *FlowNetwork {
			r := stats.NewRNG(seed*2741 + 29)
			r.IntRange(4, 12) // burn the same draw
			f := NewFlowNetwork(n, n*n)
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if r.Bool(0.4) {
						f.AddEdge(u, v, int64(r.IntRange(1, 5)), int64(r.IntRange(0, 9))-3)
					}
				}
			}
			return f
		}
		a, b := build(), build()
		stop := seed%2 == 0
		ra := a.MinCostFlowWS(0, n-1, 1<<40, stop, ws)
		rb := b.MinCostFlowSerial(0, n-1, 1<<40, stop)
		if ra != rb {
			t.Fatalf("seed %d: ws %+v vs serial %+v", seed, ra, rb)
		}
		if !slices.Equal(a.es, b.es) {
			t.Fatalf("seed %d: residual capacities diverge", seed)
		}
	}
}

// TestQuickFlowEnginesAgree: the workspace kernel and the Bellman–Ford
// reference agree on flow, cost and residual state on arbitrary random
// networks with cycles and non-negative costs — vertex order is not
// topological there, so initPotentials must fall back to repeated passes.
func TestQuickFlowEnginesAgree(t *testing.T) {
	f := func(seed uint64) bool {
		build := func() *FlowNetwork {
			r := stats.NewRNG(seed)
			n := r.IntRange(3, 10)
			f := NewFlowNetwork(n, n*n)
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if u != v && r.Bool(0.35) {
						f.AddEdge(u, v, int64(r.IntRange(1, 10)), int64(r.IntRange(0, 9)))
					}
				}
			}
			return f
		}
		a, b := build(), build()
		n := a.n
		return a.MinCostFlow(0, n-1, 1<<40, false) == b.MinCostFlowSerial(0, n-1, 1<<40, false) &&
			slices.Equal(a.es, b.es)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMaxWeightBMatchingWSAllocs enforces the steady-state allocation
// budget: with a warmed pinned workspace an exact solve allocates only the
// returned matching (EdgeIdx) — a handful of allocs, not a per-augmentation
// storm.
func TestMaxWeightBMatchingWSAllocs(t *testing.T) {
	r := stats.NewRNG(99)
	nL, nR := 40, 30
	g := NewGraph(nL, nR)
	for l := 0; l < nL; l++ {
		for rr := 0; rr < nR; rr++ {
			if r.Bool(0.3) {
				g.AddEdge(l, rr, math.Round(r.Float64()*100)/100)
			}
		}
	}
	capL := randomCaps(r, nL, 1, 3)
	capR := randomCaps(r, nR, 1, 3)
	ws := NewFlowWorkspace()
	MaxWeightBMatchingWS(g, capL, capR, ws) // warm the arenas
	allocs := testing.AllocsPerRun(20, func() {
		MaxWeightBMatchingWS(g, capL, capR, ws)
	})
	if allocs > 4 {
		t.Fatalf("steady-state exact solve allocates %.0f/op, want <= 4", allocs)
	}
}

// TestFlowWorkspaceShapeChange checks a pinned workspace survives solving
// instances of very different shapes back to back — arenas grow, never
// corrupt.
func TestFlowWorkspaceShapeChange(t *testing.T) {
	ws := NewFlowWorkspace()
	r := stats.NewRNG(5)
	shapes := []struct{ nL, nR int }{{2, 3}, {20, 15}, {1, 1}, {8, 30}}
	for _, sh := range shapes {
		g := NewGraph(sh.nL, sh.nR)
		for l := 0; l < sh.nL; l++ {
			for rr := 0; rr < sh.nR; rr++ {
				if r.Bool(0.5) {
					g.AddEdge(l, rr, math.Round(r.Float64()*100)/100)
				}
			}
		}
		capL := randomCaps(r, sh.nL, 1, 2)
		capR := randomCaps(r, sh.nR, 1, 2)
		matchingsEqual(t, "shape-change",
			MaxWeightBMatchingWS(g, capL, capR, ws),
			MaxWeightBMatchingSerial(g, capL, capR))
	}
}

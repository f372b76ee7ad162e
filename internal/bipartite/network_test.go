package bipartite

import (
	"testing"

	"repro/internal/stats"
)

// maxFlow runs MinCostFlow with no flow bound and stopAtNonNegative off: on
// the zero-cost networks below it then pushes a maximum flow, so residual
// undo, per-arc flows and flow = min cut are pinned on the one flow engine.
func maxFlow(f *FlowNetwork, s, t int) int64 {
	return f.MinCostFlow(s, t, 1<<62, false).Flow
}

func TestMaxFlowDiamond(t *testing.T) {
	// s→a(3), s→b(2), a→t(2), b→t(3), a→b(1): max flow = 5? No:
	// s can emit 5, t can absorb 5, a receives 3 can push 2+1=3, b receives
	// 2+1 pushes 3 → total 5.
	f := NewFlowNetwork(4, 5)
	s, a, b, tt := 0, 1, 2, 3
	f.AddEdge(s, a, 3, 0)
	f.AddEdge(s, b, 2, 0)
	f.AddEdge(a, tt, 2, 0)
	f.AddEdge(b, tt, 3, 0)
	f.AddEdge(a, b, 1, 0)
	if got := maxFlow(f, s, tt); got != 5 {
		t.Fatalf("max flow = %d, want 5", got)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	f := NewFlowNetwork(3, 1)
	f.AddEdge(0, 1, 10, 0)
	if got := maxFlow(f, 0, 2); got != 0 {
		t.Fatalf("flow to unreachable sink = %d", got)
	}
}

func TestMaxFlowBottleneck(t *testing.T) {
	// Chain s→a→b→t with capacities 10, 1, 10: flow must be 1.
	f := NewFlowNetwork(4, 3)
	f.AddEdge(0, 1, 10, 0)
	f.AddEdge(1, 2, 1, 0)
	f.AddEdge(2, 3, 10, 0)
	if got := maxFlow(f, 0, 3); got != 1 {
		t.Fatalf("flow = %d", got)
	}
}

func TestMaxFlowPerArcFlows(t *testing.T) {
	f := NewFlowNetwork(3, 2)
	a1 := f.AddEdge(0, 1, 4, 0)
	a2 := f.AddEdge(1, 2, 3, 0)
	total := maxFlow(f, 0, 2)
	if total != 3 {
		t.Fatalf("flow = %d", total)
	}
	if f.Flow(a1) != 3 || f.Flow(a2) != 3 {
		t.Fatalf("arc flows = %d, %d", f.Flow(a1), f.Flow(a2))
	}
}

func TestMaxFlowRequiresResidual(t *testing.T) {
	// Classic instance where a naive greedy path choice must be undone via
	// the residual arc: two crossing paths sharing a middle edge.
	f := NewFlowNetwork(6, 7)
	s, a, b, c, d, tt := 0, 1, 2, 3, 4, 5
	f.AddEdge(s, a, 1, 0)
	f.AddEdge(s, b, 1, 0)
	f.AddEdge(a, c, 1, 0)
	f.AddEdge(b, c, 1, 0)
	f.AddEdge(c, d, 1, 0)
	f.AddEdge(a, d, 1, 0)
	f.AddEdge(d, tt, 2, 0)
	if got := maxFlow(f, s, tt); got != 2 {
		t.Fatalf("flow = %d, want 2", got)
	}
}

func TestMaxFlowAgainstBruteMinCut(t *testing.T) {
	// On random small DAGs, verify max-flow ≤ capacity of every s-t cut we
	// sample, and equals at least one (max-flow min-cut spot check).
	r := stats.NewRNG(303)
	for trial := 0; trial < 20; trial++ {
		n := r.IntRange(4, 8)
		f := NewFlowNetwork(n, n*n)
		type arc struct {
			u, v int
			c    int64
		}
		var arcs []arc
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Bool(0.5) {
					c := int64(r.IntRange(1, 5))
					f.AddEdge(u, v, c, 0)
					arcs = append(arcs, arc{u, v, c})
				}
			}
		}
		flow := maxFlow(f, 0, n-1)
		// Enumerate all cuts (S contains 0, complement contains n-1).
		minCut := int64(1) << 62
		for mask := 0; mask < 1<<(n-2); mask++ {
			inS := make([]bool, n)
			inS[0] = true
			for bit := 0; bit < n-2; bit++ {
				inS[bit+1] = mask&(1<<bit) != 0
			}
			var cut int64
			for _, a := range arcs {
				if inS[a.u] && !inS[a.v] {
					cut += a.c
				}
			}
			if cut < minCut {
				minCut = cut
			}
		}
		if flow != minCut {
			t.Fatalf("trial %d: flow %d != min cut %d", trial, flow, minCut)
		}
	}
}

func TestFlowNetworkPanics(t *testing.T) {
	f := NewFlowNetwork(2, 1)
	cases := []func(){
		func() { f.AddEdge(-1, 0, 1, 0) },
		func() { f.AddEdge(0, 2, 1, 0) },
		func() { f.AddEdge(0, 1, -1, 0) },
		func() { NewFlowNetwork(-1, 0) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

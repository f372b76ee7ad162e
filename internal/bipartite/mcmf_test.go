package bipartite

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestMinCostFlowSimple(t *testing.T) {
	// Two parallel paths s→t: cost 1 cap 2, cost 3 cap 2.  Pushing 3 units
	// should cost 2·1 + 1·3 = 5.
	f := NewFlowNetwork(2, 2)
	f.AddEdge(0, 1, 2, 1)
	f.AddEdge(0, 1, 2, 3)
	res := f.MinCostFlow(0, 1, 3, false)
	if res.Flow != 3 || res.Cost != 5 {
		t.Fatalf("res = %+v, want flow 3 cost 5", res)
	}
}

func TestMinCostFlowPrefersCheapPath(t *testing.T) {
	// s→a→t cost 10, s→b→t cost 1; one unit must take the b route.
	f := NewFlowNetwork(4, 4)
	f.AddEdge(0, 1, 1, 5)
	f.AddEdge(1, 3, 1, 5)
	f.AddEdge(0, 2, 1, 0)
	f.AddEdge(2, 3, 1, 1)
	res := f.MinCostFlow(0, 3, 1, false)
	if res.Flow != 1 || res.Cost != 1 {
		t.Fatalf("res = %+v", res)
	}
}

func TestMinCostFlowNegativeCosts(t *testing.T) {
	// A negative-cost edge must be exploited: s→a cost -5, a→t cost 1.
	f := NewFlowNetwork(3, 2)
	f.AddEdge(0, 1, 2, -5)
	f.AddEdge(1, 2, 2, 1)
	res := f.MinCostFlow(0, 2, 10, false)
	if res.Flow != 2 || res.Cost != -8 {
		t.Fatalf("res = %+v, want flow 2 cost -8", res)
	}
}

func TestMinCostFlowStopAtNonNegative(t *testing.T) {
	// Path A: cost -3 (profitable), path B: cost +2 (unprofitable).
	// With stopAtNonNegative the solver must push only path A.
	f := NewFlowNetwork(4, 4)
	f.AddEdge(0, 1, 1, -3)
	f.AddEdge(1, 3, 1, 0)
	f.AddEdge(0, 2, 1, 2)
	f.AddEdge(2, 3, 1, 0)
	res := f.MinCostFlow(0, 3, 10, true)
	if res.Flow != 1 || res.Cost != -3 {
		t.Fatalf("res = %+v, want flow 1 cost -3", res)
	}
}

func TestMinCostFlowRespectsMaxFlow(t *testing.T) {
	f := NewFlowNetwork(2, 1)
	f.AddEdge(0, 1, 100, 1)
	res := f.MinCostFlow(0, 1, 7, false)
	if res.Flow != 7 || res.Cost != 7 {
		t.Fatalf("res = %+v", res)
	}
}

func TestMinCostFlowUnreachable(t *testing.T) {
	f := NewFlowNetwork(3, 1)
	f.AddEdge(0, 1, 5, 1)
	res := f.MinCostFlow(0, 2, 5, false)
	if res.Flow != 0 || res.Cost != 0 {
		t.Fatalf("res = %+v", res)
	}
}

// bruteMinCostAssign computes, by permutation enumeration, the min-cost
// perfect assignment on an n×n cost matrix.
func bruteMinCostAssign(cost [][]int64) int64 {
	n := len(cost)
	best := int64(math.MaxInt64)
	used := make([]bool, n)
	var rec func(i int, acc int64)
	rec = func(i int, acc int64) {
		if i == n {
			if acc < best {
				best = acc
			}
			return
		}
		for j := 0; j < n; j++ {
			if !used[j] {
				used[j] = true
				rec(i+1, acc+cost[i][j])
				used[j] = false
			}
		}
	}
	rec(0, 0)
	return best
}

func TestMinCostFlowMatchesBruteAssignment(t *testing.T) {
	r := stats.NewRNG(404)
	for trial := 0; trial < 40; trial++ {
		n := r.IntRange(1, 6)
		cost := make([][]int64, n)
		for i := range cost {
			cost[i] = make([]int64, n)
			for j := range cost[i] {
				cost[i][j] = int64(r.IntRange(-10, 20))
			}
		}
		// Flow network: source 0, rows 1..n, cols n+1..2n, sink 2n+1.
		f := NewFlowNetwork(2*n+2, n*n+2*n)
		for i := 0; i < n; i++ {
			f.AddEdge(0, 1+i, 1, 0)
			f.AddEdge(1+n+i, 2*n+1, 1, 0)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				f.AddEdge(1+i, 1+n+j, 1, cost[i][j])
			}
		}
		res := f.MinCostFlow(0, 2*n+1, int64(n), false)
		want := bruteMinCostAssign(cost)
		if res.Flow != int64(n) || res.Cost != want {
			t.Fatalf("trial %d (n=%d): flow %d cost %d, want cost %d",
				trial, n, res.Flow, res.Cost, want)
		}
	}
}

func TestMinCostFlowMatchesHungarian(t *testing.T) {
	r := stats.NewRNG(505)
	for trial := 0; trial < 20; trial++ {
		n := r.IntRange(2, 10)
		costF := make([][]float64, n)
		costI := make([][]int64, n)
		for i := 0; i < n; i++ {
			costF[i] = make([]float64, n)
			costI[i] = make([]int64, n)
			for j := 0; j < n; j++ {
				c := r.IntRange(0, 50)
				costF[i][j] = float64(c)
				costI[i][j] = int64(c)
			}
		}
		_, hTotal := Hungarian(costF)

		f := NewFlowNetwork(2*n+2, n*n+2*n)
		for i := 0; i < n; i++ {
			f.AddEdge(0, 1+i, 1, 0)
			f.AddEdge(1+n+i, 2*n+1, 1, 0)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				f.AddEdge(1+i, 1+n+j, 1, costI[i][j])
			}
		}
		res := f.MinCostFlow(0, 2*n+1, int64(n), false)
		if int64(hTotal) != res.Cost {
			t.Fatalf("trial %d: Hungarian %v vs MCMF %d", trial, hTotal, res.Cost)
		}
	}
}

func TestMinCostFlowPanicsOnSameST(t *testing.T) {
	f := NewFlowNetwork(2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("s == t did not panic")
		}
	}()
	f.MinCostFlow(1, 1, 1, false)
}

// MinCostFlow is MinCostFlowWS with a workspace borrowed from the pool.
func (f *FlowNetwork) MinCostFlow(s, t int, maxFlow int64, stopAtNonNegative bool) MCMFResult {
	ws, pooled := acquireFlowWorkspace(nil)
	res := f.MinCostFlowWS(s, t, maxFlow, stopAtNonNegative, ws)
	releaseFlowWorkspace(ws, pooled)
	return res
}

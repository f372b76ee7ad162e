package core

import (
	"slices"
	"testing"

	"repro/internal/benefit"
	"repro/internal/market"
	"repro/internal/stats"
)

// The workspace contract: pinning one Workspace across repeated solves of
// the same problem changes nothing about the results, and after a warm-up
// call the steady-state allocation cost of a solve is just the returned
// selection.

func workspaceTestProblem(tb testing.TB) *Problem {
	tb.Helper()
	in := market.MustGenerate(market.FreelanceTraceConfig(80, 60), 17)
	return MustNewProblem(in, benefit.DefaultParams())
}

func TestWorkspaceReuseIdenticalSelections(t *testing.T) {
	p := workspaceTestProblem(t)
	ws := NewWorkspace()
	solvers := []Solver{
		Greedy{Kind: MutualWeight, WS: ws},
		LocalSearch{Kind: MutualWeight, WS: ws},
		LocalSearchSerial{Kind: MutualWeight, WS: ws},
		Random{WS: ws},
		RoundRobin{WS: ws},
		OnlineGreedy{Kind: MutualWeight, WS: ws},
		OnlineRanking{Kind: MutualWeight, WS: ws},
		OnlineTwoPhase{Kind: MutualWeight, WS: ws},
		OnlineTaskGreedy{Kind: MutualWeight, WS: ws},
	}
	for _, s := range solvers {
		// Same solver, same RNG stream, same pinned workspace — the second
		// run reuses every buffer the first one grew.
		first, err := s.Solve(p, stats.NewRNG(5))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		second, err := s.Solve(p, stats.NewRNG(5))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !slices.Equal(first, second) {
			t.Fatalf("%s: workspace reuse changed the selection\nfirst:  %v\nsecond: %v", s.Name(), first, second)
		}
		if err := p.Feasible(second); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}

// TestWorkspacePinnedVsPooledIdentical holds the pinned-workspace path to
// the pooled (WS nil) path for the deterministic solvers.
func TestWorkspacePinnedVsPooledIdentical(t *testing.T) {
	p := workspaceTestProblem(t)
	ws := NewWorkspace()
	pairs := [][2]Solver{
		{Greedy{Kind: MutualWeight, WS: ws}, Greedy{Kind: MutualWeight}},
		{LocalSearch{Kind: MutualWeight, WS: ws}, LocalSearch{Kind: MutualWeight}},
		{RoundRobin{WS: ws}, RoundRobin{}},
	}
	for _, pr := range pairs {
		pinned, err := pr[0].Solve(p, stats.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := pr[1].Solve(p, stats.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(pinned, pooled) {
			t.Fatalf("%s: pinned and pooled workspaces disagree", pr[0].Name())
		}
	}
}

// TestWorkspaceSteadyStateAllocs measures the post-warm-up allocation cost
// of the workspace-wired solvers.  The only unavoidable allocation is the
// caller-owned copy of the selection (plus, for local search, the fresh
// result slice), so the budgets are tiny; a regression that re-grows
// scratch on every call trips them immediately.
func TestWorkspaceSteadyStateAllocs(t *testing.T) {
	p := workspaceTestProblem(t)
	t.Run("greedy", func(t *testing.T) {
		if len(p.Edges) <= radixCutoff {
			t.Fatalf("%d edges do not reach the radix path (cutoff %d)", len(p.Edges), radixCutoff)
		}
		// The generated market saturates and skips most buckets; the
		// never-saturating copy takes every edge and orders every bucket.
		free := MustNewProblem(unsaturated(p.In, len(p.Edges)), benefit.DefaultParams())
		for _, q := range []*Problem{p, free} {
			ws := NewWorkspace()
			for _, kind := range allWeightKinds {
				s := Greedy{Kind: kind, WS: ws}
				s.Solve(q, nil) // warm-up grows all scratch
				n := testing.AllocsPerRun(20, func() { s.Solve(q, nil) })
				if n > 1 {
					t.Errorf("%s, %d edges: %v allocs/op in steady state, want <= 1 (the returned selection)", s.Name(), len(q.Edges), n)
				}
			}
		}
	})
	t.Run("edge-order", func(t *testing.T) {
		// The ordering kernel alone, on both sides of the cutoff, allocates
		// nothing once the workspace is warm.
		ws := NewWorkspace()
		for _, n := range []int{radixCutoff / 2, len(p.Edges)} {
			idx := identityOrderWS(ws, n)
			sortEdgesByWeightWS(p, MutualWeight, idx, ws)
			allocs := testing.AllocsPerRun(20, func() {
				sortEdgesByWeightWS(p, MutualWeight, identityOrderWS(ws, n), ws)
			})
			if allocs != 0 {
				t.Errorf("n=%d: %v allocs/op in steady state, want 0", n, allocs)
			}
		}
	})
	t.Run("local-search-serial", func(t *testing.T) {
		s := LocalSearchSerial{Kind: MutualWeight, WS: NewWorkspace()}
		s.Solve(p, nil)
		n := testing.AllocsPerRun(20, func() { s.Solve(p, nil) })
		if n > 2 {
			t.Errorf("local-search-serial: %v allocs/op in steady state, want <= 2", n)
		}
	})
}

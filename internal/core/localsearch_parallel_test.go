package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/benefit"
	"repro/internal/market"
	"repro/internal/stats"
)

// The tentpole property of the parallel local search: for any goroutine
// count, the collect-then-apply pass produces bit-identical selections to
// the serial reference, because the scan runs against frozen pass-start
// state, the per-range move buffers concatenate in ascending edge order,
// and the apply phase is serial with a deterministic (gain desc, edge asc)
// order.  These tests drive localSearchRun directly with forced proc counts
// — including counts far above GOMAXPROCS — across all three market
// generators and many seeds.

func parallelTestInstances(tb testing.TB) []*Problem {
	tb.Helper()
	var ps []*Problem
	for _, seed := range []uint64{1, 7, 42, 1234, 99991} {
		for _, cfg := range []market.Config{
			market.FreelanceTraceConfig(60, 45),
			market.MicrotaskTraceConfig(45, 70),
			{Name: "uniform", NumWorkers: 50, NumTasks: 50},
		} {
			in := market.MustGenerate(cfg, seed)
			ps = append(ps, MustNewProblem(in, benefit.DefaultParams()))
		}
	}
	ps = append(ps, trapProblem(tb))
	return ps
}

func TestLocalSearchParallelMatchesSerial(t *testing.T) {
	for _, kind := range []WeightKind{MutualWeight, QualityWeight, WorkerWeight} {
		for i, p := range parallelTestInstances(t) {
			ws := NewWorkspace()
			serial, _ := localSearchRun(nil, p, kind, 0, 1, ws)
			for _, procs := range []int{2, 3, 4, 8} {
				got, _ := localSearchRun(nil, p, kind, 0, procs, ws)
				if !slices.Equal(got, serial) {
					t.Fatalf("instance %d (%s) kind %v: procs=%d selection differs from serial\nserial: %v\nparallel: %v",
						i, p.In.Name, kind, procs, serial, got)
				}
			}
		}
	}
}

// TestLocalSearchPublicMatchesSerialSolver holds the two registered solvers
// to each other through the public Solve API, on a market large enough
// (> parallelLSCutoff edges) that LocalSearch actually engages its
// parallel path.
func TestLocalSearchPublicMatchesSerialSolver(t *testing.T) {
	in := market.MustGenerate(market.Config{
		Name: "large-uniform", NumWorkers: 220, NumTasks: 220,
	}, 7)
	p := MustNewProblem(in, benefit.DefaultParams())
	if p.NumEdges() <= parallelLSCutoff {
		t.Fatalf("instance too small to engage the parallel path: %d edges", p.NumEdges())
	}
	fast, err := LocalSearch{Kind: MutualWeight}.Solve(p, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := LocalSearchSerial{Kind: MutualWeight}.Solve(p, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(fast, ref) {
		t.Fatalf("LocalSearch and LocalSearchSerial disagree: %d vs %d edges, objective %v vs %v",
			len(fast), len(ref),
			p.Evaluate(fast).TotalMutual, p.Evaluate(ref).TotalMutual)
	}
	if err := p.Feasible(fast); err != nil {
		t.Fatal(err)
	}
}

// TestLocalSearchSerialNeverWorseThanGreedy pins the monotonicity contract
// of the rewritten pass structure: seeded from Greedy, every applied move
// has exact positive frozen-state gain, so the objective can only rise.
func TestLocalSearchSerialNeverWorseThanGreedy(t *testing.T) {
	for i, p := range parallelTestInstances(t) {
		gSel, _ := Greedy{Kind: MutualWeight}.Solve(p, nil)
		lSel, _ := LocalSearchSerial{Kind: MutualWeight}.Solve(p, nil)
		if err := p.Feasible(lSel); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		g := p.Evaluate(gSel).TotalMutual
		l := p.Evaluate(lSel).TotalMutual
		if l < g-1e-9 {
			t.Fatalf("instance %d: local-search-serial %v worse than greedy %v", i, l, g)
		}
	}
}

// TestLocalSearchSweepPanicIsContained pins that a sweep panicking on a
// chunk goroutine re-panics on the caller, where RunCtx's panic fence
// turns it into an error, instead of crashing the process.  The last task
// adjacency entry is pointed past the edges, which only sweepTasks reads.
func TestLocalSearchSweepPanicIsContained(t *testing.T) {
	p := MustNewProblem(market.MustGenerate(market.FreelanceTraceConfig(60, 45), 1), benefit.DefaultParams())
	p.AdjT(0) // lay the adjacency out, so the corruption below sticks
	p.adjT[len(p.adjT)-1] = int32(p.NumEdges())
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "index out of range") {
			t.Fatalf("recovered %v, want the sweep's panic", r)
		}
	}()
	localSearchRun(nil, p, MutualWeight, 0, 3, NewWorkspace())
}

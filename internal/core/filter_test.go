package core

import (
	"testing"

	"repro/internal/stats"
)

func TestFilterProblemStructure(t *testing.T) {
	p := smallProblem(t, 51)
	fp := FilterProblem(p, MinQuality(0.5))
	if fp.NumEdges() >= p.NumEdges() {
		t.Fatalf("filter removed nothing: %d vs %d", fp.NumEdges(), p.NumEdges())
	}
	for i := range fp.M {
		if fp.Quality(i) < 0.5 {
			t.Fatalf("edge %d below floor: %v", i, fp.Quality(i))
		}
	}
	// Adjacency must be consistent with the new indices.
	count := 0
	for w := 0; w < fp.In.NumWorkers(); w++ {
		lo, hi := fp.AdjW(w)
		for ei := lo; ei < hi; ei++ {
			if int(fp.W[ei]) != w {
				t.Fatal("filtered adjacency broken")
			}
			count++
		}
	}
	if count != fp.NumEdges() {
		t.Fatalf("adjacency covers %d of %d edges", count, fp.NumEdges())
	}
}

func TestFilterProblemSolvable(t *testing.T) {
	p := smallProblem(t, 52)
	fp := FilterProblem(p, MinQuality(0.4))
	for _, s := range []Solver{Exact{Kind: MutualWeight}, Greedy{Kind: MutualWeight}, StableMatching{}} {
		sel, err := s.Solve(fp, stats.NewRNG(1))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := fp.Feasible(sel); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		for _, ei := range sel {
			if fp.Quality(ei) < 0.4 {
				t.Fatalf("%s assigned a below-floor pair", s.Name())
			}
		}
	}
}

func TestFilterProblemTradesCoverageForQuality(t *testing.T) {
	p := smallProblem(t, 53)
	baseSel, _ := (Exact{Kind: MutualWeight}).Solve(p, nil)
	base := p.Evaluate(baseSel)

	fp := FilterProblem(p, MinQuality(0.7))
	fSel, _ := (Exact{Kind: MutualWeight}).Solve(fp, nil)
	filtered := fp.Evaluate(fSel)

	if filtered.Pairs > base.Pairs {
		t.Fatalf("SLA increased coverage: %d > %d", filtered.Pairs, base.Pairs)
	}
	if filtered.Pairs > 0 && filtered.TotalQuality/float64(filtered.Pairs) <= base.TotalQuality/float64(base.Pairs) {
		t.Fatalf("SLA did not raise mean quality: %v vs %v",
			filtered.TotalQuality/float64(filtered.Pairs), base.TotalQuality/float64(base.Pairs))
	}
}

func TestFilterProblemKeepAllIsIdentityValued(t *testing.T) {
	p := smallProblem(t, 54)
	fp := FilterProblem(p, func(*Problem, int) bool { return true })
	a, _ := (Greedy{Kind: MutualWeight}).Solve(p, nil)
	b, _ := (Greedy{Kind: MutualWeight}).Solve(fp, nil)
	if p.Evaluate(a).TotalMutual != fp.Evaluate(b).TotalMutual {
		t.Fatal("keep-all filter changed the solution value")
	}
}

func TestFilterProblemEmptyResult(t *testing.T) {
	p := smallProblem(t, 55)
	fp := FilterProblem(p, MinQuality(2)) // impossible bar
	if fp.NumEdges() != 0 {
		t.Fatal("impossible bar kept edges")
	}
	sel, err := (Greedy{Kind: MutualWeight}).Solve(fp, nil)
	if err != nil || len(sel) != 0 {
		t.Fatalf("sel=%v err=%v", sel, err)
	}
}

func TestOnlineTaskGreedy(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		p := smallProblem(t, seed)
		sel, err := (OnlineTaskGreedy{Kind: MutualWeight}).Solve(p, stats.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Feasible(sel); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		eSel, _ := (Exact{Kind: MutualWeight}).Solve(p, nil)
		if p.Evaluate(sel).TotalMutual > p.Evaluate(eSel).TotalMutual+1e-6 {
			t.Fatal("task-greedy beat offline optimum")
		}
	}
}

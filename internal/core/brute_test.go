package core

import (
	"testing"

	"repro/internal/benefit"
	"repro/internal/market"
)

// BruteForceSubmodular computes the exact optimum of the MBA-S
// (diminishing-returns) objective by depth-first enumeration over edge
// subsets with feasibility pruning.  It is exponential — callers must keep
// instances tiny (it panics above maxBruteEdges).  It is the test oracle
// that measures SubmodularGreedy's *actual* approximation ratio against the
// true optimum rather than only citing the ½ bound.
func (p *Problem) BruteForceSubmodular() (best float64, bestSel []int) {
	const maxBruteEdges = 22
	if p.NumEdges() > maxBruteEdges {
		panic("core: BruteForceSubmodular limited to tiny instances")
	}
	capW := p.CapacityW()
	capT := p.CapacityT()
	var cur []int

	var rec func(i int)
	rec = func(i int) {
		if i == p.NumEdges() {
			if v := p.SubmodularValue(cur); v > best {
				best = v
				bestSel = append(bestSel[:0], cur...)
			}
			return
		}
		// Branch 1: skip edge i.
		rec(i + 1)
		// Branch 2: take edge i if feasible.
		w, t := p.W[i], p.T[i]
		if capW[w] > 0 && capT[t] > 0 {
			capW[w]--
			capT[t]--
			cur = append(cur, i)
			rec(i + 1)
			cur = cur[:len(cur)-1]
			capW[w]++
			capT[t]++
		}
	}
	rec(0)
	return best, bestSel
}

// tinySubmodularProblem builds instances small enough for brute force.
func tinySubmodularProblem(t testing.TB, seed uint64) *Problem {
	t.Helper()
	in := market.MustGenerate(market.Config{
		NumWorkers: 4, NumTasks: 3, NumCategories: 2,
		MinSpecialties: 1, MaxSpecialties: 2,
		MinCapacity: 1, MaxCapacity: 2,
		MinReplication: 1, MaxReplication: 3,
	}, seed)
	return MustNewProblem(in, benefit.DefaultParams())
}

func TestBruteForceSubmodularFeasible(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		p := tinySubmodularProblem(t, seed)
		if p.NumEdges() > 22 {
			continue
		}
		best, sel := p.BruteForceSubmodular()
		if err := p.Feasible(sel); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if v := p.SubmodularValue(sel); v != best {
			t.Fatalf("seed %d: reported %v, recomputed %v", seed, best, v)
		}
	}
}

func TestSubmodularGreedyMeasuredRatio(t *testing.T) {
	// The paper-level question: how close does the ½-guaranteed greedy get
	// to the true MBA-S optimum in practice?  Expect far above the bound.
	var greedySum, optSum float64
	checked := 0
	for seed := uint64(1); seed <= 30 && checked < 15; seed++ {
		p := tinySubmodularProblem(t, seed)
		if p.NumEdges() > 18 {
			continue
		}
		checked++
		opt, _ := p.BruteForceSubmodular()
		sel, err := (SubmodularGreedy{}).Solve(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		g := p.SubmodularValue(sel)
		if g > opt+1e-9 {
			t.Fatalf("seed %d: greedy %v beat brute-force optimum %v", seed, g, opt)
		}
		if opt > 0 && g < opt/2-1e-9 {
			t.Fatalf("seed %d: greedy %v broke its 1/2 guarantee vs %v", seed, g, opt)
		}
		greedySum += g
		optSum += opt
	}
	if checked < 5 {
		t.Fatal("not enough small instances to measure")
	}
	if ratio := greedySum / optSum; ratio < 0.9 {
		t.Fatalf("measured mean ratio %v — far below typical submodular-greedy practice", ratio)
	}
}

func TestBruteForceSubmodularPanicsOnLarge(t *testing.T) {
	p := smallProblem(t, 1) // hundreds of edges
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on large instance")
		}
	}()
	p.BruteForceSubmodular()
}

func TestBruteForceEmptyProblem(t *testing.T) {
	p := MustNewProblem(emptyMarket(), benefit.DefaultParams())
	best, sel := p.BruteForceSubmodular()
	if best != 0 || len(sel) != 0 {
		t.Fatalf("empty: %v %v", best, sel)
	}
}

// SubmodularValue evaluates the MBA-S (diminishing-returns) objective of an
// assignment: per task, the majority-vote correctness of its assigned panel
// (rescaled from [0.5,1] to [0,1] like Quality) weighted by λ, plus the
// (1−λ)-weighted worker utilities.  Tasks with empty panels contribute zero
// quality — the requester learned nothing.
//
// This is the objective the paper's hardness story lives in: per-task
// quality is a set function with diminishing returns, so edge weights no
// longer add up and matching-based exact solvers do not apply.
func (p *Problem) SubmodularValue(sel []int) float64 {
	lambda := p.Model.Params().Lambda
	accs := make(map[int][]float64)
	workerPart := 0.0
	for _, ei := range sel {
		tj := int(p.T[ei])
		w, t := &p.In.Workers[p.W[ei]], &p.In.Tasks[tj]
		accs[tj] = append(accs[tj], p.Model.EffectiveAccuracy(w, t))
		workerPart += p.Utility(ei)
	}
	qualityPart := 0.0
	for _, a := range accs {
		qualityPart += 2 * (benefit.MajorityCorrectProb(a) - 0.5)
	}
	return lambda*qualityPart + (1-lambda)*workerPart
}

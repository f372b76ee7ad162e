package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/benefit"
	"repro/internal/market"
	"repro/internal/stats"
)

// allSolvers lists every solver that works on general (non-unit) instances.
func allSolvers() []Solver {
	return []Solver{
		Exact{Kind: MutualWeight},
		Greedy{Kind: MutualWeight},
		LocalSearch{Kind: MutualWeight},
		SubmodularGreedy{},
		QualityOnly(),
		WorkerOnly(),
		Random{},
		RoundRobin{},
		OnlineGreedy{Kind: MutualWeight},
		OnlineRanking{Kind: MutualWeight},
		OnlineTwoPhase{Kind: MutualWeight},
	}
}

func TestAllSolversFeasible(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		p := smallProblem(t, seed)
		for _, s := range allSolvers() {
			sel, err := s.Solve(p, stats.NewRNG(seed))
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, s.Name(), err)
			}
			if err := p.Feasible(sel); err != nil {
				t.Fatalf("seed %d %s infeasible: %v", seed, s.Name(), err)
			}
		}
	}
}

func TestSolverNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range allSolvers() {
		if seen[s.Name()] {
			t.Fatalf("duplicate solver name %q", s.Name())
		}
		seen[s.Name()] = true
	}
}

func TestExactBeatsEveryHeuristic(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		p := smallProblem(t, seed)
		r := stats.NewRNG(seed)
		exactSel, err := (Exact{Kind: MutualWeight}).Solve(p, r)
		if err != nil {
			t.Fatal(err)
		}
		exact := p.Evaluate(exactSel).TotalMutual
		for _, s := range allSolvers() {
			sel, err := s.Solve(p, stats.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			got := p.Evaluate(sel).TotalMutual
			if got > exact+1e-6 {
				t.Fatalf("seed %d: %s (%v) beat exact (%v) on the linear objective",
					seed, s.Name(), got, exact)
			}
		}
	}
}

func TestGreedyHalfApproximation(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		p := smallProblem(t, seed)
		exactSel, _ := (Exact{Kind: MutualWeight}).Solve(p, nil)
		greedySel, _ := (Greedy{Kind: MutualWeight}).Solve(p, nil)
		exact := p.Evaluate(exactSel).TotalMutual
		greedy := p.Evaluate(greedySel).TotalMutual
		if greedy < exact/2-1e-9 {
			t.Fatalf("seed %d: greedy %v below half of exact %v", seed, greedy, exact)
		}
	}
}

func TestGreedyBeatsRandom(t *testing.T) {
	// On average over seeds; individual seeds could tie on tiny instances.
	var greedySum, randomSum float64
	for seed := uint64(1); seed <= 10; seed++ {
		p := smallProblem(t, seed)
		gSel, _ := (Greedy{Kind: MutualWeight}).Solve(p, nil)
		rSel, _ := (Random{}).Solve(p, stats.NewRNG(seed))
		greedySum += p.Evaluate(gSel).TotalMutual
		randomSum += p.Evaluate(rSel).TotalMutual
	}
	if greedySum <= randomSum {
		t.Fatalf("greedy total %v did not beat random %v", greedySum, randomSum)
	}
}

func TestQualityOnlyMaximisesQualityButNotWorkerSide(t *testing.T) {
	var qoQuality, mutQuality, qoWorker, mutWorker float64
	for seed := uint64(1); seed <= 10; seed++ {
		p := smallProblem(t, seed)
		qoSel, _ := QualityOnly().Solve(p, nil)
		mutSel, _ := (Exact{Kind: MutualWeight}).Solve(p, nil)
		qo := p.Evaluate(qoSel)
		mut := p.Evaluate(mutSel)
		qoQuality += qo.TotalQuality
		mutQuality += mut.TotalQuality
		qoWorker += qo.TotalWorker
		mutWorker += mut.TotalWorker
	}
	if qoQuality <= mutQuality*0.95 {
		t.Fatalf("quality-only should excel at quality: %v vs %v", qoQuality, mutQuality)
	}
	if qoWorker >= mutWorker {
		t.Fatalf("quality-only should sacrifice worker benefit: %v vs %v", qoWorker, mutWorker)
	}
}

func TestExactAgainstBruteForceTiny(t *testing.T) {
	// On tiny instances, enumerate all subsets of edges.
	for seed := uint64(1); seed <= 15; seed++ {
		in := market.MustGenerate(market.Config{
			NumWorkers: 3, NumTasks: 3, NumCategories: 2,
			MinSpecialties: 1, MaxSpecialties: 2,
			MinCapacity: 1, MaxCapacity: 2,
			MinReplication: 1, MaxReplication: 2,
		}, seed)
		p := MustNewProblem(in, benefit.DefaultParams())
		if p.NumEdges() > 16 {
			continue
		}
		exactSel, _ := (Exact{Kind: MutualWeight}).Solve(p, nil)
		exact := p.Evaluate(exactSel).TotalMutual

		best := 0.0
		for mask := 0; mask < 1<<p.NumEdges(); mask++ {
			var sel []int
			for i := 0; i < p.NumEdges(); i++ {
				if mask&(1<<i) != 0 {
					sel = append(sel, i)
				}
			}
			if p.Feasible(sel) != nil {
				continue
			}
			if v := p.Evaluate(sel).TotalMutual; v > best {
				best = v
			}
		}
		if math.Abs(exact-best) > 1e-6 {
			t.Fatalf("seed %d: exact %v vs brute %v", seed, exact, best)
		}
	}
}

func TestDeterministicSolversStable(t *testing.T) {
	p := smallProblem(t, 11)
	for _, s := range []Solver{
		Exact{Kind: MutualWeight}, Greedy{Kind: MutualWeight},
		LocalSearch{Kind: MutualWeight}, SubmodularGreedy{}, RoundRobin{},
	} {
		a, _ := s.Solve(p, stats.NewRNG(1))
		b, _ := s.Solve(p, stats.NewRNG(999))
		if len(a) != len(b) {
			t.Fatalf("%s: lengths differ across RNGs", s.Name())
		}
		am := p.Evaluate(a).TotalMutual
		bm := p.Evaluate(b).TotalMutual
		if am != bm {
			t.Fatalf("%s: values differ across RNGs: %v vs %v", s.Name(), am, bm)
		}
	}
}

func TestRandomSolverSeedControlled(t *testing.T) {
	p := smallProblem(t, 12)
	a, _ := (Random{}).Solve(p, stats.NewRNG(5))
	b, _ := (Random{}).Solve(p, stats.NewRNG(5))
	if len(a) != len(b) {
		t.Fatal("same seed random runs differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed random runs differ")
		}
	}
}

// emptyMarket builds a valid instance with workers but zero tasks.  It must
// be constructed by hand: market.Config treats zero sizes as "use default".
func emptyMarket() *market.Instance {
	return &market.Instance{
		Name:          "empty",
		NumCategories: 1,
		Workers: []market.Worker{
			{ID: 0, Capacity: 1, Accuracy: []float64{0.8}, Interest: []float64{0.5}, Specialties: []int{0}},
			{ID: 1, Capacity: 1, Accuracy: []float64{0.7}, Interest: []float64{0.4}, Specialties: []int{0}},
		},
	}
}

func TestEmptyMarketAllSolvers(t *testing.T) {
	// A market with no tasks has zero edges; every solver must return an
	// empty assignment without error.
	p := MustNewProblem(emptyMarket(), benefit.DefaultParams())
	for _, s := range allSolvers() {
		sel, err := s.Solve(p, stats.NewRNG(1))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(sel) != 0 {
			t.Fatalf("%s assigned in an empty market", s.Name())
		}
	}
}

// Property: on arbitrary instances every solver is feasible and bounded by
// exact on the linear objective.
func TestQuickSolversFeasibleBounded(t *testing.T) {
	f := func(seed uint64) bool {
		in, err := market.Generate(market.Config{NumWorkers: 12, NumTasks: 12}, seed)
		if err != nil {
			return false
		}
		p, err := NewProblem(in, benefit.DefaultParams())
		if err != nil {
			return false
		}
		exactSel, err := (Exact{Kind: MutualWeight}).Solve(p, nil)
		if err != nil {
			return false
		}
		exact := p.Evaluate(exactSel).TotalMutual
		for _, s := range allSolvers() {
			sel, err := s.Solve(p, stats.NewRNG(seed))
			if err != nil || p.Feasible(sel) != nil {
				return false
			}
			if p.Evaluate(sel).TotalMutual > exact+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

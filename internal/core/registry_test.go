package core

import (
	"testing"

	"repro/internal/stats"
)

func TestByNameResolvesEveryRegisteredSolver(t *testing.T) {
	for _, name := range SolverNames() {
		s, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s == nil {
			t.Fatalf("%s: nil solver", name)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("definitely-not-a-solver"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestRegistryNamesMatchSolverNames(t *testing.T) {
	// The registry key must equal the solver's own Name() so reports and
	// CLI flags agree (auction is registered under its canonical name too).
	for _, name := range SolverNames() {
		s, _ := ByName(name)
		if s.Name() != name {
			t.Errorf("registry key %q but solver.Name() = %q", name, s.Name())
		}
	}
}

func TestLineUpsAreFeasibleSolvers(t *testing.T) {
	p := smallProblem(t, 77)
	for _, s := range append(ComparisonSolvers(), OnlineSolvers()...) {
		sel, err := s.Solve(p, stats.NewRNG(1))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := p.Feasible(sel); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}

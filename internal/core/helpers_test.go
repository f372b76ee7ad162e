package core

import (
	"testing"

	"repro/internal/benefit"
	"repro/internal/market"
)

// trapProblem builds the tight ½-approximation instance for edge-greedy:
// a heavy edge (w0,t0) of weight 1.0 whose choice blocks two 0.9 edges
// (w0,t1) and (w1,t0), with no (w1,t1) alternative.  Weights are realised
// through interest with λ=0, β=0 so mutual benefit equals interest exactly.
func trapProblem(t testing.TB) *Problem {
	t.Helper()
	in := &market.Instance{
		Name:          "trap",
		NumCategories: 2,
		Workers: []market.Worker{
			{
				ID: 0, Capacity: 1,
				Accuracy:    []float64{0.8, 0.8},
				Interest:    []float64{1.0, 0.9},
				Specialties: []int{0, 1},
			},
			{
				ID: 1, Capacity: 1,
				Accuracy:    []float64{0.8, 0.8},
				Interest:    []float64{0.9, 0},
				Specialties: []int{0},
			},
		},
		Tasks: []market.Task{
			{ID: 0, Category: 0, Replication: 1, Payment: 1, Difficulty: 0},
			{ID: 1, Category: 1, Replication: 1, Payment: 1, Difficulty: 0},
		},
		MaxPayment: 1,
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	return MustNewProblem(in, benefit.Params{Lambda: 0, Beta: 0})
}

func TestTrapProblemShape(t *testing.T) {
	p := trapProblem(t)
	if len(p.Edges) != 3 {
		t.Fatalf("trap has %d edges, want 3", len(p.Edges))
	}
	gSel, _ := (Greedy{Kind: MutualWeight}).Solve(p, nil)
	eSel, _ := (Exact{Kind: MutualWeight}).Solve(p, nil)
	g := p.Evaluate(gSel).TotalMutual
	e := p.Evaluate(eSel).TotalMutual
	if g != 1.0 || e < 1.8-1e-9 {
		t.Fatalf("trap miscalibrated: greedy %v (want 1.0), exact %v (want 1.8)", g, e)
	}
}

// MustNewProblem is NewProblem that panics on error, for tests with
// literal inputs.
func MustNewProblem(in *market.Instance, params benefit.Params) *Problem {
	p, err := NewProblem(in, params)
	if err != nil {
		panic(err)
	}
	return p
}

package core

import (
	"testing"

	"repro/internal/benefit"
	"repro/internal/market"
	"repro/internal/stats"
)

func TestByCategoryAccounting(t *testing.T) {
	p := smallProblem(t, 91)
	sel, _ := (Greedy{Kind: MutualWeight}).Solve(p, nil)
	reps := p.ByCategory(sel)
	if len(reps) != p.In.NumCategories {
		t.Fatalf("reports = %d", len(reps))
	}
	var slots, filled, tasks int
	for _, r := range reps {
		slots += r.Slots
		filled += r.Filled
		tasks += r.Tasks
		if r.Filled > r.Slots {
			t.Fatalf("category %d over-filled", r.Category)
		}
		if r.MeanMutual < 0 || r.MeanMutual > 1 {
			t.Fatalf("category %d mean mutual %v", r.Category, r.MeanMutual)
		}
	}
	if slots != p.In.TotalSlots() || tasks != p.In.NumTasks() || filled != len(sel) {
		t.Fatalf("totals: slots %d/%d tasks %d/%d filled %d/%d",
			slots, p.In.TotalSlots(), tasks, p.In.NumTasks(), filled, len(sel))
	}
}

func TestByCategoryEmptyAssignment(t *testing.T) {
	p := smallProblem(t, 92)
	reps := p.ByCategory(nil)
	for _, r := range reps {
		if r.Filled != 0 || r.MeanMutual != 0 {
			t.Fatal("empty assignment should report zero fills")
		}
	}
}

func TestStarvedCategories(t *testing.T) {
	// A market where one category has demand but no eligible workers.
	in := &market.Instance{
		Name:          "starved",
		NumCategories: 2,
		Workers: []market.Worker{
			{ID: 0, Capacity: 3, Accuracy: []float64{0.8, 0.8}, Interest: []float64{0.5, 0.5}, Specialties: []int{0}},
		},
		Tasks: []market.Task{
			{ID: 0, Category: 0, Replication: 1, Payment: 1},
			{ID: 1, Category: 1, Replication: 2, Payment: 1},
		},
		MaxPayment: 1,
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	p := MustNewProblem(in, benefit.DefaultParams())
	sel, _ := (Greedy{Kind: MutualWeight}).Solve(p, nil)
	starved := p.StarvedCategories(sel, 0.99)
	if len(starved) != 1 || starved[0].Category != 1 {
		t.Fatalf("starved = %+v", starved)
	}
	if starved[0].EligibleWorkers != 0 {
		t.Fatal("category 1 should have no eligible workers")
	}
	// With a permissive threshold nothing is starved.
	if got := p.StarvedCategories(sel, 0.0); len(got) != 0 {
		t.Fatalf("threshold 0 should starve nothing, got %+v", got)
	}
}

func TestStarvedCategoriesSorted(t *testing.T) {
	p := smallProblem(t, 93)
	sel, _ := (Random{}).Solve(p, stats.NewRNG(1))
	starved := p.StarvedCategories(sel, 1.0) // everything below 100% is starved
	for i := 1; i < len(starved); i++ {
		ci := float64(starved[i].Filled) / float64(starved[i].Slots)
		cp := float64(starved[i-1].Filled) / float64(starved[i-1].Slots)
		if ci < cp {
			t.Fatal("starved list not sorted by coverage")
		}
	}
}

package core

import (
	"testing"

	"repro/internal/benefit"
	"repro/internal/market"
)

// RebuildProblem must be indistinguishable from NewProblem — same edges,
// same adjacency, bit for bit — whatever shape the previous build had:
// larger, smaller, or wildly different category structure.
func TestRebuildProblemMatchesNewProblem(t *testing.T) {
	cfgs := []market.Config{
		market.FreelanceTraceConfig(60, 45),
		{Name: "tiny", NumWorkers: 5, NumTasks: 4, NumCategories: 2, MaxSpecialties: 2},
		market.MicrotaskTraceConfig(80, 120),
		{Name: "mid", NumWorkers: 40, NumTasks: 40},
		market.FreelanceTraceConfig(60, 45), // back to the first shape
	}
	var prev *Problem
	for i, cfg := range cfgs {
		in := market.MustGenerate(cfg, uint64(100+i))
		ref, err := NewProblem(in, benefit.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		prev, err = RebuildProblem(prev, in, benefit.DefaultParams(), nil)
		if err != nil {
			t.Fatal(err)
		}
		assertSameProblem(t, cfg.Name, ref, prev)
	}
}

// TestRebuildProblemNilPrev pins the nil-prev convenience path.
func TestRebuildProblemNilPrev(t *testing.T) {
	in := market.MustGenerate(market.Config{NumWorkers: 10, NumTasks: 10}, 3)
	p, err := RebuildProblem(nil, in, benefit.DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := MustNewProblem(in, benefit.DefaultParams())
	assertSameProblem(t, "nil-prev", ref, p)
}

// TestRebuildProblemReusesArenas verifies the point of the exercise: a
// same-shape rebuild keeps the previous edge columns and task adjacency
// instead of reallocating them.
func TestRebuildProblemReusesArenas(t *testing.T) {
	in1 := market.MustGenerate(market.FreelanceTraceConfig(50, 40), 1)
	in2 := market.MustGenerate(market.FreelanceTraceConfig(50, 40), 2)
	p, err := NewProblem(in1, benefit.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	p.AdjT(0)
	t1, m1, adjT1 := &p.T[0], &p.M[0], &p.adjT[0]
	capE := cap(p.M)
	p2, err := RebuildProblem(p, in2, benefit.DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p {
		t.Fatal("RebuildProblem returned a different Problem")
	}
	if p2.NumEdges() == 0 {
		t.Fatal("rebuilt problem has no edges")
	}
	// Same-shape generators need not produce the same edge count, but the
	// columns must be reused whenever they still fit.
	if p2.NumEdges() <= capE {
		if &p2.T[0] != t1 || &p2.M[0] != m1 {
			t.Error("edge columns were reallocated on a fitting rebuild")
		}
		if p2.AdjT(0); &p2.adjT[0] != adjT1 {
			t.Error("adjT was reallocated on a fitting rebuild")
		}
	}
}

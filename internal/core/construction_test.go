package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/benefit"
	"repro/internal/market"
)

// assertSameProblem fails unless got's columns, derived quality and
// utility, and adjacency are exactly — including float bits — those of
// the reference.
func assertSameProblem(t *testing.T, label string, ref, got *Problem) {
	t.Helper()
	if got.NumEdges() != ref.NumEdges() || len(got.W) != len(ref.W) || len(got.T) != len(ref.T) {
		t.Fatalf("%s: columns W/T/M of %d/%d/%d edges, reference %d/%d/%d", label,
			len(got.W), len(got.T), got.NumEdges(), len(ref.W), len(ref.T), ref.NumEdges())
	}
	bits := math.Float64bits
	for i := range ref.M {
		if got.W[i] != ref.W[i] || got.T[i] != ref.T[i] || bits(got.M[i]) != bits(ref.M[i]) ||
			bits(got.Quality(i)) != bits(ref.Quality(i)) || bits(got.Utility(i)) != bits(ref.Utility(i)) {
			t.Fatalf("%s: edge %d = (%d, %d, q %v, b %v, m %v), reference (%d, %d, q %v, b %v, m %v)", label, i,
				got.W[i], got.T[i], got.Quality(i), got.Utility(i), got.M[i],
				ref.W[i], ref.T[i], ref.Quality(i), ref.Utility(i), ref.M[i])
		}
	}
	for w := 0; w < ref.In.NumWorkers(); w++ {
		alo, ahi := got.AdjW(w)
		blo, bhi := ref.AdjW(w)
		if alo != blo || ahi != bhi {
			t.Fatalf("%s: AdjW(%d) = [%d, %d), reference [%d, %d)", label, w, alo, ahi, blo, bhi)
		}
	}
	for tj := 0; tj < ref.In.NumTasks(); tj++ {
		a, b := got.AdjT(tj), ref.AdjT(tj)
		if len(a) != len(b) {
			t.Fatalf("%s: AdjT(%d) length %d, reference %d", label, tj, len(a), len(b))
		}
		for k := range b {
			if a[k] != b[k] {
				t.Fatalf("%s: AdjT(%d)[%d] = %d, reference %d", label, tj, k, a[k], b[k])
			}
		}
	}
}

// TestNewProblemMatchesSerialReference is the construction-determinism
// property test: across 20 seeds and the three trace generators, the
// counted parallel build must produce the W, T and M columns, the derived
// quality and utility, AdjW and AdjT byte-identical to the retained serial
// reference, at every fan-out (including fan-outs far above GOMAXPROCS,
// which exercise the chunk-boundary search, and one chunk per worker).
// The reference lays AdjT out from append-grown per-task lists, so the
// comparison also pins AdjT's counting pass.
func TestNewProblemMatchesSerialReference(t *testing.T) {
	gens := []struct {
		name string
		cfg  func(workers, tasks int) market.Config
	}{
		{"freelance", market.FreelanceTraceConfig},
		{"microtask", market.MicrotaskTraceConfig},
		{"zipf", func(w, tk int) market.Config { return market.ZipfConfig(w, tk, 1.2) }},
	}
	for _, g := range gens {
		g := g
		t.Run(g.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 20; seed++ {
				in := market.MustGenerate(g.cfg(40, 30), seed)
				ref, err := NewProblemSerial(in, benefit.DefaultParams())
				if err != nil {
					t.Fatal(err)
				}
				pub := MustNewProblem(in, benefit.DefaultParams())
				assertSameProblem(t, "NewProblem", ref, pub)
				for _, procs := range []int{1, 2, 3, 5, 8, 40} {
					p, err := newProblemProcs(in, benefit.DefaultParams(), procs)
					if err != nil {
						t.Fatal(err)
					}
					assertSameProblem(t, "procs="+strconv.Itoa(procs), ref, p)
				}
			}
		})
	}
}

// TestNewProblemParallelLargeMarket forces a genuinely chunked build on a
// market big enough that every chunk owns many workers.
func TestNewProblemParallelLargeMarket(t *testing.T) {
	in := market.MustGenerate(market.FreelanceTraceConfig(600, 400), 42)
	ref, err := NewProblemSerial(in, benefit.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{2, 4, 7, 16} {
		p, err := newProblemProcs(in, benefit.DefaultParams(), procs)
		if err != nil {
			t.Fatal(err)
		}
		assertSameProblem(t, "procs="+strconv.Itoa(procs), ref, p)
	}
}

// TestNewProblemDegenerateShapes covers the counted build's boundary cases:
// no workers, no tasks, empty categories, single-specialty fast path.
func TestNewProblemDegenerateShapes(t *testing.T) {
	onlyWorkers := &market.Instance{
		Name: "only-workers", NumCategories: 3,
		Workers: []market.Worker{{
			ID: 0, Capacity: 2,
			Accuracy:    []float64{0.8, 0.8, 0.8},
			Interest:    []float64{0.5, 0.5, 0.5},
			Specialties: []int{1},
		}},
	}
	p := MustNewProblem(onlyWorkers, benefit.DefaultParams())
	if lo, hi := p.AdjW(0); p.NumEdges() != 0 || hi != lo {
		t.Fatalf("workers-only market produced %d edges", p.NumEdges())
	}

	onlyTasks := &market.Instance{
		Name: "only-tasks", NumCategories: 2,
		Tasks:      []market.Task{{ID: 0, Category: 0, Replication: 1, Payment: 1}},
		MaxPayment: 1,
	}
	p = MustNewProblem(onlyTasks, benefit.DefaultParams())
	if p.NumEdges() != 0 || len(p.AdjT(0)) != 0 {
		t.Fatalf("tasks-only market produced %d edges", p.NumEdges())
	}
}

// TestFilterProblemMatchesRebuild cross-checks the filtered layout: the
// kept edges and adjacency must agree with edge-by-edge expectations.
func TestFilterProblemMatchesRebuild(t *testing.T) {
	p := smallProblem(t, 11)
	fp := FilterProblem(p, MinQuality(0.3))
	wantEdges := 0
	for i := range p.M {
		if p.Quality(i) >= 0.3 {
			wantEdges++
		}
	}
	if fp.NumEdges() != wantEdges {
		t.Fatalf("filtered %d edges, want %d", fp.NumEdges(), wantEdges)
	}
	covered := 0
	for w := 0; w < fp.In.NumWorkers(); w++ {
		lo, hi := fp.AdjW(w)
		for ei := lo; ei < hi; ei++ {
			if int(fp.W[ei]) != w {
				t.Fatal("filtered AdjW holds foreign edge")
			}
			covered++
		}
	}
	if covered != fp.NumEdges() {
		t.Fatalf("filtered AdjW covers %d of %d edges", covered, fp.NumEdges())
	}
	covered = 0
	for tj := 0; tj < fp.In.NumTasks(); tj++ {
		prev := int32(-1)
		for _, ei := range fp.AdjT(tj) {
			if int(fp.T[ei]) != tj {
				t.Fatal("filtered AdjT holds foreign edge")
			}
			if ei <= prev {
				t.Fatal("filtered AdjT not ascending")
			}
			prev = ei
			covered++
		}
	}
	if covered != fp.NumEdges() {
		t.Fatalf("filtered AdjT covers %d of %d edges", covered, fp.NumEdges())
	}
}

// TestBuildChunkPanicIsContained pins that a scorer panicking on a build
// chunk goroutine re-panics on the caller, where the serving round's panic
// fence turns it into an error, instead of crashing the process.  The last
// worker's accuracy vector is cut short behind the model's back, so
// scoring its first edge indexes past it.
func TestBuildChunkPanicIsContained(t *testing.T) {
	in := market.MustGenerate(market.FreelanceTraceConfig(40, 30), 1)
	model, err := benefit.NewModel(in, benefit.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	bad := *in
	bad.Workers = append([]market.Worker(nil), in.Workers...)
	bad.Workers[len(bad.Workers)-1].Accuracy = nil
	p := &Problem{In: &bad, Model: model}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "index out of range") {
			t.Fatalf("recovered %v, want the chunk's panic", r)
		}
	}()
	p.build(3, nil)
}

// TestAdjTConcurrentFirstUse makes the first AdjT calls after a build from
// several goroutines at once, as local search's chunked task sweep does;
// under -race it pins the sync.Once that guards the layout, and the
// adjacency must still equal the serial reference.
func TestAdjTConcurrentFirstUse(t *testing.T) {
	in := market.MustGenerate(market.FreelanceTraceConfig(120, 90), 5)
	ref, err := NewProblemSerial(in, benefit.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	p := MustNewProblem(in, benefit.DefaultParams())
	const goroutines = 4
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for tj := g; tj < in.NumTasks(); tj += goroutines {
				_ = p.AdjT(tj)
			}
		}(g)
	}
	wg.Wait()
	assertSameProblem(t, "concurrent AdjT", ref, p)
}

package core

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/benefit"
	"repro/internal/market"
	"repro/internal/stats"
)

// smallProblem returns a moderate random problem for algorithm tests.
func smallProblem(t testing.TB, seed uint64) *Problem {
	t.Helper()
	in := market.MustGenerate(market.Config{NumWorkers: 30, NumTasks: 30}, seed)
	return MustNewProblem(in, benefit.DefaultParams())
}

// unitProblem returns a unit-capacity problem (plain matching shape).
func unitProblem(t testing.TB, seed uint64) *Problem {
	t.Helper()
	in := market.MustGenerate(market.Config{
		NumWorkers: 25, NumTasks: 25,
		MinCapacity: 1, MaxCapacity: 1,
		MinReplication: 1, MaxReplication: 1,
	}, seed)
	return MustNewProblem(in, benefit.DefaultParams())
}

func TestNewProblemEdgeEnumeration(t *testing.T) {
	in := market.MustGenerate(market.Config{NumWorkers: 10, NumTasks: 20}, 1)
	p := MustNewProblem(in, benefit.DefaultParams())
	if p.NumEdges() != in.NumEdges() {
		t.Fatalf("edges %d, instance says %d", p.NumEdges(), in.NumEdges())
	}
	// Every edge must be an eligible (specialty-matching) pair with benefit
	// values agreeing with the model.
	for i := range p.M {
		w := &in.Workers[p.W[i]]
		task := &in.Tasks[p.T[i]]
		if !w.AcceptsCategory(task.Category) {
			t.Fatalf("edge %d pairs worker %d with foreign category task %d", i, p.W[i], p.T[i])
		}
		q, b := p.Quality(i), p.Utility(i)
		if q != p.Model.Quality(w, task) || b != p.Model.WorkerUtility(w, task) {
			t.Fatalf("edge %d derived values disagree with model", i)
		}
		if math.Abs(p.M[i]-p.Model.Combine(q, b)) > 1e-15 {
			t.Fatalf("edge %d mutual value stale", i)
		}
	}
	// No duplicate pairs.
	seen := map[[2]int32]bool{}
	for i := range p.M {
		key := [2]int32{p.W[i], p.T[i]}
		if seen[key] {
			t.Fatalf("duplicate pair %v", key)
		}
		seen[key] = true
	}
}

func TestNewProblemAdjacencyConsistent(t *testing.T) {
	p := smallProblem(t, 2)
	countAdj := 0
	for w := 0; w < p.In.NumWorkers(); w++ {
		lo, hi := p.AdjW(w)
		for ei := lo; ei < hi; ei++ {
			if int(p.W[ei]) != w {
				t.Fatal("AdjW holds foreign edge")
			}
			countAdj++
		}
	}
	if countAdj != p.NumEdges() {
		t.Fatalf("worker adjacency covers %d of %d edges", countAdj, p.NumEdges())
	}
	countAdj = 0
	for tj := 0; tj < p.In.NumTasks(); tj++ {
		for _, ei := range p.AdjT(tj) {
			if int(p.T[ei]) != tj {
				t.Fatal("AdjT holds foreign edge")
			}
			countAdj++
		}
	}
	if countAdj != p.NumEdges() {
		t.Fatalf("task adjacency covers %d of %d edges", countAdj, p.NumEdges())
	}
}

func TestNewProblemRejectsInvalid(t *testing.T) {
	in := market.MustGenerate(market.Config{NumWorkers: 5, NumTasks: 5}, 3)
	if _, err := NewProblem(in, benefit.Params{Lambda: 2}); err == nil {
		t.Fatal("invalid params accepted")
	}
	in.Workers[0].Capacity = -1
	if _, err := NewProblem(in, benefit.DefaultParams()); err == nil {
		t.Fatal("invalid instance accepted")
	}
}

func TestFeasibleCatchesViolations(t *testing.T) {
	p := smallProblem(t, 4)
	if err := p.Feasible(nil); err != nil {
		t.Fatalf("empty assignment infeasible: %v", err)
	}
	if err := p.Feasible([]int{-1}); err == nil {
		t.Fatal("negative index accepted")
	}
	if err := p.Feasible([]int{p.NumEdges()}); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if err := p.Feasible([]int{0, 0}); err == nil {
		t.Fatal("duplicate edge accepted")
	}
	// Overflow worker 0's capacity by brute force: gather more of its edges
	// than capacity.
	w := int(p.W[0])
	cap0 := p.In.Workers[w].Capacity
	var mine []int
	for ei, hi := p.AdjW(w); ei < hi; ei++ {
		mine = append(mine, ei)
	}
	if len(mine) > cap0 {
		if err := p.Feasible(mine); err == nil {
			t.Fatal("worker capacity violation accepted")
		}
	}
}

// feasibilityProblem is two workers (capacities 1 and 2) and two tasks
// (replication 2 and 1) in one category: edges 0..3 are (w0,t0), (w0,t1),
// (w1,t0), (w1,t1).
func feasibilityProblem(t testing.TB) *Problem {
	t.Helper()
	worker := func(id, capacity int) market.Worker {
		return market.Worker{ID: id, Capacity: capacity, Accuracy: []float64{0.8},
			Interest: []float64{0.5}, Specialties: []int{0}}
	}
	task := func(id, replication int) market.Task {
		return market.Task{ID: id, Category: 0, Replication: replication, Payment: 1}
	}
	in := &market.Instance{
		Name: "feasibility", NumCategories: 1, MaxPayment: 1,
		Workers: []market.Worker{worker(0, 1), worker(1, 2)},
		Tasks:   []market.Task{task(0, 2), task(1, 1)},
	}
	return MustNewProblem(in, benefit.DefaultParams())
}

// TestFeasibleViolationMessages pins Feasible's message for a selection
// with exactly one violation, one case per kind.
func TestFeasibleViolationMessages(t *testing.T) {
	p := feasibilityProblem(t)
	for e, want := range [][2]int32{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		if p.W[e] != want[0] || p.T[e] != want[1] {
			t.Fatalf("edge %d = (w%d, t%d), want (w%d, t%d)", e, p.W[e], p.T[e], want[0], want[1])
		}
	}
	for _, tc := range []struct {
		name string
		sel  []int
		want string // "" for feasible
	}{
		{"feasible", []int{0, 2, 3}, ""},
		{"negative-index", []int{0, -1}, "core: edge index -1 out of range"},
		{"index-past-edges", []int{2, 4}, "core: edge index 4 out of range"},
		{"selected-twice", []int{2, 0, 2}, "core: edge 2 selected twice"},
		{"worker-over-capacity", []int{0, 1}, "core: worker 0 over capacity 1"},
		{"task-over-replication", []int{3, 1}, "core: task 1 over replication 1"},
	} {
		err := p.Feasible(tc.sel)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
	// Only a hand-built problem lists one pair under two indices; taking
	// both repeats the pair, not an index.
	dup := &Problem{In: p.In, W: []int32{1, 1}, T: []int32{0, 0}, M: []float64{1, 1}}
	const want = "core: edges 0 and 1 both pair worker 1 with task 0"
	if err := dup.Feasible([]int{0, 1}); err == nil || err.Error() != want {
		t.Errorf("repeated pair: got %v, want %q", err, want)
	}
}

// TestFeasibleScratchIndependentOfEdges pins Feasible's scratch to the
// selection and the market sides: on a market with far more edges than
// workers, tasks and selected pairs together, one call allocates once and
// a few bytes per worker, task and pair, never a byte per edge.
func TestFeasibleScratchIndependentOfEdges(t *testing.T) {
	p := MustNewProblem(market.MustGenerate(market.FreelanceTraceConfig(400, 300), 1), benefit.DefaultParams())
	sel, err := Greedy{}.Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	limit := 5*(p.In.NumWorkers()+p.In.NumTasks()+len(sel)) + 512
	if limit >= p.NumEdges() {
		t.Fatalf("%d edges do not dwarf the %d-byte limit", p.NumEdges(), limit)
	}
	if allocs := testing.AllocsPerRun(20, func() { _ = p.Feasible(sel) }); allocs > 1 {
		t.Errorf("%v allocs per call, want <= 1", allocs)
	}
	const calls = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if err := p.Feasible(sel); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := int(after.TotalAlloc-before.TotalAlloc) / calls; perCall > limit {
		t.Errorf("%d B per call over %d edges, want <= %d", perCall, p.NumEdges(), limit)
	}
}

func TestEvaluateTotals(t *testing.T) {
	p := smallProblem(t, 5)
	sel := []int{0, 1}
	m := p.Evaluate(sel)
	wantMutual := p.M[0] + p.M[1]
	if math.Abs(m.TotalMutual-wantMutual) > 1e-12 {
		t.Fatalf("mutual %v want %v", m.TotalMutual, wantMutual)
	}
	if m.Pairs != 2 {
		t.Fatalf("pairs = %d", m.Pairs)
	}
	if m.SlotCoverage <= 0 || m.SlotCoverage > 1 {
		t.Fatalf("coverage = %v", m.SlotCoverage)
	}
}

func TestEvaluateEmptyAssignment(t *testing.T) {
	p := smallProblem(t, 6)
	m := p.Evaluate(nil)
	if m.Pairs != 0 || m.TotalMutual != 0 || m.ActiveWorkers != 0 {
		t.Fatalf("empty metrics = %+v", m)
	}
	if m.WorkerJain != 1 {
		t.Fatalf("empty Jain = %v (all-zero benefit is vacuously fair)", m.WorkerJain)
	}
}

func TestPerWorkerBenefit(t *testing.T) {
	p := smallProblem(t, 7)
	sel := []int{0}
	per := p.PerWorkerBenefit(sel)
	if len(per) != p.In.NumWorkers() {
		t.Fatal("length mismatch")
	}
	w, b0 := p.W[0], p.Utility(0)
	if per[w] != b0 {
		t.Fatalf("worker %d benefit %v want %v", w, per[w], b0)
	}
	sum := 0.0
	for _, b := range per {
		sum += b
	}
	if math.Abs(sum-b0) > 1e-12 {
		t.Fatal("other workers should have zero")
	}
}

func TestRunValidatesAndTimes(t *testing.T) {
	p := smallProblem(t, 8)
	r := stats.NewRNG(1)
	sel, m, err := Run(p, Greedy{}, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Feasible(sel); err != nil {
		t.Fatal(err)
	}
	if m.Algorithm != "greedy" {
		t.Fatalf("algorithm name %q", m.Algorithm)
	}
	if m.Elapsed <= 0 {
		t.Fatal("elapsed not recorded")
	}
	if m.String() == "" {
		t.Fatal("empty metrics string")
	}
}

type badSolver struct{}

func (badSolver) Name() string { return "bad" }
func (badSolver) Solve(p *Problem, _ *stats.RNG) ([]int, error) {
	// Return the same edge twice: infeasible.
	if p.NumEdges() == 0 {
		return nil, nil
	}
	return []int{0, 0}, nil
}

func TestRunRejectsInfeasibleSolver(t *testing.T) {
	p := smallProblem(t, 9)
	if _, _, err := Run(p, badSolver{}, stats.NewRNG(1)); err == nil {
		t.Fatal("infeasible solver result accepted")
	}
}

func TestWeightKindString(t *testing.T) {
	if MutualWeight.String() != "mutual" || QualityWeight.String() != "quality" ||
		WorkerWeight.String() != "worker" {
		t.Fatal("weight kind names wrong")
	}
	if WeightKind(9).String() == "" {
		t.Fatal("unknown kind should render")
	}
}

func TestEdgeWeightSelector(t *testing.T) {
	p := smallProblem(t, 10)
	q, b, m := p.Weights(QualityWeight), p.Weights(WorkerWeight), p.Weights(MutualWeight)
	if &m[0] != &p.M[0] {
		t.Fatal("mutual weights are not the M column")
	}
	for e := range p.M {
		if q[e] != p.Quality(e) || b[e] != p.Utility(e) || m[e] != p.M[e] {
			t.Fatalf("edge %d: weight selector wrong", e)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kind did not panic")
		}
	}()
	p.Weights(WeightKind(9))
}

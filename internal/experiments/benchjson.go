package experiments

// The benchmark-regression harness behind `mbabench -benchjson`: three
// suites of testing.Benchmark runs emitting one machine-readable report.
//
//   - "construction": problem construction (parallel vs the retained serial
//     reference), the feasibility check, and the offline solver line-up at
//     three market scales.  Checked in as BENCH_construction.json.
//   - "solve": the steady-state serving path — same-shape RebuildProblem
//     into retained arenas, both the full rebuild and the refresh from a
//     1% churn delta, and the greedy / local-search solvers with a
//     pinned Workspace so repeated solves reuse their buffers, plus greedy
//     on a never-saturating copy of the market (its worst case), and the
//     registry's greedy solving 1% churn refreshes of both, which its
//     resident order serves on the market and its one-shot scan on the
//     copy.  The O(E)-per-pass local search is cheap enough to run at
//     every scale.
//   - "round": an end-to-end platform round — snapshot, rebuild, solve,
//     validate-and-commit — over a live Service with no journal attached.
//   - "matching": the exact flow path in isolation, cold (ExactSerial —
//     fresh graph, network and scratch every solve) vs. workspace-reused
//     (Exact with a pinned warmed Workspace) at three scales of its own:
//     the exact solver is super-linear, so the suite stops where it stays
//     tractable.  Checked in as BENCH_matching.json.
//   - "incremental": the churn-rate × market-size grid of the delta
//     solving path — cold and warm full exact solves against the
//     incremental solver serving zero-churn rounds and ping-ponged 1% / 5%
//     churn batches through carried duals.  Checked in as
//     BENCH_incremental.json; the ≥10× warm-vs-cold headline lives in the
//     "lg" rows.
//   - "ingest": sustained journaled event throughput across the binary
//     journal's ingestion pipelines — single-event, concurrent
//     group-commit, and 100-event batches — under both fsync policies.
//     Checked in as BENCH_ingest.json.
//   - "overload": the admission-controlled serving path under open-loop
//     storms at 1×/2×/4× of write capacity — admitted-latency percentiles
//     and the shed fraction per multiplier.  Checked in as
//     BENCH_overload.json (tracked, not wall-clock-gated; see
//     benchoverload.go).
//
// "solve" and "round" are checked in together as BENCH_solve.json.  Future
// PRs compare a fresh run against the checked-in baselines (`mbabench
// -benchdiff`, `make bench-diff`) to catch performance regressions; the
// schema is documented in EXPERIMENTS.md.

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/platform"
	"repro/internal/stats"
)

// BenchSchema identifies the report format; bump when fields change.
// v2 added the per-result "suite" field and the report-level "suites" list.
const BenchSchema = "mba-bench/v2"

// benchExactEdgeBudget caps the edge count at which the exact flow solver
// joins the construction line-up (it is super-linear and would dominate the
// harness's wall clock at the larger scales).
const benchExactEdgeBudget = 60000

// BenchSuites lists the suites RunBenchJSON knows, in canonical order.
func BenchSuites() []string {
	return []string{"construction", "solve", "round", "matching", "incremental", "sharded-round", "ingest", "overload"}
}

// BenchScale is one market size of the regression harness.
type BenchScale struct {
	Name    string `json:"name"`
	Workers int    `json:"workers"`
	Tasks   int    `json:"tasks"`
}

// DefaultBenchScales returns the three freelance-trace scales the harness
// measures: the headline comparison size, and two steps toward the
// million-edge regime of R-Fig9.
func DefaultBenchScales() []BenchScale {
	return []BenchScale{
		{Name: "small", Workers: 400, Tasks: 300},
		{Name: "medium", Workers: 1600, Tasks: 1200},
		{Name: "large", Workers: 6400, Tasks: 4800},
	}
}

// BenchResult is one benchmark entry of the report.
type BenchResult struct {
	// Suite is the suite the entry belongs to ("construction", "solve",
	// "round").
	Suite string `json:"suite"`
	// Name is "new-problem", "rebuild-problem", "close-round", … or a
	// solver name as reported by Solver.Name().
	Name string `json:"name"`
	// Scale echoes the BenchScale the entry ran at.
	Scale   string `json:"scale"`
	Workers int    `json:"workers"`
	Tasks   int    `json:"tasks"`
	Edges   int    `json:"edges"`
	// Iterations is the b.N testing.Benchmark settled on.
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// BenchReport is the top-level document written to BENCH_construction.json
// and BENCH_solve.json.
type BenchReport struct {
	Schema     string   `json:"schema"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Seed       uint64   `json:"seed"`
	Suites     []string `json:"suites"`
	// RoundSolver echoes BenchConfig.RoundSolver so `mbabench -benchdiff`
	// re-runs a baseline with the solver it was recorded with.  Empty means
	// each round suite's pinned default (greedy for "round", exact for
	// "sharded-round").
	RoundSolver string        `json:"round_solver,omitempty"`
	Results     []BenchResult `json:"results"`
}

// WriteJSON writes the indented JSON document.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// BenchConfig parameterises RunBenchJSON.
type BenchConfig struct {
	Seed uint64
	// Scales defaults to DefaultBenchScales.
	Scales []BenchScale
	// Suites defaults to {"construction"}.
	Suites []string
	// Solvers overrides the solver line-up of the construction and solve
	// suites.  Tests override it to keep the harness fast.
	Solvers []core.Solver
	// RoundSolver overrides the serving solver of the "round" and
	// "sharded-round" suites by registry name.  Empty keeps each suite's
	// pinned default — greedy for "round" (so checked-in BENCH_solve.json
	// baselines stay comparable) and exact for "sharded-round" (the
	// super-linear solver whose cost the partitioning amortises).
	RoundSolver string
}

// RunBenchJSON runs the regression harness, logging one human-readable line
// per entry to log, and returns the report.
func RunBenchJSON(log io.Writer, cfg BenchConfig) (*BenchReport, error) {
	scales := cfg.Scales
	if len(scales) == 0 {
		scales = DefaultBenchScales()
	}
	suites := cfg.Suites
	if len(suites) == 0 {
		suites = []string{"construction"}
	}
	rep := &BenchReport{
		Schema:      BenchSchema,
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Seed:        cfg.Seed,
		Suites:      suites,
		RoundSolver: cfg.RoundSolver,
	}
	for _, suite := range suites {
		var err error
		switch suite {
		case "construction":
			err = runConstructionSuite(log, cfg, scales, rep)
		case "solve":
			err = runSolveSuite(log, cfg, scales, rep)
		case "round":
			err = runRoundSuite(log, cfg, scales, rep)
		case "matching":
			err = runMatchingSuite(log, cfg, rep)
		case "incremental":
			err = runIncrementalSuite(log, cfg, rep)
		case "sharded-round":
			err = runShardedRoundSuite(log, cfg, rep)
		case "ingest":
			err = runIngestSuite(log, cfg, rep)
		case "overload":
			err = runOverloadSuite(log, cfg, rep)
		default:
			err = fmt.Errorf("experiments: unknown bench suite %q (have %v)", suite, BenchSuites())
		}
		if err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// benchAdder returns the append-and-log closure shared by all suites.
func benchAdder(log io.Writer, rep *BenchReport, suite string, sc BenchScale, edges int) func(string, testing.BenchmarkResult) {
	return func(name string, br testing.BenchmarkResult) {
		rep.Results = append(rep.Results, BenchResult{
			Suite: suite, Name: name, Scale: sc.Name,
			Workers: sc.Workers, Tasks: sc.Tasks, Edges: edges,
			Iterations:  br.N,
			NsPerOp:     float64(br.NsPerOp()),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
		})
		fmt.Fprintf(log, "%-13s %-8s %-20s %14.0f ns/op %10d allocs/op\n",
			suite, sc.Name, name, float64(br.NsPerOp()), br.AllocsPerOp())
	}
}

// benchInstance generates the freelance-trace workload for one scale.
func benchInstance(sc BenchScale, seed uint64) (*market.Instance, error) {
	return market.Generate(market.FreelanceTraceConfig(sc.Workers, sc.Tasks), seed)
}

// runConstructionSuite times problem construction, the feasibility check,
// and the cold-path solver line-up (fresh workspaces every solve).
func runConstructionSuite(log io.Writer, cfg BenchConfig, scales []BenchScale, rep *BenchReport) error {
	for _, sc := range scales {
		in, err := benchInstance(sc, cfg.Seed)
		if err != nil {
			return err
		}
		p, err := core.NewProblem(in, benefit.DefaultParams())
		if err != nil {
			return err
		}
		add := benchAdder(log, rep, "construction", sc, p.NumEdges())

		add("new-problem", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.NewProblem(in, benefit.DefaultParams()); err != nil {
					b.Fatal(err)
				}
			}
		}))
		add("new-problem-serial", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.NewProblemSerial(in, benefit.DefaultParams()); err != nil {
					b.Fatal(err)
				}
			}
		}))

		sel, err := (core.Greedy{Kind: core.MutualWeight}).Solve(p, nil)
		if err != nil {
			return err
		}
		add("feasible", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := p.Feasible(sel); err != nil {
					b.Fatal(err)
				}
			}
		}))

		solvers := cfg.Solvers
		if solvers == nil {
			solvers = []core.Solver{
				core.Greedy{Kind: core.MutualWeight},
				core.QualityOnly(),
				core.WorkerOnly(),
				core.Random{},
				core.RoundRobin{},
				core.LocalSearch{Kind: core.MutualWeight},
			}
			if p.NumEdges() <= benchExactEdgeBudget {
				solvers = append(solvers, core.Exact{Kind: core.MutualWeight})
			}
		}
		for _, s := range solvers {
			s := s
			add(s.Name(), testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := s.Solve(p, stats.NewRNG(uint64(i))); err != nil {
						b.Fatal(err)
					}
				}
			}))
		}
	}
	return nil
}

// runSolveSuite times the steady-state serving path: same-shape rebuilds
// into retained arenas, and repeated solves through a pinned Workspace so
// buffer reuse (not first-call allocation) is what gets measured.
func runSolveSuite(log io.Writer, cfg BenchConfig, scales []BenchScale, rep *BenchReport) error {
	for _, sc := range scales {
		in, err := benchInstance(sc, cfg.Seed)
		if err != nil {
			return err
		}
		p, err := core.NewProblem(in, benefit.DefaultParams())
		if err != nil {
			return err
		}
		add := benchAdder(log, rep, "solve", sc, p.NumEdges())

		prev, err := core.NewProblem(in, benefit.DefaultParams())
		if err != nil {
			return err
		}
		add("rebuild-problem", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p2, err := core.RebuildProblem(prev, in, benefit.DefaultParams(), nil)
				if err != nil {
					b.Fatal(err)
				}
				prev = p2
			}
		}))

		// A round of the serving loop: 1% churn, then the refresh from its
		// delta, continuing prev's chain.  Only the refresh is timed.
		cur, r := prev, stats.NewRNG(cfg.Seed)
		add("refresh-problem", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				next, d := churnInstance(cur.In, r)
				b.StartTimer()
				p2, err := core.RebuildProblem(cur, next, benefit.DefaultParams(), d)
				if err != nil {
					b.Fatal(err)
				}
				cur = p2
			}
		}))

		solvers := cfg.Solvers
		if solvers == nil {
			solvers = []core.Solver{
				core.Greedy{Kind: core.MutualWeight, WS: &core.Workspace{}},
				core.LocalSearch{Kind: core.MutualWeight, WS: &core.Workspace{}},
				core.LocalSearchSerial{Kind: core.MutualWeight, WS: &core.Workspace{}},
			}
		}
		for _, s := range solvers {
			if err := addSteadySolve(add, s.Name(), s, p); err != nil {
				return err
			}
		}
		if cfg.Solvers == nil {
			// Greedy's worst case: every capacity and replication raised to
			// the edge count, so every edge is taken and no bucket of its
			// edge order is ever skipped.
			free, err := core.NewProblem(unsaturatedInstance(in, p.NumEdges()), benefit.DefaultParams())
			if err != nil {
				return err
			}
			s := core.Greedy{Kind: core.MutualWeight, WS: &core.Workspace{}}
			if err := addSteadySolve(add, "greedy-unsaturated", s, free); err != nil {
				return err
			}
			// The served greedy across refreshes: its resident order on
			// the market, the one-shot scan on the unsaturated copy, where
			// greedy can take most edges.
			if err := addRefreshSolve(add, "greedy-refresh", cur, r); err != nil {
				return err
			}
			if err := addRefreshSolve(add, "greedy-refresh-unsaturated", free, r); err != nil {
				return err
			}
		}
	}
	return nil
}

// addRefreshSolve records the registry's greedy over a churn chain that
// continues from p: each op applies one round of 1% churn and refreshes
// the problem from its delta, untimed, then solves.  One cold solve and
// one refreshed solve come first, so the entry times steady rounds.
func addRefreshSolve(add func(string, testing.BenchmarkResult), name string, p *core.Problem, r *stats.RNG) error {
	s, err := core.ByName("greedy")
	if err != nil {
		return err
	}
	next := func() error {
		in, d := churnInstance(p.In, r)
		p, err = core.RebuildProblem(p, in, benefit.DefaultParams(), d)
		return err
	}
	for k := 0; k < 2; k++ {
		if _, err := s.Solve(p, nil); err != nil {
			return err
		}
		if err := next(); err != nil {
			return err
		}
	}
	add(name, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := next(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := s.Solve(p, nil); err != nil {
				b.Fatal(err)
			}
		}
	}))
	return nil
}

// addSteadySolve records repeated solves of p by s under name.  A warm-up
// solve first grows any pinned workspace, so the entry reports steady-state
// allocation, not the first-call buffer growth.
func addSteadySolve(add func(string, testing.BenchmarkResult), name string, s core.Solver, p *core.Problem) error {
	if _, err := s.Solve(p, stats.NewRNG(0)); err != nil {
		return err
	}
	add(name, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Solve(p, stats.NewRNG(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	}))
	return nil
}

// unsaturatedInstance returns a copy of in with every worker capacity and
// task replication raised to slots.
// churnInstance returns in after one round of 1% churn, the rounds-greedy
// shape, with its delta against in: len/100 workers and tasks depart at
// random and their profiles are re-posted as arrivals, which take the
// largest indices as fresh platform IDs do.  Re-posting keeps the payment
// multiset, so MaxPayment and the edge count stay put.
func churnInstance(in *market.Instance, r *stats.RNG) (*market.Instance, *core.Delta) {
	out := *in
	d := &core.Delta{}
	var order []int
	order, d.PrevWorker, d.AddedWorkers, d.RemovedWorkers = churnOrder(len(in.Workers), r)
	out.Workers = make([]market.Worker, len(order))
	for i, q := range order {
		out.Workers[i] = in.Workers[q]
		out.Workers[i].ID = i
	}
	order, d.PrevTask, d.AddedTasks, d.RemovedTasks = churnOrder(len(in.Tasks), r)
	out.Tasks = make([]market.Task, len(order))
	for j, q := range order {
		out.Tasks[j] = in.Tasks[q]
		out.Tasks[j].ID = j
	}
	return &out, d
}

// churnOrder departs n/100 of n indices at random and returns the next
// round's order as previous indices — the survivors ascending, then the
// departed re-posted — with that side of the Delta.
func churnOrder(n int, r *stats.RNG) (order []int, prev, added, removed []int32) {
	gone := make([]bool, n)
	for _, i := range r.Perm(n)[:n/100] {
		gone[i] = true
	}
	for _, departed := range []bool{false, true} {
		for i := range gone {
			if gone[i] != departed {
				continue
			}
			if departed {
				added = append(added, int32(len(order)))
				removed = append(removed, int32(i))
				prev = append(prev, -1)
			} else {
				prev = append(prev, int32(i))
			}
			order = append(order, i)
		}
	}
	return order, prev, added, removed
}

func unsaturatedInstance(in *market.Instance, slots int) *market.Instance {
	out := *in
	out.Workers = append([]market.Worker(nil), in.Workers...)
	out.Tasks = append([]market.Task(nil), in.Tasks...)
	for i := range out.Workers {
		out.Workers[i].Capacity = slots
	}
	for j := range out.Tasks {
		out.Tasks[j].Replication = slots
	}
	return &out
}

// MatchingBenchScales returns the three freelance-trace scales of the
// "matching" suite.  They are smaller than DefaultBenchScales because the
// suite runs the exact min-cost-flow solver twice per scale and that path
// is super-linear in the edge count.
func MatchingBenchScales() []BenchScale {
	return []BenchScale{
		{Name: "xs", Workers: 100, Tasks: 75},
		{Name: "sm", Workers: 200, Tasks: 150},
		{Name: "md", Workers: 400, Tasks: 300},
	}
}

// runMatchingSuite times the exact b-matching path cold vs. workspace-
// reused.  "exact-serial" is the retained reference — fresh graph, flow
// network and per-call scratch, SPFA potentials — while "exact" solves
// through one pinned warmed Workspace so arena reuse and the O(E)
// topological potential start-up are what gets measured.  Both produce
// bit-identical matchings (pinned by the parity tests), so the entries
// differ only in engine cost.
func runMatchingSuite(log io.Writer, cfg BenchConfig, rep *BenchReport) error {
	scales := cfg.Scales
	if len(scales) == 0 {
		scales = MatchingBenchScales()
	}
	for _, sc := range scales {
		in, err := benchInstance(sc, cfg.Seed)
		if err != nil {
			return err
		}
		p, err := core.NewProblem(in, benefit.DefaultParams())
		if err != nil {
			return err
		}
		add := benchAdder(log, rep, "matching", sc, p.NumEdges())

		cold := core.ExactSerial{Kind: core.MutualWeight}
		add(cold.Name(), testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cold.Solve(p, nil); err != nil {
					b.Fatal(err)
				}
			}
		}))

		warm := core.Exact{Kind: core.MutualWeight, WS: core.NewWorkspace()}
		// Warm the pinned workspace so the entry reports steady-state
		// reuse, not the first-call arena growth.
		if _, err := warm.Solve(p, nil); err != nil {
			return err
		}
		add(warm.Name(), testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := warm.Solve(p, nil); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}
	return nil
}

// IncrementalBenchScales returns the churn-grid market sizes.  "lg" is the
// headline scale of the warm-vs-cold comparison; like the matching suite it
// stays below the sizes where the cold exact baseline would dominate the
// harness's wall clock.
func IncrementalBenchScales() []BenchScale {
	return []BenchScale{
		{Name: "sm", Workers: 200, Tasks: 150},
		{Name: "md", Workers: 400, Tasks: 300},
		{Name: "lg", Workers: 800, Tasks: 600},
	}
}

// benchSubsetInstance materialises the instance that keeps all entities of
// in except every strideW-th worker and strideT-th task, with dense IDs and
// the full market's MaxPayment pinned (so utility normalisation — and with
// it every surviving edge weight — is identical in both instances).
func benchSubsetInstance(in *market.Instance, strideW, strideT int) (*market.Instance, []int, []int) {
	out := &market.Instance{
		Name:          in.Name,
		NumCategories: in.NumCategories,
		MaxPayment:    in.MaxPayment,
	}
	var keptW, keptT []int
	for i, w := range in.Workers {
		if (i+1)%strideW == 0 {
			continue
		}
		w.ID = len(out.Workers)
		out.Workers = append(out.Workers, w)
		keptW = append(keptW, i)
	}
	for j, t := range in.Tasks {
		if (j+1)%strideT == 0 {
			continue
		}
		t.ID = len(out.Tasks)
		out.Tasks = append(out.Tasks, t)
		keptT = append(keptT, j)
	}
	return out, keptW, keptT
}

// runIncrementalSuite measures the delta solving path on the churn grid.
// Per scale: the cold exact baseline (exact-serial, fresh everything), the
// warm full solve (exact through a pinned workspace), the incremental
// solver serving a zero-churn round (the steady state of the ≥10× goal),
// and the incremental solver ping-ponging between the full market and a
// churned copy at two churn rates — every iteration applies one
// departure/arrival batch and repairs the matching through carried duals.
func runIncrementalSuite(log io.Writer, cfg BenchConfig, rep *BenchReport) error {
	scales := cfg.Scales
	if len(scales) == 0 {
		scales = IncrementalBenchScales()
	}
	for _, sc := range scales {
		in, err := benchInstance(sc, cfg.Seed)
		if err != nil {
			return err
		}
		p, err := core.NewProblem(in, benefit.DefaultParams())
		if err != nil {
			return err
		}
		add := benchAdder(log, rep, "incremental", sc, p.NumEdges())

		cold := core.ExactSerial{Kind: core.MutualWeight}
		add("exact-cold", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cold.Solve(p, nil); err != nil {
					b.Fatal(err)
				}
			}
		}))

		warm := core.Exact{Kind: core.MutualWeight, WS: core.NewWorkspace()}
		if _, err := warm.Solve(p, nil); err != nil {
			return err
		}
		add("exact-warm", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := warm.Solve(p, nil); err != nil {
					b.Fatal(err)
				}
			}
		}))

		// Zero churn: an identity delta every round — pure revalidation plus
		// extraction, the steady state the ≥10× acceptance target measures.
		ident := &core.Delta{
			PrevWorker: make([]int32, in.NumWorkers()),
			PrevTask:   make([]int32, in.NumTasks()),
		}
		for i := range ident.PrevWorker {
			ident.PrevWorker[i] = int32(i)
		}
		for j := range ident.PrevTask {
			ident.PrevTask[j] = int32(j)
		}
		add("incremental-steady", testing.Benchmark(func(b *testing.B) {
			s := core.NewIncrementalExact()
			if _, err := s.Solve(p, nil); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.SolveDeltaCtx(nil, p, ident, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if r := s.LastReport(); !r.WarmStarted || r.FullSolveFallback {
				b.Fatalf("steady round not served warm: %+v", r)
			}
		}))

		// Churned rounds: ping-pong between the full market and a copy with
		// every strideW-th worker / strideT-th task removed, so each
		// iteration is one real departure-or-arrival batch at the named
		// churn rate (1/stride of each side).
		for _, churn := range []struct {
			name    string
			strideW int
			strideT int
		}{
			{"incremental-churn1", 100, 100},
			{"incremental-churn5", 20, 20},
		} {
			inB, keptW, keptT := benchSubsetInstance(in, churn.strideW, churn.strideT)
			pB, err := core.NewProblem(inB, benefit.DefaultParams())
			if err != nil {
				return err
			}
			allW := make([]int, in.NumWorkers())
			for i := range allW {
				allW[i] = i
			}
			allT := make([]int, in.NumTasks())
			for j := range allT {
				allT[j] = j
			}
			dAB := core.DeltaBetween(allW, keptW, allT, keptT)
			dBA := core.DeltaBetween(keptW, allW, keptT, allT)
			add(churn.name, testing.Benchmark(func(b *testing.B) {
				s := core.NewIncrementalExact()
				if _, err := s.Solve(p, nil); err != nil {
					b.Fatal(err)
				}
				// Warm both directions once so arena growth is off-clock.
				if _, err := s.SolveDeltaCtx(nil, pB, dAB, nil); err != nil {
					b.Fatal(err)
				}
				if _, err := s.SolveDeltaCtx(nil, p, dBA, nil); err != nil {
					b.Fatal(err)
				}
				if r := s.LastReport(); !r.WarmStarted || r.FullSolveFallback {
					b.Fatalf("churn round not served warm: %+v", r)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i%2 == 0 {
						_, err = s.SolveDeltaCtx(nil, pB, dAB, nil)
					} else {
						_, err = s.SolveDeltaCtx(nil, p, dBA, nil)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			}))
		}
	}
	return nil
}

// benchRoundSolver resolves the round suites' serving solver by registry
// name.  Greedy and exact are special-cased to carry a pinned workspace, so
// repeated rounds measure steady-state arena reuse rather than per-solve
// buffer growth; every call returns a fresh instance (solver state must not
// be shared between shards solving concurrently).
func benchRoundSolver(name string) (core.Solver, error) {
	switch name {
	case "greedy":
		return core.Greedy{Kind: core.MutualWeight, WS: &core.Workspace{}}, nil
	case "exact":
		return core.Exact{Kind: core.MutualWeight, WS: core.NewWorkspace()}, nil
	}
	return core.ByName(name)
}

// runRoundSuite times an end-to-end platform round over a live Service:
// snapshot under the state's read lock, rebuild into the previous round's
// arenas, solve (greedy unless cfg.RoundSolver overrides), then
// validate-and-commit.  No journal is attached, so the entry isolates the
// round protocol from disk I/O.
func runRoundSuite(log io.Writer, cfg BenchConfig, scales []BenchScale, rep *BenchReport) error {
	for _, sc := range scales {
		in, err := benchInstance(sc, cfg.Seed)
		if err != nil {
			return err
		}
		p, err := core.NewProblem(in, benefit.DefaultParams())
		if err != nil {
			return err
		}
		add := benchAdder(log, rep, "round", sc, p.NumEdges())

		state, err := platform.NewState(in.NumCategories)
		if err != nil {
			return err
		}
		for _, w := range in.Workers {
			if _, err := state.Apply(platform.NewWorkerJoined(w)); err != nil {
				return err
			}
		}
		for _, t := range in.Tasks {
			if _, err := state.Apply(platform.NewTaskPosted(t)); err != nil {
				return err
			}
		}
		solverName := cfg.RoundSolver
		if solverName == "" {
			solverName = "greedy"
		}
		solver, err := benchRoundSolver(solverName)
		if err != nil {
			return err
		}
		svc, err := platform.NewService(state, solver, benefit.DefaultParams(), nil, cfg.Seed)
		if err != nil {
			return err
		}
		// Warm-up round: the first CloseRound pays the arena allocation that
		// every later same-shape round reuses.
		if _, err := svc.CloseRound(); err != nil {
			return err
		}
		add("close-round", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := svc.CloseRound(); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}
	return nil
}

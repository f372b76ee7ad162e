package mba

// One testing.B benchmark per reconstructed table/figure (DESIGN.md §7).
// Each benchmark exercises the computational kernel of its experiment at a
// bench-friendly scale; the full tables are regenerated by cmd/mbabench.
// Run with:
//
//	go test -bench=. -benchmem
//
// The per-op numbers feed the runtime discussion in EXPERIMENTS.md.

import (
	"io"
	"testing"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/experiments"
	"repro/internal/market"
	"repro/internal/quality"
	"repro/internal/stats"
)

// benchProblem builds one reusable problem per benchmark.
func benchProblem(b *testing.B, cfg market.Config, seed uint64) *core.Problem {
	b.Helper()
	in, err := market.Generate(cfg, seed)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewProblem(in, benefit.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func benchSolver(b *testing.B, p *core.Problem, s core.Solver) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel, err := s.Solve(p, stats.NewRNG(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if len(p.Edges) > 0 && len(sel) == 0 {
			b.Fatal("empty assignment on non-empty market")
		}
	}
}

// BenchmarkNewProblem: problem construction at the three regression-harness
// scales — the parallel counted CSR build against the retained serial
// reference (per-worker sort.Ints, grow-by-append adjacency).  The ratio
// between the two is the construction speedup tracked in
// BENCH_construction.json.
func BenchmarkNewProblem(b *testing.B) {
	for _, sc := range []struct {
		name   string
		nw, nt int
	}{
		{"small", 400, 300}, {"medium", 1600, 1200}, {"large", 6400, 4800},
	} {
		in, err := market.Generate(market.FreelanceTraceConfig(sc.nw, sc.nt), 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("parallel/"+sc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.NewProblem(in, benefit.DefaultParams()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("serial-reference/"+sc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.NewProblemSerial(in, benefit.DefaultParams()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFeasible: the per-result validation that runs after every solver
// call (map-free since the slice rewrite).
func BenchmarkFeasible(b *testing.B) {
	p := benchProblem(b, market.FreelanceTraceConfig(1600, 1200), 1)
	sel, err := (core.Greedy{Kind: core.MutualWeight}).Solve(p, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Feasible(sel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerators (R-Tab1): workload generation cost per trace family.
func BenchmarkGenerators(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  market.Config
	}{
		{"uniform", market.UniformConfig(1000, 800)},
		{"zipf", market.ZipfConfig(1000, 800, 1.2)},
		{"freelance", market.FreelanceTraceConfig(1000, 800)},
		{"microtask", market.MicrotaskTraceConfig(1000, 800)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := market.Generate(tc.cfg, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHeadline (R-Tab2): every comparison algorithm on the freelance
// workload.
func BenchmarkHeadline(b *testing.B) {
	p := benchProblem(b, market.FreelanceTraceConfig(600, 400), 1)
	for _, s := range core.ComparisonSolvers() {
		b.Run(s.Name(), func(b *testing.B) { benchSolver(b, p, s) })
	}
}

// BenchmarkScaleTasks (R-Fig4): greedy and exact as the task side grows.
func BenchmarkScaleTasks(b *testing.B) {
	for _, m := range []int{200, 800, 1600} {
		p := benchProblem(b, market.FreelanceTraceConfig(600, m), 2)
		b.Run("greedy/tasks="+itoa(m), func(b *testing.B) {
			benchSolver(b, p, core.Greedy{Kind: core.MutualWeight})
		})
		if m <= 800 {
			b.Run("exact/tasks="+itoa(m), func(b *testing.B) {
				benchSolver(b, p, core.Exact{Kind: core.MutualWeight})
			})
		}
	}
}

// BenchmarkScaleWorkers (R-Fig5): the worker side grows.
func BenchmarkScaleWorkers(b *testing.B) {
	for _, n := range []int{150, 600, 2000} {
		p := benchProblem(b, market.FreelanceTraceConfig(n, 400), 3)
		b.Run("greedy/workers="+itoa(n), func(b *testing.B) {
			benchSolver(b, p, core.Greedy{Kind: core.MutualWeight})
		})
	}
}

// BenchmarkLambdaSweep (R-Fig6): exact at the λ extremes (objective shape
// does not change cost, but the edge-weight distribution does).
func BenchmarkLambdaSweep(b *testing.B) {
	in, err := market.Generate(market.FreelanceTraceConfig(300, 200), 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, l := range []float64{0, 0.5, 1} {
		p, err := core.NewProblem(in, benefit.Params{Lambda: l, Beta: 0.5})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("lambda="+ftoa(l), func(b *testing.B) {
			benchSolver(b, p, core.Exact{Kind: core.MutualWeight})
		})
	}
}

// BenchmarkSkewSweep (R-Fig7): skew changes the edge structure (popular
// categories grow dense), which is what drives solver cost.
func BenchmarkSkewSweep(b *testing.B) {
	for _, theta := range []float64{0, 0.9, 1.5} {
		p := benchProblem(b, market.ZipfConfig(400, 300, theta), 5)
		b.Run("theta="+ftoa(theta), func(b *testing.B) {
			benchSolver(b, p, core.Greedy{Kind: core.MutualWeight})
		})
	}
}

// BenchmarkCapacitySweep (R-Fig8): capacity deepens the flow.
func BenchmarkCapacitySweep(b *testing.B) {
	for _, c := range []int{1, 4, 8} {
		cfg := market.UniformConfig(300, 200)
		cfg.MinCapacity, cfg.MaxCapacity = c, c
		p := benchProblem(b, cfg, 6)
		b.Run("exact/capacity="+itoa(c), func(b *testing.B) {
			benchSolver(b, p, core.Exact{Kind: core.MutualWeight})
		})
	}
}

// BenchmarkRuntime (R-Fig9): the headline scalability series — greedy vs
// local-search vs exact as edges grow.
func BenchmarkRuntime(b *testing.B) {
	sizes := []struct{ nw, nt int }{{200, 150}, {800, 600}, {3200, 2400}}
	for _, sz := range sizes {
		p := benchProblem(b, market.FreelanceTraceConfig(sz.nw, sz.nt), 7)
		label := itoa(len(p.Edges)) + "edges"
		b.Run("greedy/"+label, func(b *testing.B) {
			benchSolver(b, p, core.Greedy{Kind: core.MutualWeight})
		})
		b.Run("local-search/"+label, func(b *testing.B) {
			benchSolver(b, p, core.LocalSearch{Kind: core.MutualWeight})
		})
		if len(p.Edges) <= 30000 {
			b.Run("exact/"+label, func(b *testing.B) {
				benchSolver(b, p, core.Exact{Kind: core.MutualWeight})
			})
		}
	}
}

// BenchmarkOptimality (R-Fig10): heuristic and auction kernels on the
// optimality-ratio workloads.
func BenchmarkOptimality(b *testing.B) {
	p := benchProblem(b, market.FreelanceTraceConfig(200, 150), 8)
	b.Run("local-search", func(b *testing.B) {
		benchSolver(b, p, core.LocalSearch{Kind: core.MutualWeight})
	})
	b.Run("submodular-greedy", func(b *testing.B) {
		benchSolver(b, p, core.SubmodularGreedy{})
	})
	unit := market.UniformConfig(200, 150)
	unit.MinCapacity, unit.MaxCapacity = 1, 1
	unit.MinReplication, unit.MaxReplication = 1, 1
	pu := benchProblem(b, unit, 8)
	b.Run("auction", func(b *testing.B) {
		benchSolver(b, pu, core.Auction{Kind: core.MutualWeight})
	})
}

// BenchmarkOnline (R-Fig11): the online policies.
func BenchmarkOnline(b *testing.B) {
	p := benchProblem(b, market.FreelanceTraceConfig(300, 200), 9)
	for _, s := range core.OnlineSolvers() {
		b.Run(s.Name(), func(b *testing.B) { benchSolver(b, p, s) })
	}
}

// BenchmarkEndToEnd (R-Fig12): assignment + answer simulation + the three
// aggregators.
func BenchmarkEndToEnd(b *testing.B) {
	in, err := market.Generate(market.MicrotaskTraceConfig(300, 150), 10)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewProblem(in, benefit.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	sel, err := (core.Greedy{Kind: core.MutualWeight}).Solve(p, nil)
	if err != nil {
		b.Fatal(err)
	}
	votes := make([]quality.Vote, len(sel))
	for i, ei := range sel {
		e := &p.Edges[ei]
		votes[i] = quality.Vote{
			Worker: e.W, Task: e.T,
			Acc: p.Model.EffectiveAccuracy(&in.Workers[e.W], &in.Tasks[e.T]),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := stats.NewRNG(uint64(i))
		as, err := quality.Simulate(in.NumWorkers(), in.NumTasks(), votes, r)
		if err != nil {
			b.Fatal(err)
		}
		quality.MajorityVote(as, r)
		quality.WeightedVote(as, r)
		quality.EM(as, 0, r)
	}
}

// BenchmarkDynamics (R-Fig13): one full multi-round retention simulation.
func BenchmarkDynamics(b *testing.B) {
	cfg := dynamics.Config{
		Rounds: 10,
		Market: market.Config{NumWorkers: 150, NumTasks: 100},
		Params: benefit.DefaultParams(),
		Solver: core.Greedy{Kind: core.MutualWeight},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dynamics.Simulate(cfg, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCombiners (R-Tab3): the exact solver under each combiner.
func BenchmarkCombiners(b *testing.B) {
	in, err := market.Generate(market.FreelanceTraceConfig(300, 200), 11)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []benefit.Combiner{benefit.WeightedSum, benefit.NashProduct, benefit.Egalitarian} {
		p, err := core.NewProblem(in, benefit.Params{Lambda: 0.5, Beta: 0.5, Combiner: c})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.String(), func(b *testing.B) {
			benchSolver(b, p, core.Exact{Kind: core.MutualWeight})
		})
	}
}

// BenchmarkAggregation (R-Tab4): the three aggregators at redundancy 5.
func BenchmarkAggregation(b *testing.B) {
	r := stats.NewRNG(12)
	const tasks = 500
	var votes []quality.Vote
	for w := 0; w < 100; w++ {
		acc := 0.55 + 0.4*r.Float64()
		for k := 0; k < 25; k++ {
			votes = append(votes, quality.Vote{Worker: w, Task: r.Intn(tasks), Acc: acc})
		}
	}
	as, err := quality.Simulate(100, tasks, votes, r)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("majority", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			quality.MajorityVote(as, stats.NewRNG(uint64(i)))
		}
	})
	b.Run("weighted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			quality.WeightedVote(as, stats.NewRNG(uint64(i)))
		}
	})
	b.Run("em", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			quality.EM(as, 0, stats.NewRNG(uint64(i)))
		}
	})
}

// BenchmarkAblations (X-Abl1, X-Abl3): the extension solvers' kernels.
func BenchmarkAblations(b *testing.B) {
	p := benchProblem(b, market.FreelanceTraceConfig(250, 180), 13)
	b.Run("annealing", func(b *testing.B) {
		benchSolver(b, p, core.SimulatedAnnealing{Kind: core.MutualWeight, Iters: 20000})
	})
	b.Run("incremental-churn", func(b *testing.B) {
		r := stats.NewRNG(13)
		mkWorker := func() market.Worker {
			w := market.Worker{Capacity: r.IntRange(1, 3), Accuracy: make([]float64, 8), Interest: make([]float64, 8)}
			for c := 0; c < 8; c++ {
				w.Accuracy[c] = r.Float64Range(0.5, 0.95)
				w.Interest[c] = r.Float64()
			}
			w.Specialties = r.Perm(8)[:r.IntRange(1, 3)]
			return w
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inc, err := core.NewIncremental(8, 20, benefit.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			var ids []int
			for ev := 0; ev < 200; ev++ {
				switch {
				case ev%5 == 4 && len(ids) > 0:
					if err := inc.RemoveWorker(ids[0]); err != nil {
						b.Fatal(err)
					}
					ids = ids[1:]
				case ev%2 == 0:
					id, err := inc.AddWorker(mkWorker())
					if err != nil {
						b.Fatal(err)
					}
					ids = append(ids, id)
				default:
					if _, err := inc.AddTask(market.Task{
						Category: r.Intn(8), Replication: r.IntRange(1, 3),
						Payment: r.Float64Range(1, 20),
					}); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
}

// BenchmarkExperimentSuite times the full quick-scale harness — the cost of
// regenerating every table and figure end to end.
func BenchmarkExperimentSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.RunConfig{Seed: uint64(i), Quick: true, Reps: 1}
		for _, e := range experiments.All() {
			if err := experiments.RunOne(io.Discard, e, cfg); err != nil {
				b.Fatalf("%s: %v", e.ID, err)
			}
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func ftoa(v float64) string {
	// One decimal is enough for the knob labels used here.
	whole := int(v)
	frac := int(v*10) % 10
	return itoa(whole) + "." + itoa(frac)
}

package experiments

import (
	"fmt"
	"io"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "R-Tab1",
		Title: "dataset statistics of the four workloads",
		Expected: "freelance: high prices, low replication; microtask: many slots, low prices; " +
			"zipf concentrates edges relative to uniform",
		Run: runTab1,
	})
	register(Experiment{
		ID:    "R-Tab2",
		Title: "headline comparison of all algorithms on the freelance trace",
		Expected: "exact/greedy/local-search lead on mutual benefit; quality-only wins requester " +
			"quality but collapses worker benefit and fairness; random/round-robin trail everywhere",
		Run: runTab2,
	})
	register(Experiment{
		ID:    "R-Tab3",
		Title: "mutual-benefit combiner ablation (weighted-sum / nash-product / egalitarian)",
		Expected: "nash and egalitarian shift the optimum toward balanced pairs: lower quality sum, " +
			"higher minimum-side benefit and fairness than weighted-sum",
		Run: runTab3,
	})
}

func runTab1(w io.Writer, cfg RunConfig) error {
	nw := cfg.pick(1000, 100)
	nt := cfg.pick(800, 80)
	workloads := []market.Config{
		market.UniformConfig(nw, nt),
		market.ZipfConfig(nw, nt, 1.2),
		market.FreelanceTraceConfig(nw, nt),
		market.MicrotaskTraceConfig(nw, nt),
	}
	t := newTable(w, "workload", "workers", "tasks", "cats", "edges", "slots", "capacity", "mean-pay", "mean-acc")
	for _, wl := range workloads {
		in, err := market.Generate(wl, cfg.Seed)
		if err != nil {
			return err
		}
		s := in.ComputeStats()
		t.row(s.Name, s.Workers, s.Tasks, s.Categories, s.Edges, s.TotalSlots, s.TotalCapacity,
			f2(s.MeanPayment), f3(s.MeanAccuracy))
	}
	return t.flush()
}

func runTab2(w io.Writer, cfg RunConfig) error {
	mcfg := market.FreelanceTraceConfig(cfg.pick(600, 80), cfg.pick(400, 60))
	reps := cfg.reps(3)
	t := newTable(w, "algorithm", "mutual±ci", "quality", "worker", "coverage", "jain", "active", "time")
	for _, s := range core.ComparisonSolvers() {
		ms, err := repeatMetrics(mcfg, benefit.DefaultParams(), s, cfg.Seed, reps)
		if err != nil {
			return err
		}
		avg := meanMetrics(ms)
		vals := mutualValues(ms)
		t.row(s.Name(), pm(stats.Mean(vals), stats.CI95(vals)), f2(avg.TotalQuality), f2(avg.TotalWorker),
			f3(avg.SlotCoverage), f3(avg.WorkerJain), avg.ActiveWorkers, avg.Elapsed.String())
	}
	return t.flush()
}

func runTab3(w io.Writer, cfg RunConfig) error {
	mcfg := market.FreelanceTraceConfig(cfg.pick(400, 80), cfg.pick(300, 60))
	reps := cfg.reps(3)
	combiners := []benefit.Combiner{benefit.WeightedSum, benefit.NashProduct, benefit.Egalitarian}
	t := newTable(w, "combiner", "objective", "quality", "worker", "jain", "min-side-gap")
	for _, c := range combiners {
		params := benefit.Params{Lambda: 0.5, Beta: 0.5, Combiner: c}
		var obj, q, b, jain, gap float64
		for rep := 0; rep < reps; rep++ {
			seed := cfg.Seed + uint64(rep)
			in, err := market.Generate(mcfg, seed)
			if err != nil {
				return err
			}
			p, err := core.NewProblem(in, params)
			if err != nil {
				return err
			}
			sel, m, err := core.Run(p, core.Exact{Kind: core.MutualWeight}, stats.NewRNG(seed))
			if err != nil {
				return err
			}
			obj += m.TotalMutual
			q += m.TotalQuality
			b += m.TotalWorker
			jain += m.WorkerJain
			// Mean per-pair |q − b| gap: combiners that punish one-sided
			// pairs should shrink it.
			var g float64
			for _, ei := range sel {
				d := p.Quality(ei) - p.Utility(ei)
				if d < 0 {
					d = -d
				}
				g += d
			}
			if len(sel) > 0 {
				gap += g / float64(len(sel))
			}
		}
		n := float64(reps)
		t.row(c.String(), f2(obj/n), f2(q/n), f2(b/n), f3(jain/n), f3(gap/n))
	}
	if err := t.flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "objective column is each combiner's own optimum (not cross-comparable across rows)")
	return nil
}

package experiments

import (
	"io"
	"time"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "R-Fig9",
		Title: "runtime scalability (wall clock vs. edge count)",
		Expected: "exact grows super-linearly and is dropped past its edge budget; greedy and " +
			"quality-only stay near-linear up to a million edges — the practical crossover that motivates the heuristics",
		Run: runFig9,
	})
	register(Experiment{
		ID:    "R-Fig10",
		Title: "optimality ratio of the heuristics vs. the exact optimum",
		Expected: "greedy ≥ 0.9 in practice (far above its 0.5 bound), local-search closes most of " +
			"the remaining gap, auction is ε-exact on matching instances, random trails",
		Run: runFig10,
	})
}

func runFig9(w io.Writer, cfg RunConfig) error {
	type point struct{ nw, nt int }
	var pts []point
	if cfg.Quick {
		pts = []point{{50, 40}, {100, 80}, {200, 160}}
	} else {
		pts = []point{{200, 150}, {400, 300}, {800, 600}, {1600, 1200}, {3200, 2400}, {6400, 4800}}
	}
	exactEdgeBudget := cfg.pick(60000, 4000)

	t := newTable(w, "workers", "tasks", "edges", "exact", "local-search", "greedy", "quality-only")
	for _, pt := range pts {
		in, err := market.Generate(market.FreelanceTraceConfig(pt.nw, pt.nt), cfg.Seed)
		if err != nil {
			return err
		}
		p, err := core.NewProblem(in, benefit.DefaultParams())
		if err != nil {
			return err
		}
		timing := func(s core.Solver) (time.Duration, error) {
			_, m, err := core.Run(p, s, stats.NewRNG(cfg.Seed))
			return m.Elapsed, err
		}
		exactCell := "skipped"
		if p.NumEdges() <= exactEdgeBudget {
			d, err := timing(core.Exact{Kind: core.MutualWeight})
			if err != nil {
				return err
			}
			exactCell = d.Round(time.Microsecond).String()
		}
		// Local search's exchange passes are super-linear in edges too; it
		// gets a (larger) budget of its own before being dropped.
		lsCell := "skipped"
		if p.NumEdges() <= 40*exactEdgeBudget {
			d, err := timing(core.LocalSearch{Kind: core.MutualWeight})
			if err != nil {
				return err
			}
			lsCell = d.Round(time.Microsecond).String()
		}
		dG, err := timing(core.Greedy{Kind: core.MutualWeight})
		if err != nil {
			return err
		}
		dQ, err := timing(core.QualityOnly())
		if err != nil {
			return err
		}
		t.row(pt.nw, pt.nt, p.NumEdges(), exactCell, lsCell,
			dG.Round(time.Microsecond).String(),
			dQ.Round(time.Microsecond).String())
	}
	return t.flush()
}

func runFig10(w io.Writer, cfg RunConfig) error {
	reps := cfg.reps(5)
	nw, nt := cfg.pick(200, 50), cfg.pick(150, 40)

	// General (b-matching) instances.
	general := []core.Solver{
		core.Greedy{Kind: core.MutualWeight},
		core.LocalSearch{Kind: core.MutualWeight},
		core.SubmodularGreedy{},
		core.Random{},
		core.RoundRobin{},
	}
	t := newTable(w, "instance", "algorithm", "ratio-vs-exact")
	ratios := make(map[string]*stats.Running)
	for rep := 0; rep < reps; rep++ {
		seed := cfg.Seed + uint64(rep)
		in, err := market.Generate(market.FreelanceTraceConfig(nw, nt), seed)
		if err != nil {
			return err
		}
		p, err := core.NewProblem(in, benefit.DefaultParams())
		if err != nil {
			return err
		}
		_, opt, err := core.Run(p, core.Exact{Kind: core.MutualWeight}, stats.NewRNG(seed))
		if err != nil {
			return err
		}
		for _, s := range general {
			_, m, err := core.Run(p, s, stats.NewRNG(seed))
			if err != nil {
				return err
			}
			if ratios[s.Name()] == nil {
				ratios[s.Name()] = stats.NewRunning()
			}
			ratios[s.Name()].Add(m.TotalMutual / opt.TotalMutual)
		}
	}
	for _, s := range general {
		t.row("b-matching", s.Name(), f3(ratios[s.Name()].Mean()))
	}

	// Unit-capacity (matching) instances: the auction joins the line-up.
	unit := []core.Solver{
		core.Auction{Kind: core.MutualWeight},
		core.Greedy{Kind: core.MutualWeight},
		core.LocalSearch{Kind: core.MutualWeight},
	}
	unitRatios := make(map[string]*stats.Running)
	for rep := 0; rep < reps; rep++ {
		seed := cfg.Seed + 1000 + uint64(rep)
		mc := market.UniformConfig(nw, nt)
		mc.MinCapacity, mc.MaxCapacity = 1, 1
		mc.MinReplication, mc.MaxReplication = 1, 1
		in, err := market.Generate(mc, seed)
		if err != nil {
			return err
		}
		p, err := core.NewProblem(in, benefit.DefaultParams())
		if err != nil {
			return err
		}
		_, opt, err := core.Run(p, core.Exact{Kind: core.MutualWeight}, stats.NewRNG(seed))
		if err != nil {
			return err
		}
		for _, s := range unit {
			_, m, err := core.Run(p, s, stats.NewRNG(seed))
			if err != nil {
				return err
			}
			if unitRatios[s.Name()] == nil {
				unitRatios[s.Name()] = stats.NewRunning()
			}
			unitRatios[s.Name()].Add(m.TotalMutual / opt.TotalMutual)
		}
	}
	for _, s := range unit {
		t.row("matching", s.Name(), f3(unitRatios[s.Name()].Mean()))
	}
	return t.flush()
}

package experiments

import (
	"fmt"
	"io"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/market"
	"repro/internal/quality"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "R-Fig12",
		Title: "end-to-end answer accuracy after aggregation, per assignment algorithm",
		Expected: "quality-aware assignment (exact/greedy/quality-only) clearly beats worker-only and " +
			"random on aggregated accuracy; weighted voting adds a margin over majority voting",
		Run: runFig12,
	})
	register(Experiment{
		ID:    "R-Fig13",
		Title: "worker participation across rounds (willingness to participate)",
		Expected: "participation under mutual-benefit assignment stays high while quality-only bleeds " +
			"workers round after round, and its cumulative benefit falls behind despite winning single rounds",
		Run: runFig13,
	})
	register(Experiment{
		ID:    "R-Tab4",
		Title: "aggregation methods vs. redundancy (majority / weighted / EM)",
		Expected: "accuracy grows with redundancy for all aggregators; weighted voting (oracle) " +
			"leads throughout; EM trails at low redundancy (too few answers per worker to estimate " +
			"accuracies) and narrows the gap as redundancy grows — the one-coin model mismatch " +
			"against per-task difficulty keeps it from matching the oracle",
		Run: runTab4,
	})
}

// collectVotes converts an assignment into quality.Votes carrying effective
// accuracies.
func collectVotes(p *core.Problem, sel []int) []quality.Vote {
	votes := make([]quality.Vote, 0, len(sel))
	for _, ei := range sel {
		w, t := int(p.W[ei]), int(p.T[ei])
		acc := p.Model.EffectiveAccuracy(&p.In.Workers[w], &p.In.Tasks[t])
		votes = append(votes, quality.Vote{Worker: w, Task: t, Acc: acc})
	}
	return votes
}

func runFig12(w io.Writer, cfg RunConfig) error {
	reps := cfg.reps(5)
	mcfg := market.MicrotaskTraceConfig(cfg.pick(300, 60), cfg.pick(150, 30))
	solvers := []core.Solver{
		core.Exact{Kind: core.MutualWeight},
		core.Greedy{Kind: core.MutualWeight},
		core.SubmodularGreedy{},
		core.QualityOnly(),
		core.WorkerOnly(),
		core.Random{},
	}
	t := newTable(w, "algorithm", "majority-acc", "weighted-acc", "coverage")
	for _, s := range solvers {
		mv, wv, cov := stats.NewRunning(), stats.NewRunning(), stats.NewRunning()
		for rep := 0; rep < reps; rep++ {
			seed := cfg.Seed + uint64(rep)
			in, err := market.Generate(mcfg, seed)
			if err != nil {
				return err
			}
			p, err := core.NewProblem(in, benefit.DefaultParams())
			if err != nil {
				return err
			}
			sel, m, err := core.Run(p, s, stats.NewRNG(seed))
			if err != nil {
				return err
			}
			r := stats.NewRNG(seed * 31)
			as, err := quality.Simulate(in.NumWorkers(), in.NumTasks(), collectVotes(p, sel), r)
			if err != nil {
				return err
			}
			mv.Add(quality.Accuracy(as, quality.MajorityVote(as, r), true))
			wv.Add(quality.Accuracy(as, quality.WeightedVote(as, r), true))
			cov.Add(m.SlotCoverage)
		}
		t.row(s.Name(), f3(mv.Mean()), f3(wv.Mean()), f3(cov.Mean()))
	}
	return t.flush()
}

func runFig13(w io.Writer, cfg RunConfig) error {
	rounds := cfg.pick(20, 6)
	mcfg := market.Config{
		NumWorkers: cfg.pick(200, 60),
		NumTasks:   cfg.pick(120, 40),
	}
	policies := []core.Solver{
		core.Greedy{Kind: core.MutualWeight},
		core.QualityOnly(),
		core.Random{},
	}
	reports := map[string]*dynamics.Report{}
	for _, s := range policies {
		rep, err := dynamics.Simulate(dynamics.Config{
			Rounds: rounds,
			Market: mcfg,
			Params: benefit.DefaultParams(),
			Solver: s,
		}, cfg.Seed)
		if err != nil {
			return err
		}
		reports[s.Name()] = rep
	}
	headers := []string{"round"}
	for _, s := range policies {
		headers = append(headers, s.Name()+"-part")
	}
	t := newTable(w, headers...)
	for round := 0; round < rounds; round++ {
		row := []interface{}{round}
		for _, s := range policies {
			row = append(row, f3(reports[s.Name()].Rounds[round].Participation))
		}
		t.row(row...)
	}
	if err := t.flush(); err != nil {
		return err
	}
	for _, s := range policies {
		rep := reports[s.Name()]
		fmt.Fprintf(w, "%-14s final participation %.3f, cumulative mutual benefit %.1f\n",
			s.Name(), rep.FinalParticipation, rep.TotalMutual)
	}
	return nil
}

func runTab4(w io.Writer, cfg RunConfig) error {
	reps := cfg.reps(5)
	// EM needs a meaningful number of answers per worker to estimate
	// accuracies, so this experiment uses the dense-aggregation regime of
	// the Dawid–Skene literature: a small committed crowd with high
	// capacity answering a large task batch.
	nw, nt := cfg.pick(60, 25), cfg.pick(500, 60)
	t := newTable(w, "redundancy", "majority", "weighted", "em-1coin", "em-2coin")
	for _, k := range []int{1, 3, 5, 7} {
		mcfg := market.MicrotaskTraceConfig(nw, nt)
		mcfg.MinReplication, mcfg.MaxReplication = k, k
		mcfg.MinCapacity, mcfg.MaxCapacity = 40, 80
		mv, wv, em, em2 := stats.NewRunning(), stats.NewRunning(), stats.NewRunning(), stats.NewRunning()
		for rep := 0; rep < reps; rep++ {
			seed := cfg.Seed + uint64(rep)
			in, err := market.Generate(mcfg, seed)
			if err != nil {
				return err
			}
			p, err := core.NewProblem(in, benefit.DefaultParams())
			if err != nil {
				return err
			}
			sel, _, err := core.Run(p, core.Greedy{Kind: core.MutualWeight}, stats.NewRNG(seed))
			if err != nil {
				return err
			}
			r := stats.NewRNG(seed * 97)
			as, err := quality.Simulate(in.NumWorkers(), in.NumTasks(), collectVotes(p, sel), r)
			if err != nil {
				return err
			}
			mv.Add(quality.Accuracy(as, quality.MajorityVote(as, r), true))
			wv.Add(quality.Accuracy(as, quality.WeightedVote(as, r), true))
			emPred, _ := quality.EM(as, 0, r)
			em.Add(quality.Accuracy(as, emPred, true))
			em2Pred, _ := quality.EMTwoCoin(as, 0, r)
			em2.Add(quality.Accuracy(as, em2Pred, true))
		}
		t.row(k, f3(mv.Mean()), f3(wv.Mean()), f3(em.Mean()), f3(em2.Mean()))
	}
	return t.flush()
}

package experiments

// The "sharded-round" benchmark suite: end-to-end platform rounds over one
// platform.Service whose rounds split into 1/2/4/8 category partitions,
// same workload, same solver.  Checked in as BENCH_sharded.json and gated
// by `mbabench -benchdiff`.
//
// What the suite demonstrates is algorithmic, not just parallel: the exact
// min-cost-flow solver is super-linear in the subproblem size, so cutting
// one market's round into S category-disjoint partitions makes the summed
// solve work strictly smaller — S partitions are faster than one even on
// GOMAXPROCS=1, and concurrency on bigger machines stacks on top.  Every
// partition scores pairs under the one market's model (its market-wide
// MaxPayment), so the entries solve one objective; what a split gives up
// is the quality lost to reconciling workers over-subscribed across
// partitions.  The workload spreads tasks uniformly over 64 categories
// (balanced partitions) with 1–2 specialties per worker, so roughly half
// the workers span partitions and the reconciliation pass stays on the
// measured path.

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/platform"
)

// shardedBenchCategories sizes the category universe of the suite's
// workload; 64 categories keep 8 shards balanced (8 categories each).
const shardedBenchCategories = 64

// shardedBenchShardCounts is the partitioning ladder each scale runs.
var shardedBenchShardCounts = []int{1, 2, 4, 8}

// ShardedRoundBenchScales returns the two market sizes of the suite.  "lg"
// is the headline scale of the ≥4× rounds/sec acceptance target; both stay
// below where the 1-shard exact solve would dominate the harness's wall
// clock.
func ShardedRoundBenchScales() []BenchScale {
	return []BenchScale{
		{Name: "md", Workers: 1600, Tasks: 1200},
		{Name: "lg", Workers: 3200, Tasks: 2400},
	}
}

// shardedBenchInstance generates the suite's workload: uniform category
// popularity (balanced shards) and 1–2 specialties per worker, so spanning
// workers — the reconciliation load — are about half the workforce.
func shardedBenchInstance(sc BenchScale, seed uint64) (*market.Instance, error) {
	return market.Generate(market.Config{
		Name:           "sharded-bench",
		NumWorkers:     sc.Workers,
		NumTasks:       sc.Tasks,
		NumCategories:  shardedBenchCategories,
		MinSpecialties: 1,
		MaxSpecialties: 2,
	}, seed)
}

// newBenchShardedService assembles an in-memory service (no journal, no
// checkpoints — the suite isolates the round protocol from disk I/O, like
// the "round" suite) whose rounds split into the given partition count,
// and loads the full workload.
func newBenchShardedService(in *market.Instance, shards int, solverName string, seed uint64) (*platform.Service, error) {
	state, err := platform.NewState(in.NumCategories)
	if err != nil {
		return nil, err
	}
	solvers := make([]core.Solver, shards)
	for k := range solvers {
		if solvers[k], err = benchRoundSolver(solverName); err != nil {
			return nil, err
		}
	}
	svc, err := platform.NewPartitionedService(state, solvers, benefit.DefaultParams(), nil, seed)
	if err != nil {
		return nil, err
	}
	// Blank the generator's dense 0-based IDs so the service hands out its
	// own (a submitted non-zero ID is replay semantics, not a request).
	for _, w := range in.Workers {
		w.ID = 0
		if _, err := svc.Submit(platform.NewWorkerJoined(w)); err != nil {
			return nil, err
		}
	}
	for _, t := range in.Tasks {
		t.ID = 0
		if _, err := svc.Submit(platform.NewTaskPosted(t)); err != nil {
			return nil, err
		}
	}
	return svc, nil
}

// benchBestOf runs a benchmark n times and keeps the fastest sample.  The
// single-shard rungs take seconds per round, so one testing.Benchmark call
// yields b.N == 1 — a single sample whose noise can trip the 25% bench-diff
// gate.  Min-of-n matches the gate's own best-of-two philosophy: noise only
// inflates timings, so the minimum is the best estimate of true cost.
func benchBestOf(n int, f func(*testing.B)) testing.BenchmarkResult {
	best := testing.Benchmark(f)
	for i := 1; i < n; i++ {
		if r := testing.Benchmark(f); r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	return best
}

// runShardedRoundSuite times CloseRound at each rung of the shard ladder.
// Entries are named close-round/shards=N; rounds/sec scaling across N at a
// fixed scale is the suite's headline, ns/op regressions per entry are what
// the bench-diff gate watches.
func runShardedRoundSuite(log io.Writer, cfg BenchConfig, rep *BenchReport) error {
	scales := cfg.Scales
	if len(scales) == 0 {
		scales = ShardedRoundBenchScales()
	}
	solverName := cfg.RoundSolver
	if solverName == "" {
		solverName = "exact"
	}
	for _, sc := range scales {
		in, err := shardedBenchInstance(sc, cfg.Seed)
		if err != nil {
			return err
		}
		// Edge count reported for the scale is the whole market's; each
		// partition solves a category-disjoint slice of exactly these edges.
		p, err := core.NewProblem(in, benefit.DefaultParams())
		if err != nil {
			return err
		}
		add := benchAdder(log, rep, "sharded-round", sc, p.NumEdges())
		for _, shards := range shardedBenchShardCounts {
			ss, err := newBenchShardedService(in, shards, solverName, cfg.Seed)
			if err != nil {
				return err
			}
			// Warm-up round: pays per-partition arena allocation and (for
			// dual-carrying solvers) the first cold solve, so the entry
			// measures the steady serving state.
			if _, err := ss.CloseRound(); err != nil {
				return err
			}
			add(fmt.Sprintf("close-round/shards=%d", shards), benchBestOf(3, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := ss.CloseRound(); err != nil {
						b.Fatal(err)
					}
				}
			}))
		}
	}
	return nil
}

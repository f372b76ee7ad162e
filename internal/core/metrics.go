package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/stats"
)

// Metrics scores one assignment from every angle the evaluation reports:
// both sides' totals, coverage, fairness across workers, and (optionally)
// wall-clock time filled in by the harness.
type Metrics struct {
	Algorithm string
	// Pairs is the number of assigned worker-task pairs.
	Pairs int
	// TotalMutual / TotalQuality / TotalWorker are the sums of the per-edge
	// benefit values over the assignment.  TotalMutual is the MBA-L
	// objective.
	TotalMutual  float64
	TotalQuality float64
	TotalWorker  float64
	// SlotCoverage is pairs / Σ replication — the fraction of requested
	// answer slots that were filled.
	SlotCoverage float64
	// WorkerJain is Jain's fairness index over per-worker received benefit
	// (workers with no assignment count as zero — an idle worker is the
	// unfairness the paper worries about).
	WorkerJain float64
	// MeanWorkerBenefit averages received worker-side benefit over all
	// workers (idle included).
	MeanWorkerBenefit float64
	// ActiveWorkers is the number of workers with at least one task.
	ActiveWorkers int
	// Elapsed is the solver wall-clock, set by the harness (zero when the
	// assignment was not timed).
	Elapsed time.Duration
}

// Evaluate scores sel.  It assumes sel is feasible (call Feasible first when
// in doubt); it never mutates the problem.
func (p *Problem) Evaluate(sel []int) Metrics {
	m := Metrics{Pairs: len(sel)}
	perWorker := make([]float64, p.In.NumWorkers())
	for _, ei := range sel {
		b := p.Utility(ei)
		m.TotalMutual += p.M[ei]
		m.TotalQuality += p.Quality(ei)
		m.TotalWorker += b
		perWorker[p.W[ei]] += b
	}
	if slots := p.In.TotalSlots(); slots > 0 {
		m.SlotCoverage = float64(len(sel)) / float64(slots)
	}
	m.WorkerJain = stats.JainIndex(perWorker)
	m.MeanWorkerBenefit = stats.Mean(perWorker)
	for _, b := range perWorker {
		if b > 0 {
			m.ActiveWorkers++
		}
	}
	return m
}

// PerWorkerBenefit returns each worker's received worker-side benefit under
// sel (zero for idle workers).  The dynamics layer feeds this into the
// participation model.
func (p *Problem) PerWorkerBenefit(sel []int) []float64 {
	perWorker := make([]float64, p.In.NumWorkers())
	for _, ei := range sel {
		perWorker[p.W[ei]] += p.Utility(ei)
	}
	return perWorker
}

// String renders the metrics as one aligned report line.
func (m Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s pairs=%5d mutual=%9.2f quality=%9.2f worker=%9.2f cover=%5.1f%% jain=%.3f active=%d",
		m.Algorithm, m.Pairs, m.TotalMutual, m.TotalQuality, m.TotalWorker,
		100*m.SlotCoverage, m.WorkerJain, m.ActiveWorkers)
	if m.Elapsed > 0 {
		fmt.Fprintf(&b, " time=%s", m.Elapsed.Round(time.Microsecond))
	}
	return b.String()
}

// Run times solver on p with a child generator derived from r, validates the
// result and returns the assignment together with its metrics.  It is the
// single entry point the experiment harness, examples and public API use, so
// every reported number passed through the same feasibility gate.
func Run(p *Problem, s Solver, r *stats.RNG) ([]int, Metrics, error) {
	return RunCtx(context.Background(), p, s, r)
}

// RunCtx is Run under a context: deadline-aware solvers (ContextSolver)
// observe ctx cooperatively and return ctx.Err() once it fires, others run
// to completion.  A solver panic is contained and surfaced as an error, so
// a serving loop built on RunCtx survives a broken algorithm.  That holds
// at any GOMAXPROCS: the solvers' chunked passes run on forChunks, which
// re-raises a chunk goroutine's panic here, on the caller's goroutine.
func RunCtx(ctx context.Context, p *Problem, s Solver, r *stats.RNG) ([]int, Metrics, error) {
	return RunDeltaCtx(ctx, p, s, nil, r)
}

package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/stats"
)

// Delta describes how the current Problem differs from the previous one:
// which workers/tasks survived (and where they moved, since instance
// indices are dense and shift on every churn), which departed, and which
// arrived.  The platform's State tracks per-round churn and builds one of
// these per CloseRound.  It drives two things, for every solver:
// RebuildProblem refreshes the previous round's problem from it, copying
// the surviving edges and scoring only the arrivals'; and a delta-aware
// solver repairs its carried matching instead of re-solving from scratch.
//
// Index conventions: "previous" indices refer to the previous snapshot —
// the instance the retained Problem was built from, and the Problem of the
// last delta-or-full solve the same solver instance performed; "current"
// indices refer to the Problem being built and solved now.  RebuildProblem
// and the solvers each validate the delta against their own carried state
// and fall back to a full build or solve on any mismatch, so a wrong (but
// well-formed) Delta degrades performance, never correctness.
type Delta struct {
	// PrevWorker[i] is the previous index of current worker i, or -1 when
	// the worker arrived this round.  len(PrevWorker) == NumWorkers().
	PrevWorker []int32
	// PrevTask[j] is the previous index of current task j, or -1 when the
	// task was posted this round.  len(PrevTask) == NumTasks().
	PrevTask []int32
	// RemovedWorkers lists previous worker indices absent this round.
	RemovedWorkers []int32
	// RemovedTasks lists previous task indices absent this round.
	RemovedTasks []int32
	// AddedWorkers lists current worker indices with PrevWorker[i] == -1.
	AddedWorkers []int32
	// AddedTasks lists current task indices with PrevTask[j] == -1.
	AddedTasks []int32
	// ChangedEdges optionally hints current edge indices whose weights
	// changed.  Advisory only: the incremental solver re-derives weight
	// changes itself with an O(E) sweep, so correctness never depends on
	// the caller noticing a change (a MaxPayment shift re-prices every
	// edge at once, for example).
	ChangedEdges []int32
}

// Empty reports whether the delta describes zero churn.
func (d *Delta) Empty() bool {
	return d != nil &&
		len(d.RemovedWorkers) == 0 && len(d.RemovedTasks) == 0 &&
		len(d.AddedWorkers) == 0 && len(d.AddedTasks) == 0
}

// DeltaSolver is the incremental extension of Solver: SolveDeltaCtx solves
// the current problem given a description of how it differs from the
// previous one, reusing carried state where the delta allows.  The result
// contract is identical to Solve — a complete feasible selection over p —
// and must hold for any delta, including a nil one (treated as "no prior
// correspondence": full solve).
type DeltaSolver interface {
	Solver
	SolveDeltaCtx(ctx context.Context, p *Problem, d *Delta, r *stats.RNG) ([]int, error)
}

// safeSolveDelta is the delta-path twin of safeSolve: panic-fenced,
// upfront-cancellation-checked.
func safeSolveDelta(ctx context.Context, p *Problem, s DeltaSolver, d *Delta, r *stats.RNG) (sel []int, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			sel, err = nil, fmt.Errorf("core: solver %s panicked: %v", s.Name(), rec)
		}
	}()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.SolveDeltaCtx(ctx, p, d, r)
}

// RunDeltaCtx is RunCtx for delta-aware solves: when s implements
// DeltaSolver and a delta is supplied, the solve goes through
// SolveDeltaCtx; otherwise it degrades transparently to RunCtx.  Every
// result passes the same feasibility gate and evaluation as RunCtx — the
// incremental path earns no shortcut around validation.
func RunDeltaCtx(ctx context.Context, p *Problem, s Solver, d *Delta, r *stats.RNG) ([]int, Metrics, error) {
	ds, ok := s.(DeltaSolver)
	if !ok || d == nil {
		return RunCtx(ctx, p, s, r)
	}
	start := time.Now()
	sel, err := safeSolveDelta(ctx, p, ds, d, r)
	elapsed := time.Since(start)
	if err != nil {
		return nil, Metrics{}, fmt.Errorf("core: %s: %w", s.Name(), err)
	}
	if err := p.Feasible(sel); err != nil {
		return nil, Metrics{}, fmt.Errorf("core: %s returned infeasible assignment: %w", s.Name(), err)
	}
	m := p.Evaluate(sel)
	m.Algorithm = s.Name()
	m.Elapsed = elapsed
	return sel, m, nil
}

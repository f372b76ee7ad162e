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
// well-formed) Delta degrades performance, never correctness.  A delta
// carries no weight changes: RebuildProblem copies a row only when its
// scoring inputs are unchanged, and the incremental solver re-derives
// re-priced edges with an O(E) sweep (a MaxPayment shift re-prices every
// edge at once, for example).
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
}

// DeltaBetween builds the Delta between two snapshots of one market whose
// entities keep stable IDs: prevW and curW are the previous and current
// snapshots' worker IDs by instance index, prevT and curT their task IDs,
// each list ascending.
func DeltaBetween(prevW, curW, prevT, curT []int) *Delta {
	d := &Delta{}
	d.PrevWorker, d.AddedWorkers, d.RemovedWorkers = diffSortedIDs(prevW, curW)
	d.PrevTask, d.AddedTasks, d.RemovedTasks = diffSortedIDs(prevT, curT)
	return d
}

// diffSortedIDs two-pointer-merges the previous and current sorted ID
// lists into the Delta's positional encoding: prev[i] is the previous
// index of current entity i (or -1 if it arrived), added lists current
// indices of arrivals, removed lists previous indices of departures.
func diffSortedIDs(prevIDs, curIDs []int) (prev, added, removed []int32) {
	prev = make([]int32, len(curIDs))
	i, j := 0, 0
	for j < len(curIDs) {
		switch {
		case i < len(prevIDs) && prevIDs[i] == curIDs[j]:
			prev[j] = int32(i)
			i++
			j++
		case i < len(prevIDs) && prevIDs[i] < curIDs[j]:
			removed = append(removed, int32(i))
			i++
		default:
			prev[j] = -1
			added = append(added, int32(j))
			j++
		}
	}
	for ; i < len(prevIDs); i++ {
		removed = append(removed, int32(i))
	}
	return prev, added, removed
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

// RunDeltaCtx is RunCtx for delta-aware solves: when s implements
// DeltaSolver and a delta is supplied, the solve goes through
// SolveDeltaCtx; otherwise it is exactly RunCtx.  Every result passes the
// same feasibility gate and evaluation — the incremental path earns no
// shortcut around validation.
func RunDeltaCtx(ctx context.Context, p *Problem, s Solver, d *Delta, r *stats.RNG) ([]int, Metrics, error) {
	start := time.Now()
	sel, err := safeSolve(ctx, p, s, d, r)
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

package core

import (
	"context"
	"fmt"

	"repro/internal/stats"
)

// ContextSolver is the deadline-aware extension of Solver.  A solver that
// implements it promises cooperative cancellation: SolveCtx returns
// ctx.Err() promptly (at its next internal checkpoint) once ctx is done,
// and any partial work is discarded — a non-nil selection is only returned
// alongside a nil error.
//
// Solvers that do not implement the interface are still usable under a
// context through SolveWithContext; they simply run to completion once
// started.
type ContextSolver interface {
	Solver
	SolveCtx(ctx context.Context, p *Problem, r *stats.RNG) ([]int, error)
}

// SolveWithContext invokes s under ctx: its SolveCtx when it has one, the
// plain Solve otherwise (after an upfront cancellation check — an already
// dead context never starts a solve).  A nil ctx means no cancellation.
func SolveWithContext(ctx context.Context, p *Problem, s Solver, r *stats.RNG) ([]int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cs, ok := s.(ContextSolver); ok {
		return cs.SolveCtx(ctx, p, r)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.Solve(p, r)
}

// safeSolve is the one panic-fenced solve dispatch: SolveDeltaCtx when s
// is a DeltaSolver and d is non-nil (after the same upfront cancellation
// check SolveWithContext makes), SolveWithContext otherwise.  A panicking
// solver becomes an ordinary error instead of tearing down the serving
// process.  Run and the Degrader's stage runner both sit behind it, so a
// buggy or adversarial algorithm can at worst fail its own round.
func safeSolve(ctx context.Context, p *Problem, s Solver, d *Delta, r *stats.RNG) (sel []int, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			sel, err = nil, fmt.Errorf("core: solver %s panicked: %v", s.Name(), rec)
		}
	}()
	ds, ok := s.(DeltaSolver)
	if !ok || d == nil {
		return SolveWithContext(ctx, p, s, r)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return ds.SolveDeltaCtx(ctx, p, d, r)
}

// ctxDone reports whether ctx is non-nil and already cancelled or expired —
// the single-line cooperative checkpoint the iterative solvers poll.
func ctxDone(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

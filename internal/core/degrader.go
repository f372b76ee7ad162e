package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/stats"
)

// SolveReport describes how a composite solver actually served one solve:
// which stage produced the returned assignment, whether (and from what) it
// degraded, and the errors of the stages that failed along the way.  The
// platform copies these fields into its RoundResult so operators can see
// degradation happening round by round.
type SolveReport struct {
	// ServedBy is the Name of the stage whose assignment was returned.
	ServedBy string
	// DegradedFrom is the Name of the preferred (first) stage when a later
	// stage served the solve; empty when the preferred stage itself served.
	DegradedFrom string
	// SolveTimedOut reports that at least one stage was abandoned because
	// the per-solve deadline (not the caller's context) fired.
	SolveTimedOut bool
	// StageErrors holds one "name: error" entry per failed stage, in chain
	// order.
	StageErrors []string
	// WarmStarted reports that the serving stage reused dual state carried
	// from a previous round instead of cold-starting its solve.
	WarmStarted bool
	// DirtyFraction is the serving stage's estimate of how much of the
	// problem changed since the state it carried (1 on a full solve, 0 on a
	// zero-churn warm round).  Meaningful only for delta-aware stages.
	DirtyFraction float64
	// FullSolveFallback reports that a delta-aware stage held carried state
	// but discarded it and re-solved from scratch — because the delta failed
	// validation or the dirty fraction crossed the stage's threshold.
	FullSolveFallback bool
}

// SolveReporter is implemented by solvers that can describe how their last
// solve was served.  The platform's round loop type-asserts against it.
type SolveReporter interface {
	LastReport() SolveReport
}

// Degrader is the graceful-degradation composite: a chain of solvers
// ordered best-first (e.g. exact → local-search → greedy) run under a
// per-solve deadline.  The preferred stage gets the whole Deadline; if it
// times out, panics, or fails, the middle stages share one Grace budget
// (default Deadline/2) to attempt a better-than-worst answer; the terminal
// stage runs without any deadline at all, so — short of the caller's own
// context dying — a Degrader solve always returns a complete assignment
// from *some* stage.  Partial results of an abandoned stage are never
// served: every stage either completes or contributes nothing.
//
// A zero Deadline disables the timers entirely and the chain degrades only
// on stage errors/panics, which still makes the composite a robustness
// wrapper: one broken algorithm no longer takes the serving loop down.
//
// The zero value is not usable; construct with NewDegrader or
// DefaultDegrader.  A *Degrader is safe for concurrent use, but LastReport
// only meaningfully relates to the previous SolveCtx when the caller
// serialises solves (the platform's round mutex does).
type Degrader struct {
	// Chain is the best-first stage list; at least one stage is required.
	Chain []Solver
	// Deadline is the per-solve budget for the preferred stage; 0 disables
	// deadline-based degradation.
	Deadline time.Duration
	// Grace is the shared budget for the middle stages once the preferred
	// stage has consumed the Deadline; 0 means Deadline/2.
	Grace time.Duration

	mu   sync.Mutex
	last SolveReport
}

// NewDegrader builds a Degrader over chain with the given per-solve
// deadline.  It panics on an empty chain — a degrader with nothing to run
// is a programming error, not a runtime condition.
func NewDegrader(deadline time.Duration, chain ...Solver) *Degrader {
	if len(chain) == 0 {
		panic("core: NewDegrader requires at least one stage")
	}
	return &Degrader{Chain: chain, Deadline: deadline}
}

// DefaultDegrader is the registry's chain — incremental → exact →
// local-search → greedy with no deadline, so out of the box it acts as a
// panic/error fallback; serving loops set Deadline for time-based
// degradation.  The incremental head makes the composite delta-aware: warm
// rounds repair the carried matching, and any validation failure inside the
// head degrades to a cold exact solve with identical results.
func DefaultDegrader() *Degrader {
	return NewDegrader(0,
		NewIncrementalExact(),
		Exact{Kind: MutualWeight},
		LocalSearch{Kind: MutualWeight},
		Greedy{Kind: MutualWeight},
	)
}

// Name implements Solver.
func (d *Degrader) Name() string { return "degrader" }

// LastReport implements SolveReporter: it returns how the most recently
// completed solve was served.
func (d *Degrader) LastReport() SolveReport {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.last
}

// Solve implements Solver.
func (d *Degrader) Solve(p *Problem, r *stats.RNG) ([]int, error) {
	return d.SolveCtx(context.Background(), p, r)
}

// SolveCtx implements ContextSolver.  The caller's ctx bounds the whole
// chain: once it dies the chain is abandoned immediately and ctx.Err()
// returned.  The internal Deadline/Grace timers bound individual stages
// and only ever cause degradation to the next stage, never a failed solve.
func (d *Degrader) SolveCtx(ctx context.Context, p *Problem, r *stats.RNG) ([]int, error) {
	return d.solveChain(ctx, p, nil, r)
}

// SolveDeltaCtx implements DeltaSolver: the delta is forwarded to every
// delta-aware stage in the chain (in practice the incremental head), and the
// remaining stages solve from scratch exactly as in SolveCtx.  Degradation
// semantics are unchanged — a delta that the head cannot use costs one full
// solve, never a wrong answer.
func (d *Degrader) SolveDeltaCtx(ctx context.Context, p *Problem, delta *Delta, r *stats.RNG) ([]int, error) {
	return d.solveChain(ctx, p, delta, r)
}

func (d *Degrader) solveChain(ctx context.Context, p *Problem, delta *Delta, r *stats.RNG) ([]int, error) {
	if len(d.Chain) == 0 {
		return nil, errors.New("core: degrader has an empty chain")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var rep SolveReport
	// graceCtx is created lazily on the first post-deadline middle stage so
	// the grace clock starts when degradation starts, not when the solve did.
	var graceCtx context.Context
	defer func() {
		d.mu.Lock()
		d.last = rep
		d.mu.Unlock()
	}()

	for i, s := range d.Chain {
		stageCtx := ctx
		var cancel context.CancelFunc
		switch {
		case i == len(d.Chain)-1:
			// Terminal stage: caller ctx only.  The chain's whole point is
			// that the last, cheapest stage always gets to finish.
		case i == 0:
			if d.Deadline > 0 {
				stageCtx, cancel = context.WithTimeout(ctx, d.Deadline)
			}
		default:
			if d.Deadline > 0 {
				if graceCtx == nil {
					grace := d.Grace
					if grace <= 0 {
						grace = d.Deadline / 2
					}
					var graceCancel context.CancelFunc
					graceCtx, graceCancel = context.WithTimeout(ctx, grace)
					defer graceCancel() // runs at most once: guarded by graceCtx == nil
				}
				stageCtx = graceCtx
			}
		}

		var stageRNG *stats.RNG
		if r != nil {
			stageRNG = r.Split()
		}
		sel, err := safeSolve(stageCtx, p, s, delta, stageRNG)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			rep.ServedBy = s.Name()
			if i > 0 {
				rep.DegradedFrom = d.Chain[0].Name()
			}
			if sr, ok := s.(SolveReporter); ok {
				sub := sr.LastReport()
				rep.WarmStarted = sub.WarmStarted
				rep.DirtyFraction = sub.DirtyFraction
				rep.FullSolveFallback = sub.FullSolveFallback
			}
			return sel, nil
		}
		rep.StageErrors = append(rep.StageErrors, fmt.Sprintf("%s: %v", s.Name(), err))
		if ctx.Err() != nil {
			// The caller is gone; degrading further would serve nobody.
			return nil, ctx.Err()
		}
		if errors.Is(err, context.DeadlineExceeded) {
			rep.SolveTimedOut = true
		}
	}
	return nil, fmt.Errorf("core: degrader: every stage failed: %s",
		strings.Join(rep.StageErrors, "; "))
}

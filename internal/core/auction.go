package core

import (
	"context"
	"fmt"

	"repro/internal/stats"
)

// Auction implements the Bertsekas auction for the *unit-capacity* special
// case of the problem (every worker capacity and task replication equal to
// 1, i.e. plain maximum-weight bipartite matching).  It exists as an
// ablation point: a decentralised price-based mechanism is the natural
// "market" answer to assignment, and the optimality experiment compares how
// close its ε-optimal matchings get to Exact at a fraction of the cost.
//
// Workers act as bidders, tasks carry prices that start at zero and only
// rise; a worker bids its best net value's margin over the second best plus
// ε, and the outbid worker re-enters the queue.  A worker whose best net
// value is negative leaves the market — correct here because matching is
// optional (weights are non-negative but unmatched is allowed) and prices
// only rise, so a priced-out worker can never become profitable again.  The
// final matching is within n·ε of the optimum.
//
// Solve returns an error when the instance is not unit-capacity; callers
// choose it deliberately for matching-shaped markets.
type Auction struct {
	Kind WeightKind
	// Epsilon is the optimality tolerance; 0 means the default 1e-4, far
	// below the benefit model's meaningful resolution.  Runtime scales as
	// O(E/ε) in the worst case, so very small ε trades time for precision.
	Epsilon float64
}

// Name implements Solver.
func (Auction) Name() string { return "auction" }

// Solve implements Solver.  Deterministic; the RNG is unused.
func (s Auction) Solve(p *Problem, _ *stats.RNG) ([]int, error) {
	return s.solve(nil, p)
}

// SolveCtx implements ContextSolver: the bidding loop polls ctx every
// auctionCtxStride pops, so a deadline fire aborts the auction with
// ctx.Err() after a bounded amount of extra bidding.  An un-fired ctx
// leaves the result bit-identical to Solve.
func (s Auction) SolveCtx(ctx context.Context, p *Problem, _ *stats.RNG) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ctx.Done() == nil {
		ctx = nil // cancellation impossible; skip the periodic polls
	}
	return s.solve(ctx, p)
}

// auctionCtxStride is how many queue pops happen between cancellation
// polls: each pop is O(deg) work, so polling every pop would put a ctx.Err
// atomic load in the inner loop for nothing.
const auctionCtxStride = 4096

func (s Auction) solve(ctx context.Context, p *Problem) ([]int, error) {
	for i := range p.In.Workers {
		if p.In.Workers[i].Capacity > 1 {
			return nil, fmt.Errorf("core: auction requires unit worker capacities (worker %d has %d)", i, p.In.Workers[i].Capacity)
		}
	}
	for j := range p.In.Tasks {
		if p.In.Tasks[j].Replication > 1 {
			return nil, fmt.Errorf("core: auction requires unit task replication (task %d has %d)", j, p.In.Tasks[j].Replication)
		}
	}
	eps := s.Epsilon
	if eps <= 0 {
		eps = 1e-4
	}

	nW := p.In.NumWorkers()
	nT := p.In.NumTasks()
	wt := p.Weights(s.Kind)
	price := make([]float64, nT)
	matchW := make([]int, nW) // edge index assigned to worker, -1 if none
	matchT := make([]int, nT) // edge index assigned to task, -1 if none
	for i := range matchW {
		matchW[i] = -1
	}
	for j := range matchT {
		matchT[j] = -1
	}

	queue := make([]int, 0, nW)
	for w := 0; w < nW; w++ {
		if lo, hi := p.AdjW(w); p.In.Workers[w].Capacity > 0 && hi > lo {
			queue = append(queue, w)
		}
	}
	pops := 0
	for len(queue) > 0 {
		if pops++; pops%auctionCtxStride == 0 && ctxDone(ctx) {
			return nil, ctx.Err() // discard the partial matching and prices
		}
		w := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		// Find best and second-best net value among w's edges.
		bestEdge, bestVal, secondVal := -1, 0.0, 0.0
		first := true
		lo, hi := p.AdjW(w)
		for ei := lo; ei < hi; ei++ {
			v := wt[ei] - price[p.T[ei]]
			switch {
			case first:
				bestEdge, bestVal, secondVal = ei, v, v
				first = false
			case v > bestVal:
				secondVal = bestVal
				bestEdge, bestVal = ei, v
			case v > secondVal:
				secondVal = v
			}
		}
		if bestEdge == -1 || bestVal < 0 {
			continue // priced out: stay unmatched for good
		}
		// Matching is optional, so the bidder's outside option (profit 0)
		// acts as the second-best alternative: never bid past the point
		// where the worker would rather stay home.
		if secondVal < 0 {
			secondVal = 0
		}
		t := p.T[bestEdge]
		// Bid: raise the price by the profit margin plus ε.
		price[t] += bestVal - secondVal + eps
		if prev := matchT[t]; prev != -1 {
			outbid := int(p.W[prev])
			matchW[outbid] = -1
			queue = append(queue, outbid)
		}
		matchT[t] = bestEdge
		matchW[w] = bestEdge
	}

	var sel []int
	for _, ei := range matchW {
		if ei != -1 {
			sel = append(sel, ei)
		}
	}
	return sel, nil
}

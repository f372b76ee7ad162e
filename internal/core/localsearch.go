package core

import (
	"context"
	"sort"

	"repro/internal/stats"
)

// LocalSearch refines the Greedy solution with exchange moves until a local
// optimum (or MaxPasses sweeps).  Four move types are considered for every
// edge e = (w, t):
//
//	add     — e unchosen, both endpoints spare: take e (gain w(e) > 0);
//	swap    — e unchosen, one endpoint full: evict that endpoint's cheapest
//	          chosen edge if e is strictly heavier;
//	2-swap  — e unchosen, both endpoints full: evict the cheapest chosen
//	          edge of each if e outweighs the pair;
//	rotate  — e chosen: evict e and take the best addable edge at each
//	          freed endpoint if the pair outweighs the eviction.
//
// The first three moves alone can never improve on Greedy: every edge
// Greedy rejected was blocked by strictly heavier edges that remain chosen,
// so single-edge insertions are always losing trades.  The rotate move is
// what escapes Greedy's local optimum — it undoes a heavy early commitment
// that blocks two medium edges (the classic ½-approximation tight case:
// weights 1.0 vs 0.9 + 0.9).  On market-shaped instances the gain is
// small: in the refinement ablation (X-Abl1) local search lifts Greedy
// from 0.992 to 0.993 of the exact optimum at about three times Greedy's
// time.
//
// Each pass is collect-then-apply.  Against the frozen pass-start state it
// first builds four per-vertex tables — the cheapest chosen and the best
// addable edge at every worker and task — then derives each edge's best
// move in O(1) from them, making a pass O(E) where the seed's
// per-edge adjacency rescans were O(E·deg).  Both the table sweeps and the
// move scan run on forChunks, one goroutine per contiguous vertex or edge
// range, which re-raises a range's panic on the caller.  The candidate
// moves are then sorted (gain descending, edge index ascending) and
// applied serially, skipping any move that touches a worker or task an
// earlier-applied move already touched.  The conflict
// filter keeps every applied move's frozen-state gain exact, so the
// objective strictly increases and the outcome is bit-identical for any
// goroutine count — LocalSearchSerial runs this very code single-threaded,
// and the property test in localsearch_parallel_test.go holds the two to
// identical selections.
type LocalSearch struct {
	Kind WeightKind
	// MaxPasses bounds the number of full sweeps; 0 means the default (8).
	MaxPasses int
	// WS optionally pins a reusable workspace; nil borrows one from the
	// package pool per call.
	WS *Workspace
}

// Name implements Solver.
func (s LocalSearch) Name() string { return "local-search" }

// Solve implements Solver.  Deterministic; the RNG is unused.
func (s LocalSearch) Solve(p *Problem, r *stats.RNG) ([]int, error) {
	ws, pooled := acquireWorkspace(s.WS)
	defer releaseWorkspace(ws, pooled)
	return localSearchRun(nil, p, s.Kind, s.MaxPasses, 0, ws)
}

// SolveCtx implements ContextSolver: the sweep loop polls ctx between
// passes, so a deadline fire costs at most one more O(E) sweep before the
// solve aborts with ctx.Err().  An un-fired ctx leaves the result
// bit-identical to Solve.
func (s LocalSearch) SolveCtx(ctx context.Context, p *Problem, _ *stats.RNG) ([]int, error) {
	ws, pooled := acquireWorkspace(s.WS)
	defer releaseWorkspace(ws, pooled)
	return localSearchRun(ctx, p, s.Kind, s.MaxPasses, 0, ws)
}

// LocalSearchSerial is the retained single-threaded reference for
// LocalSearch: the identical collect-then-apply algorithm with every sweep
// forced onto one goroutine.  It exists so the equivalence property test
// and the benchmark-regression harness can hold the parallel fast path to
// the serial semantics; use LocalSearch everywhere else.
type LocalSearchSerial struct {
	Kind      WeightKind
	MaxPasses int
	// WS optionally pins a reusable workspace.
	WS *Workspace
}

// Name implements Solver.
func (s LocalSearchSerial) Name() string { return "local-search-serial" }

// Solve implements Solver.  Deterministic; the RNG is unused.
func (s LocalSearchSerial) Solve(p *Problem, r *stats.RNG) ([]int, error) {
	ws, pooled := acquireWorkspace(s.WS)
	defer releaseWorkspace(ws, pooled)
	return localSearchRun(nil, p, s.Kind, s.MaxPasses, 1, ws)
}

// parallelLSCutoff is the edge count below which local search stays serial:
// per-pass goroutine fan-out costs more than it saves on small markets.
const parallelLSCutoff = 1 << 12

// lsMove is one candidate improving move, collected against the frozen
// pass-start state.  For an exchange move (rotate false) ei is the unchosen
// edge to take and a/b the chosen worker- and task-side evictions (-1 =
// none).  For a rotate move ei is the chosen edge to evict and a/b the
// unchosen worker- and task-side takes (-1 = none, at least one set).
type lsMove struct {
	gain   float64
	ei     int32
	a, b   int32
	rotate bool
}

// lsMoveSorter orders moves by decreasing gain, ties broken by ascending
// primary edge index.  Each edge contributes at most one move, so the order
// is strict and the serial apply deterministic.
type lsMoveSorter struct{ moves []lsMove }

func (s *lsMoveSorter) Len() int { return len(s.moves) }
func (s *lsMoveSorter) Less(a, b int) bool {
	if s.moves[a].gain != s.moves[b].gain {
		return s.moves[a].gain > s.moves[b].gain
	}
	return s.moves[a].ei < s.moves[b].ei
}
func (s *lsMoveSorter) Swap(a, b int) { s.moves[a], s.moves[b] = s.moves[b], s.moves[a] }

const lsEps = 1e-12

// localSearchRun seeds from Greedy and sweeps until no move applies or
// maxPasses is exhausted.  procs <= 0 selects GOMAXPROCS with the
// small-market serial cutoff; 1 forces the serial reference path.  All
// scratch lives in ws; the returned selection is freshly allocated.
// A non-nil ctx is polled at the top of every pass; once it fires the run
// aborts with ctx.Err() (a nil ctx performs no checks at all, keeping the
// serial reference path byte-identical to the seed semantics).
func localSearchRun(ctx context.Context, p *Problem, kind WeightKind, maxPasses, procs int, ws *Workspace) ([]int, error) {
	seed := greedyInto(p, kind, ws)
	if maxPasses <= 0 {
		maxPasses = 8
	}
	nE := p.NumEdges()
	procs = fanOut(procs, nE, parallelLSCutoff)

	nW, nT := p.In.NumWorkers(), p.In.NumTasks()
	// greedyInto left capW/capT at post-greedy residuals — exactly the
	// chosen-state capacities the sweeps need.
	capW, capT := ws.capW, ws.capT
	ws.chosen = growBoolZero(ws.chosen, nE)
	chosen := ws.chosen
	for _, ei := range seed {
		chosen[ei] = true
	}
	wt := p.weightsInto(kind, &ws.edgeWt)

	ws.minChosenW = grow(ws.minChosenW, nW)
	ws.bestAddW = grow(ws.bestAddW, nW)
	ws.minChosenT = grow(ws.minChosenT, nT)
	ws.bestAddT = grow(ws.bestAddT, nT)
	ws.touchedW = growBoolZero(ws.touchedW, nW)
	ws.touchedT = growBoolZero(ws.touchedT, nT)
	if cap(ws.moveBufs) < procs {
		ws.moveBufs = make([][]lsMove, procs)
	}
	ws.moveBufs = ws.moveBufs[:procs]

	// The shared state lives in the workspace and the sweeps are passed as
	// method expressions, so a serial pass allocates nothing.
	ls := &ws.ls
	*ls = lsState{
		p: p, wt: wt, chosen: chosen, capW: capW, capT: capT,
		minChosenW: ws.minChosenW, minChosenT: ws.minChosenT,
		bestAddW: ws.bestAddW, bestAddT: ws.bestAddT,
		chunks: procs, moveBufs: ws.moveBufs,
	}

	for pass := 0; pass < maxPasses; pass++ {
		if ctxDone(ctx) {
			return nil, ctx.Err() // discard the partial refinement
		}
		// Phase 1 (parallel): per-vertex tables against the frozen state.
		forChunks(ls, procs, (*lsState).sweepWorkers)
		forChunks(ls, procs, (*lsState).sweepTasks)

		// Phase 2 (parallel): one candidate move per edge, collected into
		// per-range buffers whose concatenation is ascending in edge index.
		forChunks(ls, procs, (*lsState).scanChunk)
		ws.moves = ws.moves[:0]
		for _, buf := range ws.moveBufs {
			ws.moves = append(ws.moves, buf...)
		}
		if len(ws.moves) == 0 {
			break
		}

		// Phase 3 (serial): apply best-gain-first with a vertex conflict
		// filter, so every applied move's frozen gain stays exact.
		ws.moveSorter.moves = ws.moves
		sort.Sort(&ws.moveSorter)
		ws.moveSorter.moves = nil
		clear(ws.touchedW)
		clear(ws.touchedT)
		applied := false
		for i := range ws.moves {
			if ls.apply(&ws.moves[i], ws.touchedW, ws.touchedT) {
				applied = true
			}
		}
		if !applied {
			break
		}
	}

	out := make([]int, 0, len(seed))
	for ei, ok := range chosen {
		if ok {
			out = append(out, ei)
		}
	}
	return out, nil
}

// lsState bundles the shared read-mostly arrays of one local-search run,
// which the chunked sweeps share through a single pointer.
type lsState struct {
	p          *Problem
	wt         []float64
	chosen     []bool
	capW, capT []int
	// Per-pass vertex tables (edge index or -1):
	minChosenW, minChosenT []int32 // cheapest chosen edge at the vertex
	bestAddW, bestAddT     []int32 // heaviest unchosen edge whose far side has spare capacity

	chunks   int        // each sweep splits its range into this many chunks
	moveBufs [][]lsMove // scanChunk's per-chunk candidate moves
}

// chunkRange is chunk k's share of [0, n): contiguous ranges of
// ⌈n/chunks⌉ items, the last one short and any beyond n empty.
func (ls *lsState) chunkRange(n, k int) (lo, hi int) {
	size := (n + ls.chunks - 1) / ls.chunks
	lo = min(k*size, n)
	return lo, min(lo+size, n)
}

// sweepWorkers fills the worker tables for chunk k's workers.  Strict
// comparisons keep the first extremum in adjacency order, which is
// ascending edge index — the deterministic tie-break.
func (ls *lsState) sweepWorkers(k int) {
	p := ls.p
	lo, hi := ls.chunkRange(p.In.NumWorkers(), k)
	for w := lo; w < hi; w++ {
		minC, best := int32(-1), int32(-1)
		var minWt, bestWt float64
		lo, hi := p.AdjW(w)
		for ei := int32(lo); ei < int32(hi); ei++ {
			if ls.chosen[ei] {
				if minC < 0 || ls.wt[ei] < minWt {
					minC, minWt = ei, ls.wt[ei]
				}
			} else if ls.capT[p.T[ei]] > 0 {
				if best < 0 || ls.wt[ei] > bestWt {
					best, bestWt = ei, ls.wt[ei]
				}
			}
		}
		ls.minChosenW[w], ls.bestAddW[w] = minC, best
	}
}

// sweepTasks fills the task tables for chunk k's tasks.
func (ls *lsState) sweepTasks(k int) {
	p := ls.p
	lo, hi := ls.chunkRange(p.In.NumTasks(), k)
	for t := lo; t < hi; t++ {
		minC, best := int32(-1), int32(-1)
		var minWt, bestWt float64
		for _, ei := range p.AdjT(t) {
			if ls.chosen[ei] {
				if minC < 0 || ls.wt[ei] < minWt {
					minC, minWt = ei, ls.wt[ei]
				}
			} else if ls.capW[p.W[ei]] > 0 {
				if best < 0 || ls.wt[ei] > bestWt {
					best, bestWt = ei, ls.wt[ei]
				}
			}
		}
		ls.minChosenT[t], ls.bestAddT[t] = minC, best
	}
}

// scanChunk derives the best move of every edge of chunk k from the vertex
// tables into moveBufs[k].  Eligibility rests on two structural facts:
// worker-task pairs are unique, so a rotate's two takes can never collide
// on a vertex (the colliding edge would have to be the evicted pair
// itself), and an exchange's two evictions can never be the same edge (it
// would have to be the unchosen candidate).
func (ls *lsState) scanChunk(k int) {
	p := ls.p
	lo, hi := ls.chunkRange(p.NumEdges(), k)
	out := ls.moveBufs[k][:0]
	for ei := lo; ei < hi; ei++ {
		w, t := p.W[ei], p.T[ei]
		we := ls.wt[ei]
		if ls.chosen[ei] {
			a, b := ls.bestAddW[w], ls.bestAddT[t]
			if a < 0 && b < 0 {
				continue
			}
			gain := -we
			if a >= 0 {
				gain += ls.wt[a]
			}
			if b >= 0 {
				gain += ls.wt[b]
			}
			if gain > lsEps {
				out = append(out, lsMove{gain: gain, ei: int32(ei), a: a, b: b, rotate: true})
			}
			continue
		}
		freeW, freeT := ls.capW[w] > 0, ls.capT[t] > 0
		switch {
		case freeW && freeT:
			if we > lsEps {
				out = append(out, lsMove{gain: we, ei: int32(ei), a: -1, b: -1})
			}
		case freeW:
			if out2 := ls.minChosenT[t]; out2 >= 0 && we > ls.wt[out2]+lsEps {
				out = append(out, lsMove{gain: we - ls.wt[out2], ei: int32(ei), a: -1, b: out2})
			}
		case freeT:
			if out1 := ls.minChosenW[w]; out1 >= 0 && we > ls.wt[out1]+lsEps {
				out = append(out, lsMove{gain: we - ls.wt[out1], ei: int32(ei), a: out1, b: -1})
			}
		default:
			out1, out2 := ls.minChosenW[w], ls.minChosenT[t]
			if out1 < 0 || out2 < 0 {
				continue // capacity zero on that side by construction
			}
			if we > ls.wt[out1]+ls.wt[out2]+lsEps {
				out = append(out, lsMove{gain: we - ls.wt[out1] - ls.wt[out2], ei: int32(ei), a: out1, b: out2})
			}
		}
	}
	ls.moveBufs[k] = out
}

// apply executes mv unless any involved vertex was already touched this
// pass, marking all involved vertices on success.  A move involves its
// primary edge's endpoints plus the far endpoint of each companion edge
// (the near endpoint coincides with the primary's by construction).
func (ls *lsState) apply(mv *lsMove, touchedW, touchedT []bool) bool {
	p := ls.p
	w, t := p.W[mv.ei], p.T[mv.ei]
	wA, tB := int32(-1), int32(-1) // far endpoints of the companions
	if mv.a >= 0 {
		tB2 := p.T[mv.a]
		if touchedT[tB2] {
			return false
		}
		tB = tB2
	}
	if mv.b >= 0 {
		wA2 := p.W[mv.b]
		if touchedW[wA2] {
			return false
		}
		wA = wA2
	}
	if touchedW[w] || touchedT[t] {
		return false
	}
	touchedW[w], touchedT[t] = true, true
	if wA >= 0 {
		touchedW[wA] = true
	}
	if tB >= 0 {
		touchedT[tB] = true
	}
	if mv.rotate {
		ls.evict(int(mv.ei))
		if mv.a >= 0 {
			ls.take(int(mv.a))
		}
		if mv.b >= 0 {
			ls.take(int(mv.b))
		}
	} else {
		if mv.a >= 0 {
			ls.evict(int(mv.a))
		}
		if mv.b >= 0 {
			ls.evict(int(mv.b))
		}
		ls.take(int(mv.ei))
	}
	return true
}

func (ls *lsState) evict(ei int) {
	ls.chosen[ei] = false
	ls.capW[ls.p.W[ei]]++
	ls.capT[ls.p.T[ei]]++
}

func (ls *lsState) take(ei int) {
	ls.chosen[ei] = true
	ls.capW[ls.p.W[ei]]--
	ls.capT[ls.p.T[ei]]--
}

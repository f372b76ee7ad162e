package core

import (
	"context"
	"errors"
	"slices"
	"sync"

	"repro/internal/bipartite"
	"repro/internal/stats"
)

// DefaultDirtyThreshold is the dirty-fraction cutoff above which the
// incremental solver abandons matching repair and re-solves in full: once
// roughly a quarter of the edge set is touched, replaying the churn
// through surgeries costs more than one warm exact solve.
const DefaultDirtyThreshold = 0.25

// IncrementalExact is the `incremental` solver: exact maximum-weight
// assignment with cross-round state.  It keeps a bipartite.DeltaMatcher —
// the current matching plus its dual prices — alive between solves, and
// serves a SolveDeltaCtx round by surgically applying the round's churn
// (departures, arrivals, re-priced edges) and re-augmenting only from the
// dirty frontier.  The objective is bit-identical to Exact/ExactSerial on
// every round: the matcher's potentials certify optimality of the same
// scaled-integer objective the cold kernel maximises.
//
// Correctness never leans on the caller's Delta being right.  The delta's
// shape is validated against carried state, edge-weight changes are
// re-derived internally with an O(E) sweep (so a global re-pricing like a
// MaxPayment shift is caught even if unreported), and any inconsistency —
// or a dirty fraction above DirtyThreshold — falls back to a full solve
// through the warm-start kernel path.  Plain Solve/SolveCtx always run the
// full path and (re)seed the carried state.
//
// An IncrementalExact is stateful and must not run concurrent solves; the
// platform's round mutex provides that.  LastReport is safe to read from
// other goroutines.
type IncrementalExact struct {
	// Kind selects the optimised value; MutualWeight is the paper's
	// objective.
	Kind WeightKind
	// DirtyThreshold overrides DefaultDirtyThreshold when positive.  A
	// value ≥ 1 effectively disables the fallback (the dirty fraction can
	// reach 1 on a full re-pricing, which still falls back at exactly 1
	// unless the threshold exceeds it).
	DirtyThreshold float64
	// WS optionally pins a core workspace for the full-solve path.
	WS *Workspace

	mu   sync.Mutex
	last SolveReport

	m bipartite.DeltaMatcher
	// haveState is false until a solve completes, and is cleared at the
	// start of every state mutation so a panic or cancellation mid-surgery
	// poisons the carried state instead of silently corrupting the next
	// round.
	haveState bool
	// slotW/slotT map the previous problem's indices to matcher slots;
	// workerOf/taskOf invert the current round's mapping (slot → current
	// index, -1 for dead slots).  newSlotW/newSlotT are the double buffers
	// the next mapping is built into.
	slotW, slotT       []int32
	newSlotW, newSlotT []int32
	workerOf, taskOf   []int32
	nPrevW, nPrevT     int

	changedArcs  []int32
	changedCosts []int64
	wt           []float64 // the weight column when Kind is not MutualWeight
}

// NewIncrementalExact returns the registry's configuration.
func NewIncrementalExact() *IncrementalExact {
	return &IncrementalExact{Kind: MutualWeight}
}

// Name implements Solver.
func (s *IncrementalExact) Name() string { return "incremental" }

// LastReport implements SolveReporter.
func (s *IncrementalExact) LastReport() SolveReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

func (s *IncrementalExact) setReport(rep SolveReport) {
	rep.ServedBy = s.Name()
	s.mu.Lock()
	s.last = rep
	s.mu.Unlock()
}

// Solve implements Solver: a full (state-seeding) solve.
func (s *IncrementalExact) Solve(p *Problem, _ *stats.RNG) ([]int, error) {
	sel, info, err := s.fullSolve(nil, p)
	s.setReport(SolveReport{WarmStarted: info.Warm, DirtyFraction: 1})
	return sel, err
}

// SolveCtx implements ContextSolver; cancellation is polled once per
// augmentation inside the kernel.
func (s *IncrementalExact) SolveCtx(ctx context.Context, p *Problem, _ *stats.RNG) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ctx.Done() == nil {
		ctx = nil
	}
	sel, info, err := s.fullSolve(ctx, p)
	s.setReport(SolveReport{WarmStarted: info.Warm, DirtyFraction: 1})
	return sel, err
}

// SolveDeltaCtx implements DeltaSolver: the incremental path.  It applies
// the round's churn to the carried matching, re-derives edge re-pricings,
// and re-augments from the dirty frontier; it falls back to a full warm
// solve when it carries no state, the delta doesn't validate, or the dirty
// fraction crosses the threshold.
func (s *IncrementalExact) SolveDeltaCtx(ctx context.Context, p *Problem, d *Delta, _ *stats.RNG) ([]int, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if ctx.Done() == nil {
			ctx = nil
		}
	}
	var rep SolveReport
	sel, err := s.solveDelta(ctx, p, d, &rep)
	s.setReport(rep)
	return sel, err
}

func (s *IncrementalExact) solveDelta(ctx context.Context, p *Problem, d *Delta, rep *SolveReport) ([]int, error) {
	wt := p.weightsInto(s.Kind, &s.wt)
	dirty, ok := s.prepareDelta(p, wt, d)
	rep.DirtyFraction = dirty
	threshold := s.DirtyThreshold
	if threshold <= 0 {
		threshold = DefaultDirtyThreshold
	}
	if !ok || dirty > threshold {
		// Only a fallback when state existed and went unused; the first-ever
		// solve is a plain cold start, not a degradation.
		rep.FullSolveFallback = s.haveState
		sel, info, err := s.fullSolve(ctx, p)
		rep.WarmStarted = info.Warm
		return sel, err
	}
	rep.WarmStarted = true
	sel, err := s.applyDelta(ctx, p, wt, d)
	if err != nil {
		if errors.Is(err, bipartite.ErrStopped) && ctx != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// Surgery went somewhere the invariants disown: rebuild from
		// scratch rather than serve from a suspect matcher.
		rep.WarmStarted = false
		rep.FullSolveFallback = true
		sel, info, ferr := s.fullSolve(ctx, p)
		rep.WarmStarted = info.Warm
		return sel, ferr
	}
	return sel, nil
}

// prepareDelta validates d against the carried state and measures the
// dirty fraction without mutating anything.  It also retags surviving
// arcs with their current edge indices and stashes re-priced arcs for
// applyDelta.  wt is p's weight column under s.Kind.  ok=false means the
// delta path must not run.
func (s *IncrementalExact) prepareDelta(p *Problem, wt []float64, d *Delta) (dirty float64, ok bool) {
	if !s.haveState || d == nil {
		return 1, false
	}
	nW, nT := p.In.NumWorkers(), p.In.NumTasks()
	if len(d.PrevWorker) != nW || len(d.PrevTask) != nT {
		return 1, false
	}
	survivedW, survivedT := 0, 0
	s.newSlotW = grow(s.newSlotW, nW)
	for i, pi := range d.PrevWorker {
		if pi < 0 {
			s.newSlotW[i] = -1
			continue
		}
		if int(pi) >= s.nPrevW {
			return 1, false
		}
		s.newSlotW[i] = s.slotW[pi]
		survivedW++
	}
	s.newSlotT = grow(s.newSlotT, nT)
	for j, pj := range d.PrevTask {
		if pj < 0 {
			s.newSlotT[j] = -1
			continue
		}
		if int(pj) >= s.nPrevT {
			return 1, false
		}
		s.newSlotT[j] = s.slotT[pj]
		survivedT++
	}
	if survivedW+len(d.RemovedWorkers) != s.nPrevW || survivedT+len(d.RemovedTasks) != s.nPrevT {
		return 1, false
	}
	for _, rw := range d.RemovedWorkers {
		if int(rw) >= s.nPrevW || rw < 0 {
			return 1, false
		}
	}
	for _, rt := range d.RemovedTasks {
		if int(rt) >= s.nPrevT || rt < 0 {
			return 1, false
		}
	}

	// Rebuild the slot → current-index inverses for this round.
	s.workerOf = grow(s.workerOf, s.m.NumLeftSlots())
	for i := range s.workerOf {
		s.workerOf[i] = -1
	}
	s.taskOf = grow(s.taskOf, s.m.NumRightSlots())
	for i := range s.taskOf {
		s.taskOf[i] = -1
	}
	for i := 0; i < nW; i++ {
		if slot := s.newSlotW[i]; slot >= 0 {
			s.workerOf[slot] = int32(i)
		}
	}
	for j := 0; j < nT; j++ {
		if slot := s.newSlotT[j]; slot >= 0 {
			s.taskOf[slot] = int32(j)
		}
	}

	// Dirty accounting: arcs lost to departures, arcs arriving with new
	// entities (endpoint double-counting only over-estimates, which errs
	// toward the safe fallback), and re-priced survivors found by the
	// authoritative O(E) sweep below.
	touched := 0
	for _, rw := range d.RemovedWorkers {
		touched += s.m.DegreeLeft(int(s.slotW[rw]))
	}
	for _, rt := range d.RemovedTasks {
		touched += s.m.DegreeRight(int(s.slotT[rt]))
	}
	for _, aw := range d.AddedWorkers {
		if int(aw) >= nW || aw < 0 || s.newSlotW[aw] >= 0 {
			return 1, false
		}
		lo, hi := p.AdjW(int(aw))
		touched += hi - lo
	}
	for _, at := range d.AddedTasks {
		if int(at) >= nT || at < 0 || s.newSlotT[at] >= 0 {
			return 1, false
		}
		touched += len(p.AdjT(int(at)))
	}

	s.changedArcs = s.changedArcs[:0]
	s.changedCosts = s.changedCosts[:0]
	for i := 0; i < nW; i++ {
		slot := s.newSlotW[i]
		if slot < 0 {
			continue
		}
		if s.m.LeftCapacity(int(slot)) != int64(p.In.Workers[i].Capacity) {
			return 1, false
		}
		lo, hi := p.AdjW(i)
		surviving := 0
		for _, a := range s.m.ArcsOfLeft(int(slot)) {
			_, r, cost, _, _ := s.m.Arc(a)
			t := s.taskOf[r]
			if t < 0 {
				continue // partner departs this round
			}
			k, found := slices.BinarySearch(p.T[lo:hi], t)
			if !found {
				return 1, false // eligibility vanished without a departure
			}
			e := lo + k
			surviving++
			s.m.SetArcExt(a, int32(e))
			if newCost := bipartite.ScaledCost(wt[e]); newCost != cost {
				s.changedArcs = append(s.changedArcs, a)
				s.changedCosts = append(s.changedCosts, newCost)
			}
		}
		// Surviving arcs plus this worker's edges to *new* tasks must
		// account for the whole adjacency; a shortfall means an edge
		// appeared between surviving entities, which surgery cannot see.
		newPartners := 0
		for _, t := range p.T[lo:hi] {
			if s.newSlotT[t] < 0 || d.PrevTask[t] < 0 {
				newPartners++
			}
		}
		if surviving+newPartners != hi-lo {
			return 1, false
		}
	}
	for j := 0; j < nT; j++ {
		if slot := s.newSlotT[j]; slot >= 0 {
			if s.m.RightCapacity(int(slot)) != int64(p.In.Tasks[j].Replication) {
				return 1, false
			}
		}
	}
	touched += len(s.changedArcs)
	den := p.NumEdges()
	if den == 0 {
		den = 1
	}
	return float64(touched) / float64(den), true
}

// applyDelta runs the actual surgery: departures, arrivals, re-pricings,
// then dirty-frontier re-augmentation.  prepareDelta has already validated
// everything it consumes.
func (s *IncrementalExact) applyDelta(ctx context.Context, p *Problem, wt []float64, d *Delta) ([]int, error) {
	s.haveState = false // poisoned until the surgery completes
	for _, rw := range d.RemovedWorkers {
		s.m.RemoveLeft(int(s.slotW[rw]))
	}
	for _, rt := range d.RemovedTasks {
		s.m.RemoveRight(int(s.slotT[rt]))
	}
	for _, at := range d.AddedTasks {
		slot := s.m.AddRight(p.In.Tasks[at].Replication)
		s.newSlotT[at] = int32(slot)
	}
	for _, aw := range d.AddedWorkers {
		slot := s.m.AddLeft(p.In.Workers[aw].Capacity)
		s.newSlotW[aw] = int32(slot)
		lo, hi := p.AdjW(int(aw))
		for ei := lo; ei < hi; ei++ {
			s.m.AddArc(slot, int(s.newSlotT[p.T[ei]]), bipartite.ScaledCost(wt[ei]), int32(ei))
		}
	}
	for _, at := range d.AddedTasks {
		for _, ei := range p.AdjT(int(at)) {
			if w := p.W[ei]; d.PrevWorker[w] >= 0 { // new-worker arcs were added above
				s.m.AddArc(int(s.newSlotW[w]), int(s.newSlotT[at]), bipartite.ScaledCost(wt[ei]), ei)
			}
		}
	}
	for k, a := range s.changedArcs {
		s.m.SetArcCost(a, s.changedCosts[k])
	}
	if ctx != nil {
		s.m.Stop = func() bool { return ctx.Err() != nil }
		defer func() { s.m.Stop = nil }()
	}
	if _, err := s.m.Reoptimize(); err != nil {
		return nil, err
	}
	s.slotW, s.newSlotW = s.newSlotW, s.slotW
	s.slotT, s.newSlotT = s.newSlotT, s.slotT
	s.nPrevW, s.nPrevT = p.In.NumWorkers(), p.In.NumTasks()
	s.haveState = true
	return s.extract(), nil
}

// fullSolve (re)seeds the matcher through the warm-start kernel path and
// rebuilds the identity slot mappings.
func (s *IncrementalExact) fullSolve(ctx context.Context, p *Problem) ([]int, bipartite.WarmInfo, error) {
	s.haveState = false
	ws, pooled := acquireWorkspace(s.WS)
	defer releaseWorkspace(ws, pooled)
	g := p.graphForInto(s.Kind, ws)
	if ws.flowWS == nil {
		ws.flowWS = bipartite.NewFlowWorkspace()
	}
	if ctx != nil {
		ws.flowWS.Stop = func() bool { return ctx.Err() != nil }
		defer func() { ws.flowWS.Stop = nil }()
	}
	info, err := s.m.SolveFull(g, p.capacityWInto(ws), p.capacityTInto(ws), ws.flowWS)
	if err != nil {
		if errors.Is(err, bipartite.ErrStopped) && ctx != nil && ctx.Err() != nil {
			return nil, info, ctx.Err()
		}
		return nil, info, err
	}
	nW, nT := p.In.NumWorkers(), p.In.NumTasks()
	s.slotW = grow(s.slotW, nW)
	for i := range s.slotW {
		s.slotW[i] = int32(i)
	}
	s.slotT = grow(s.slotT, nT)
	for j := range s.slotT {
		s.slotT[j] = int32(j)
	}
	s.nPrevW, s.nPrevT = nW, nT
	s.haveState = true
	return s.extract(), info, nil
}

// extract reads the matched pairs out of the matcher as current edge
// indices, sorted — the only allocation of a steady-state round.
func (s *IncrementalExact) extract() []int {
	sel := s.m.AppendMatched(make([]int, 0, s.m.MatchedCount()))
	slices.Sort(sel)
	return sel
}

package core_test

// Churn-trace equivalence for the incremental solver: a market evolves by
// random departures, arrivals and re-pricings, the platform-style Delta is
// rebuilt each round, and the incremental solver's objective must stay
// bit-identical (as the scaled int64 the kernels optimise) to a cold
// ExactSerial solve of the same round.  The harness draws entities from a
// fixed pool so a departed worker can return later — the nastiest case for
// slot reuse.  The Delta carries no weight changes, so re-pricing
// detection must come from the solver's own O(E) sweep.

import (
	"testing"

	"repro/internal/benefit"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/stats"
)

// churnPool owns the entity pool and the live subsets of an evolving
// market.  Live order is insertion order; removals preserve it, so the
// prev→current correspondence is positional.
type churnPool struct {
	pool  *market.Instance
	liveW []int // pool worker ids, current round, in order
	liveT []int // pool task ids, current round, in order
}

func newChurnPool(cfg market.Config, seed uint64, liveFrac float64) *churnPool {
	h := &churnPool{pool: market.MustGenerate(cfg, seed)}
	nw := int(float64(h.pool.NumWorkers()) * liveFrac)
	nt := int(float64(h.pool.NumTasks()) * liveFrac)
	for i := 0; i < nw; i++ {
		h.liveW = append(h.liveW, i)
	}
	for j := 0; j < nt; j++ {
		h.liveT = append(h.liveT, j)
	}
	return h
}

// instance materialises the live subset as a dense-ID Instance.  MaxPayment
// is pinned to the pool's cached value so utility normalisation never
// shifts when the most expensive task happens to leave.
func (h *churnPool) instance() *market.Instance {
	in := &market.Instance{
		Name:          h.pool.Name,
		NumCategories: h.pool.NumCategories,
		MaxPayment:    h.pool.MaxPayment,
	}
	for i, pw := range h.liveW {
		w := h.pool.Workers[pw]
		w.ID = i
		in.Workers = append(in.Workers, w)
	}
	for j, pt := range h.liveT {
		t := h.pool.Tasks[pt]
		t.ID = j
		in.Tasks = append(in.Tasks, t)
	}
	return in
}

// churn applies one round of random mutations: a few removals per side, a
// few arrivals from the dormant pool, and a few task re-pricings.
func (h *churnPool) churn(rng *stats.RNG) {
	const minLive = 3
	for k := rng.Intn(3); k > 0 && len(h.liveW) > minLive; k-- {
		i := rng.Intn(len(h.liveW))
		h.liveW = append(h.liveW[:i], h.liveW[i+1:]...)
	}
	for k := rng.Intn(3); k > 0 && len(h.liveT) > minLive; k-- {
		i := rng.Intn(len(h.liveT))
		h.liveT = append(h.liveT[:i], h.liveT[i+1:]...)
	}
	liveW := make(map[int]bool, len(h.liveW))
	for _, pw := range h.liveW {
		liveW[pw] = true
	}
	liveT := make(map[int]bool, len(h.liveT))
	for _, pt := range h.liveT {
		liveT[pt] = true
	}
	for k := rng.Intn(3); k > 0; k-- {
		pw := rng.Intn(h.pool.NumWorkers())
		if !liveW[pw] {
			liveW[pw] = true
			h.liveW = append(h.liveW, pw)
		}
	}
	for k := rng.Intn(3); k > 0; k-- {
		pt := rng.Intn(h.pool.NumTasks())
		if !liveT[pt] {
			liveT[pt] = true
			h.liveT = append(h.liveT, pt)
		}
	}
	// Re-price a few live tasks within (0, MaxPayment] — unreported churn
	// the solver must discover on its own.
	for k := rng.Intn(3); k > 0; k-- {
		pt := h.liveT[rng.Intn(len(h.liveT))]
		h.pool.Tasks[pt].Payment = rng.Float64Range(0.01, h.pool.MaxPayment)
	}
}

// buildDelta derives the platform-style Delta between the previous round's
// live lists and the current ones, by pool-id correspondence.
func buildDelta(prevW, prevT, curW, curT []int) *core.Delta {
	idxW := make(map[int]int32, len(prevW))
	for i, pw := range prevW {
		idxW[pw] = int32(i)
	}
	idxT := make(map[int]int32, len(prevT))
	for j, pt := range prevT {
		idxT[pt] = int32(j)
	}
	d := &core.Delta{
		PrevWorker: make([]int32, len(curW)),
		PrevTask:   make([]int32, len(curT)),
	}
	seenW := make([]bool, len(prevW))
	for i, pw := range curW {
		if pi, ok := idxW[pw]; ok {
			d.PrevWorker[i] = pi
			seenW[pi] = true
		} else {
			d.PrevWorker[i] = -1
			d.AddedWorkers = append(d.AddedWorkers, int32(i))
		}
	}
	seenT := make([]bool, len(prevT))
	for j, pt := range curT {
		if pj, ok := idxT[pt]; ok {
			d.PrevTask[j] = pj
			seenT[pj] = true
		} else {
			d.PrevTask[j] = -1
			d.AddedTasks = append(d.AddedTasks, int32(j))
		}
	}
	for i, ok := range seenW {
		if !ok {
			d.RemovedWorkers = append(d.RemovedWorkers, int32(i))
		}
	}
	for j, ok := range seenT {
		if !ok {
			d.RemovedTasks = append(d.RemovedTasks, int32(j))
		}
	}
	return d
}

// scaledObjective sums the selection's weights in the exact kernels' scaled
// int64 domain, the only representation in which "bit-identical objective"
// is well-defined across distinct optimal selections.
func scaledObjective(p *core.Problem, sel []int, kind core.WeightKind) int64 {
	var sum int64
	wt := p.Weights(kind)
	for _, e := range sel {
		sum -= bipartite.ScaledCost(wt[e])
	}
	return sum
}

// TestIncrementalChurnTraceEquivalence is the acceptance property: 20 seeds
// spread over the three workload generators, ~12 rounds of random churn
// each, objective equal to the cold exact oracle on every round.  The
// dirty threshold cycles through {tight, default-ish, never-fall-back} so
// all three regimes — frequent full solves, mixed, and pure surgery — are
// exercised; threshold 2 is the strongest test, since every round after the
// first must then be served by delta surgery alone.
func TestIncrementalChurnTraceEquivalence(t *testing.T) {
	configs := []func(w, tk int) market.Config{
		market.FreelanceTraceConfig,
		market.MicrotaskTraceConfig,
		market.UniformConfig,
	}
	thresholds := []float64{0.05, 0.3, 2}
	const rounds = 12
	for seed := uint64(1); seed <= 20; seed++ {
		seed := seed
		cfg := configs[seed%3](60, 50)
		threshold := thresholds[seed%3]
		h := newChurnPool(cfg, seed, 0.7)
		rng := stats.NewRNG(seed * 977)
		solver := &core.IncrementalExact{Kind: core.MutualWeight, DirtyThreshold: threshold}
		oracle := core.ExactSerial{Kind: core.MutualWeight}

		var prevW, prevT []int
		warmRounds := 0
		for round := 0; round < rounds; round++ {
			if round > 0 {
				h.churn(rng)
			}
			in := h.instance()
			p, err := core.NewProblem(in, benefit.DefaultParams())
			if err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			var delta *core.Delta
			if round > 0 {
				delta = buildDelta(prevW, prevT, h.liveW, h.liveT)
			}
			sel, _, err := core.RunDeltaCtx(nil, p, solver, delta, stats.NewRNG(seed))
			if err != nil {
				t.Fatalf("seed %d round %d: incremental: %v", seed, round, err)
			}
			rep := solver.LastReport()
			if round > 0 && rep.WarmStarted && !rep.FullSolveFallback {
				warmRounds++
			}
			want, _, err := core.Run(p, oracle, stats.NewRNG(seed))
			if err != nil {
				t.Fatalf("seed %d round %d: oracle: %v", seed, round, err)
			}
			got, exp := scaledObjective(p, sel, core.MutualWeight), scaledObjective(p, want, core.MutualWeight)
			if got != exp {
				t.Fatalf("seed %d round %d (threshold %v, delta %+v): objective %d, oracle %d (report %+v)",
					seed, round, threshold, delta, got, exp, rep)
			}
			prevW = append(prevW[:0], h.liveW...)
			prevT = append(prevT[:0], h.liveT...)
		}
		if threshold >= 1 && warmRounds != rounds-1 {
			t.Fatalf("seed %d: threshold %v should never fall back, but only %d/%d rounds were warm",
				seed, threshold, warmRounds, rounds-1)
		}
		if warmRounds == 0 {
			t.Fatalf("seed %d: no round was served warm — the delta path never ran", seed)
		}
	}
}

// TestIncrementalZeroChurnAllocs gates the steady-state allocation budget:
// a warm round with an identity delta must cost at most 2 allocations —
// the returned selection and nothing else.
func TestIncrementalZeroChurnAllocs(t *testing.T) {
	in := market.MustGenerate(market.FreelanceTraceConfig(80, 60), 7)
	p, err := core.NewProblem(in, benefit.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewIncrementalExact()
	if _, err := s.Solve(p, nil); err != nil {
		t.Fatal(err)
	}
	d := &core.Delta{
		PrevWorker: make([]int32, in.NumWorkers()),
		PrevTask:   make([]int32, in.NumTasks()),
	}
	for i := range d.PrevWorker {
		d.PrevWorker[i] = int32(i)
	}
	for j := range d.PrevTask {
		d.PrevTask[j] = int32(j)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.SolveDeltaCtx(nil, p, d, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("warm zero-churn round costs %.1f allocs/op, want <= 2", allocs)
	}
	rep := s.LastReport()
	if !rep.WarmStarted || rep.FullSolveFallback || rep.DirtyFraction != 0 {
		t.Fatalf("zero-churn round not served warm: %+v", rep)
	}
}

// TestIncrementalFallbackOnBadDelta pins the safety property: a delta whose
// shape lies about the problem must not corrupt the answer — the solver
// falls back to a full solve and still matches the oracle.
func TestIncrementalFallbackOnBadDelta(t *testing.T) {
	in := market.MustGenerate(market.MicrotaskTraceConfig(40, 30), 3)
	p, err := core.NewProblem(in, benefit.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewIncrementalExact()
	if _, err := s.Solve(p, nil); err != nil {
		t.Fatal(err)
	}
	// Claims one fewer worker than the problem has: shape mismatch.
	bad := &core.Delta{
		PrevWorker: make([]int32, in.NumWorkers()-1),
		PrevTask:   make([]int32, in.NumTasks()),
	}
	sel, err := s.SolveDeltaCtx(nil, p, bad, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := s.LastReport()
	if !rep.FullSolveFallback {
		t.Fatalf("bad delta did not trigger fallback: %+v", rep)
	}
	want, _, err := core.Run(p, core.ExactSerial{Kind: core.MutualWeight}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if g, w := scaledObjective(p, sel, core.MutualWeight), scaledObjective(p, want, core.MutualWeight); g != w {
		t.Fatalf("fallback objective %d, oracle %d", g, w)
	}
}

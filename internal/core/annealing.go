package core

import (
	"math"

	"repro/internal/stats"
)

// SimulatedAnnealing refines the Greedy solution with Metropolis-accepted
// exchange moves: random add / swap / rotate proposals, accepted when they
// improve the objective or, with probability exp(gain/T), when they do not.
// Temperature cools geometrically from T0 by Cooling per proposal.
//
// It exists as a design-choice ablation against LocalSearch: annealing can
// hop out of exchange-local optima the deterministic search is stuck in, at
// the price of more evaluations and a tuning surface.  The optimality
// experiment quantifies whether that buys anything on market-shaped
// instances (spoiler: local search's rotate move already captures most of
// it).
type SimulatedAnnealing struct {
	Kind WeightKind
	// Iters is the number of proposals; 0 means 30·|E| capped at 200k.
	Iters int
	// T0 is the initial temperature; 0 means 0.05 (benefit units).
	T0 float64
	// Cooling is the per-proposal temperature factor; 0 means a schedule
	// that lands near 1e-4·T0 at the final proposal.
	Cooling float64
}

// Name implements Solver.
func (SimulatedAnnealing) Name() string { return "annealing" }

// Solve implements Solver.  The RNG drives proposals and acceptance, so the
// result is reproducible per seed.
func (s SimulatedAnnealing) Solve(p *Problem, r *stats.RNG) ([]int, error) {
	if r == nil {
		r = stats.NewRNG(0)
	}
	sel, err := Greedy{Kind: s.Kind}.Solve(p, r)
	if err != nil {
		return nil, err
	}
	nE := p.NumEdges()
	if nE == 0 {
		return sel, nil
	}
	iters := s.Iters
	if iters <= 0 {
		iters = 30 * nE
		if iters > 200000 {
			iters = 200000
		}
	}
	t0 := s.T0
	if t0 <= 0 {
		t0 = 0.05
	}
	cooling := s.Cooling
	if cooling <= 0 || cooling >= 1 {
		cooling = math.Pow(1e-4, 1/float64(iters))
	}

	chosen := make([]bool, nE)
	capW := p.CapacityW()
	capT := p.CapacityT()
	for _, ei := range sel {
		chosen[ei] = true
		capW[p.W[ei]]--
		capT[p.T[ei]]--
	}
	wt := p.Weights(s.Kind)

	// Track the best configuration seen, so cooling noise never ships a
	// worse-than-greedy answer.
	cur := 0.0
	for ei, ok := range chosen {
		if ok {
			cur += wt[ei]
		}
	}
	best := cur
	bestChosen := append([]bool(nil), chosen...)

	cheapestChosenW := func(w int) int {
		bi, bw := -1, 0.0
		lo, hi := p.AdjW(w)
		for ei := lo; ei < hi; ei++ {
			if chosen[ei] && (bi == -1 || wt[ei] < bw) {
				bi, bw = ei, wt[ei]
			}
		}
		return bi
	}
	cheapestChosenT := func(t int) int {
		bi, bw := -1, 0.0
		for _, ei := range p.AdjT(t) {
			if chosen[ei] && (bi == -1 || wt[ei] < bw) {
				bi, bw = int(ei), wt[ei]
			}
		}
		return bi
	}

	temp := t0
	for it := 0; it < iters; it++ {
		ei := r.Intn(nE)
		w, t := int(p.W[ei]), int(p.T[ei])
		var gain float64
		var evictions [2]int
		nEvict := 0

		if chosen[ei] {
			// Propose eviction (pure removal; re-adds come from later
			// proposals).  Usually negative gain — the uphill move that
			// lets annealing escape local optima.
			gain = -wt[ei]
			evictions[0], nEvict = ei, 1
			if accept(r, gain, temp) {
				chosen[ei] = false
				capW[w]++
				capT[t]++
				cur += gain
			}
		} else {
			needW := capW[w] == 0
			needT := capT[t] == 0
			gain = wt[ei]
			ok := true
			if needW {
				out := cheapestChosenW(w)
				if out < 0 {
					ok = false
				} else {
					gain -= wt[out]
					evictions[nEvict] = out
					nEvict++
				}
			}
			if ok && needT {
				out := cheapestChosenT(t)
				if out < 0 || (nEvict > 0 && out == evictions[0]) {
					// Shared blocker frees both sides at once.
					if out >= 0 {
						// already accounted
					} else {
						ok = false
					}
				} else if out >= 0 {
					gain -= wt[out]
					evictions[nEvict] = out
					nEvict++
				}
			}
			if ok && accept(r, gain, temp) {
				for k := 0; k < nEvict; k++ {
					out := evictions[k]
					chosen[out] = false
					capW[p.W[out]]++
					capT[p.T[out]]++
				}
				chosen[ei] = true
				capW[w]--
				capT[t]--
				cur += gain
			}
		}

		if cur > best {
			best = cur
			copy(bestChosen, chosen)
		}
		temp *= cooling
	}

	out := make([]int, 0, len(sel))
	for ei, ok := range bestChosen {
		if ok {
			out = append(out, ei)
		}
	}
	return out, nil
}

// accept implements the Metropolis criterion.
func accept(r *stats.RNG, gain, temp float64) bool {
	if gain >= 0 {
		return true
	}
	if temp <= 0 {
		return false
	}
	return r.Float64() < math.Exp(gain/temp)
}

// Package benefit implements the paper's central modelling contribution:
// per-pair benefit functions for both sides of the bipartite labor market
// and the combiners that merge them into a single *mutual* benefit.
//
// Prior task-assignment work optimises the requester side alone (expected
// answer quality); the paper's abstract argues a good assignment must also
// "boost the workers' willingness to participate".  This package therefore
// exposes three per-pair quantities —
//
//	Quality(w, t)       requester-side benefit in [0, 1]
//	WorkerUtility(w, t) worker-side benefit in [0, 1]
//	Mutual(w, t)        combined benefit in [0, 1]
//
// — and three combiners for the last (weighted sum, Nash product,
// egalitarian min), selected through Params.
package benefit

import (
	"fmt"
	"math"

	"repro/internal/market"
)

// Combiner selects how the two sides' benefits merge into one value.
type Combiner int

const (
	// WeightedSum is λ·q + (1−λ)·b — the paper family's default, linear in
	// the trade-off knob λ.
	WeightedSum Combiner = iota
	// NashProduct is sqrt(q·b) — the geometric mean, echoing the Nash
	// bargaining solution: a pair that is worthless to either side is
	// worthless overall.
	NashProduct
	// Egalitarian is min(q, b) — the Rawlsian combiner; maximising it favors
	// pairs that are decent for *both* sides.
	Egalitarian
)

// String names the combiner for reports.
func (c Combiner) String() string {
	switch c {
	case WeightedSum:
		return "weighted-sum"
	case NashProduct:
		return "nash-product"
	case Egalitarian:
		return "egalitarian"
	default:
		return fmt.Sprintf("combiner(%d)", int(c))
	}
}

// Params are the benefit-model knobs.
type Params struct {
	// Lambda in [0,1] weights the requester side in WeightedSum; 1 recovers
	// classical quality-only assignment, 0 a pure worker market.
	Lambda float64
	// Beta in [0,1] weights money vs. interest inside the worker utility.
	Beta float64
	// Combiner selects the mutual-benefit combiner.
	Combiner Combiner
}

// DefaultParams returns the balanced defaults used throughout the
// evaluation: λ = β = 0.5 with the weighted-sum combiner.
func DefaultParams() Params {
	return Params{Lambda: 0.5, Beta: 0.5, Combiner: WeightedSum}
}

// Validate rejects out-of-range parameters.
func (p Params) Validate() error {
	if p.Lambda < 0 || p.Lambda > 1 {
		return fmt.Errorf("benefit: Lambda %v outside [0,1]", p.Lambda)
	}
	if p.Beta < 0 || p.Beta > 1 {
		return fmt.Errorf("benefit: Beta %v outside [0,1]", p.Beta)
	}
	if p.Combiner < WeightedSum || p.Combiner > Egalitarian {
		return fmt.Errorf("benefit: unknown combiner %d", int(p.Combiner))
	}
	return nil
}

// Model evaluates benefits over one market instance.
//
// NewModel precomputes the per-(worker, category) terms of Quality and
// WorkerUtility into flat tables so problem construction — which evaluates
// every eligible pair — pays the profile lookups once per worker instead of
// once per edge.  The tables only cover workers present (with well-formed
// profiles) when the model was created; lookups for any other worker
// pointer fall back to the direct formulas, so instances that keep mutating
// after NewModel (e.g. core.Incremental's backing store) stay correct.
type Model struct {
	in *market.Instance
	p  Params

	// memoWorkers is the number of leading in.Workers covered by the memo
	// tables; 0 disables memoization.  A lookup uses the tables only when
	// the worker pointer still identifies in.Workers[w.ID], so stale copies
	// and re-allocated backing arrays are never served memoized values.
	memoWorkers int
	nC          int
	accHalf     []float64 // accHalf[w*nC+c] = Accuracy[c] - 0.5
	iTerm       []float64 // iTerm[w*nC+c] = (1-Beta)·Interest[c]
}

// NewModel binds params to an instance.  It returns an error for invalid
// params or a nil instance.
func NewModel(in *market.Instance, p Params) (*Model, error) {
	if in == nil {
		return nil, fmt.Errorf("benefit: nil instance")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &Model{in: in, p: p, nC: in.NumCategories}
	m.memoize()
	return m, nil
}

// memoize fills the per-(worker, category) tables.  Workers with malformed
// profile lengths disable memoization entirely rather than risk an
// out-of-range read; NewModel does not validate the instance, so this must
// tolerate anything.
func (m *Model) memoize() {
	nW := len(m.in.Workers)
	if m.nC <= 0 || nW == 0 {
		return
	}
	for i := range m.in.Workers {
		w := &m.in.Workers[i]
		if len(w.Accuracy) != m.nC || len(w.Interest) != m.nC {
			return
		}
	}
	m.accHalf = make([]float64, nW*m.nC)
	m.iTerm = make([]float64, nW*m.nC)
	for i := range m.in.Workers {
		w := &m.in.Workers[i]
		base := i * m.nC
		for c := 0; c < m.nC; c++ {
			m.accHalf[base+c] = w.Accuracy[c] - 0.5
			m.iTerm[base+c] = (1 - m.p.Beta) * w.Interest[c]
		}
	}
	m.memoWorkers = nW
}

// memoBase returns the memo-table base index for w, or -1 when w is not
// (or no longer) the instance-resident worker the tables were built from.
func (m *Model) memoBase(w *market.Worker) int {
	if id := w.ID; uint(id) < uint(m.memoWorkers) && w == &m.in.Workers[id] {
		return id * m.nC
	}
	return -1
}

// Params returns the model's parameters.
func (m *Model) Params() Params { return m.p }

// EffectiveAccuracy is the probability worker w answers task t correctly:
// base accuracy in t's category discounted by task difficulty towards the
// coin-flip floor 0.5.  Always in [0.5, 1).
func (m *Model) EffectiveAccuracy(w *market.Worker, t *market.Task) float64 {
	return 0.5 + (w.Accuracy[t.Category]-0.5)*(1-t.Difficulty)
}

// Quality is the requester-side benefit of assigning w to t, the effective
// accuracy rescaled from [0.5, 1) to [0, 1).
func (m *Model) Quality(w *market.Worker, t *market.Task) float64 {
	if base := m.memoBase(w); base >= 0 {
		// Same expression as the fallback with Accuracy[c]-0.5 cached, so
		// both paths produce bit-identical values.
		return 2 * (0.5 + m.accHalf[base+t.Category]*(1-t.Difficulty) - 0.5)
	}
	return 2 * (m.EffectiveAccuracy(w, t) - 0.5)
}

// WorkerUtility is the worker-side benefit of assigning w to t:
// β · payment-surplus + (1−β) · interest, all in [0, 1].
// Payment surplus is (p_t − r_w)/p_max clamped to [0, 1]: a task below the
// worker's reservation wage yields zero monetary utility (but can still
// carry interest value — hobby work exists).
func (m *Model) WorkerUtility(w *market.Worker, t *market.Task) float64 {
	pay := 0.0
	if m.in.MaxPayment > 0 {
		pay = (t.Payment - w.ReservationWage) / m.in.MaxPayment
		if pay < 0 {
			pay = 0
		} else if pay > 1 {
			pay = 1
		}
	}
	if base := m.memoBase(w); base >= 0 {
		return m.p.Beta*pay + m.iTerm[base+t.Category]
	}
	return m.p.Beta*pay + (1-m.p.Beta)*w.Interest[t.Category]
}

// Combine merges a requester-side q and worker-side b into the mutual
// benefit according to the model's combiner.  Both inputs must be in [0,1];
// the output then is too.
func (m *Model) Combine(q, b float64) float64 {
	switch m.p.Combiner {
	case WeightedSum:
		return m.p.Lambda*q + (1-m.p.Lambda)*b
	case NashProduct:
		return math.Sqrt(q * b)
	case Egalitarian:
		if q < b {
			return q
		}
		return b
	default:
		panic("benefit: unreachable combiner")
	}
}

// Mutual is the combined benefit of the pair (w, t).
func (m *Model) Mutual(w *market.Worker, t *market.Task) float64 {
	return m.Combine(m.Quality(w, t), m.WorkerUtility(w, t))
}

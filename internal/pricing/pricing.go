// Package pricing turns the retention model into an operator tool: how much
// must tasks pay for the workforce to stay?
//
// The benefit model gives each pair a monetary surplus only when the task's
// payment clears the worker's reservation wage, and the dynamics simulation
// makes under-paid workers quit.  This package exposes the two levers an
// operator can reason about:
//
//   - SurplusFraction — the static view: what share of eligible pairs pays
//     above reservation;
//   - RetentionCurve — the dynamic view: final workforce participation as
//     a function of a uniform payment multiplier.
package pricing

import (
	"fmt"

	"repro/internal/dynamics"
	"repro/internal/market"
)

// ScalePayments returns a copy of in with every task payment multiplied by
// mult (MaxPayment rescaled accordingly).  It panics on a negative
// multiplier.
func ScalePayments(in *market.Instance, mult float64) *market.Instance {
	if mult < 0 {
		panic("pricing: negative multiplier")
	}
	out := *in
	out.Tasks = make([]market.Task, len(in.Tasks))
	copy(out.Tasks, in.Tasks)
	out.MaxPayment = 0
	for i := range out.Tasks {
		out.Tasks[i].Payment *= mult
		if out.Tasks[i].Payment > out.MaxPayment {
			out.MaxPayment = out.Tasks[i].Payment
		}
	}
	return &out
}

// SurplusFraction returns the share of eligible worker-task pairs whose
// payment strictly exceeds the worker's reservation wage — the fraction of
// the market where money actually motivates.  A market with no eligible
// pairs returns 0.
func SurplusFraction(in *market.Instance) float64 {
	tasksByCat := make([][]int, in.NumCategories)
	for j := range in.Tasks {
		tasksByCat[in.Tasks[j].Category] = append(tasksByCat[in.Tasks[j].Category], j)
	}
	pairs, surplus := 0, 0
	for i := range in.Workers {
		w := &in.Workers[i]
		for _, c := range w.Specialties {
			for _, j := range tasksByCat[c] {
				pairs++
				if in.Tasks[j].Payment > w.ReservationWage {
					surplus++
				}
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(surplus) / float64(pairs)
}

// RetentionPoint is one multiplier probe of the dynamic view.
type RetentionPoint struct {
	Multiplier         float64
	FinalParticipation float64
	CumulativeBenefit  float64
}

// RetentionCurve runs the dynamics simulation once per multiplier, scaling
// the per-round task payments, and reports final participation and
// cumulative benefit.  The same seed is used for every point so the curve
// isolates the payment effect.
func RetentionCurve(cfg dynamics.Config, multipliers []float64, seed uint64) ([]RetentionPoint, error) {
	out := make([]RetentionPoint, 0, len(multipliers))
	for _, m := range multipliers {
		if m < 0 {
			return nil, fmt.Errorf("pricing: negative multiplier %v", m)
		}
		c := cfg
		// Applied post-generation so reservation wages (outside options)
		// stay fixed — scaling the generator's PaymentMu would scale them
		// too and leave utilities unchanged.
		c.PaymentMultiplier = m
		if m == 0 {
			c.PaymentMultiplier = 1e-9 // "pay nothing", distinct from the 0=default sentinel
		}
		rep, err := dynamics.Simulate(c, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, RetentionPoint{
			Multiplier:         m,
			FinalParticipation: rep.FinalParticipation,
			CumulativeBenefit:  rep.TotalMutual,
		})
	}
	return out, nil
}

package pricing

import (
	"math"
	"testing"

	"repro/internal/benefit"
	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/market"
)

func testInstance(seed uint64) *market.Instance {
	return market.MustGenerate(market.FreelanceTraceConfig(80, 60), seed)
}

func TestScalePayments(t *testing.T) {
	in := testInstance(1)
	out := ScalePayments(in, 2)
	for j := range in.Tasks {
		if math.Abs(out.Tasks[j].Payment-2*in.Tasks[j].Payment) > 1e-12 {
			t.Fatalf("task %d not doubled", j)
		}
	}
	if math.Abs(out.MaxPayment-2*in.MaxPayment) > 1e-9 {
		t.Fatalf("MaxPayment %v vs %v", out.MaxPayment, in.MaxPayment)
	}
	// Original untouched.
	if in.Tasks[0].Payment == out.Tasks[0].Payment && in.Tasks[0].Payment != 0 {
		t.Fatal("original mutated")
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScalePaymentsPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ScalePayments(testInstance(1), -1)
}

func TestSurplusFractionMonotoneInMultiplier(t *testing.T) {
	in := testInstance(2)
	prev := -1.0
	for _, m := range []float64{0.25, 0.5, 1, 2, 4} {
		f := SurplusFraction(ScalePayments(in, m))
		if f < prev-1e-12 {
			t.Fatalf("surplus not monotone at multiplier %v: %v < %v", m, f, prev)
		}
		if f < 0 || f > 1 {
			t.Fatalf("surplus %v out of range", f)
		}
		prev = f
	}
	if SurplusFraction(ScalePayments(in, 0)) != 0 {
		t.Fatal("zero payments should have zero surplus")
	}
}

func TestSurplusFractionEmptyMarket(t *testing.T) {
	in := &market.Instance{Name: "empty", NumCategories: 1}
	if SurplusFraction(in) != 0 {
		t.Fatal("empty market surplus should be 0")
	}
}

func dynCfg() dynamics.Config {
	return dynamics.Config{
		Rounds: 8,
		Market: market.Config{NumWorkers: 60, NumTasks: 40},
		Params: benefit.DefaultParams(),
		Solver: core.Greedy{Kind: core.MutualWeight},
	}
}

func TestRetentionCurveShape(t *testing.T) {
	curve, err := RetentionCurve(dynCfg(), []float64{0.25, 1, 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 3 {
		t.Fatalf("curve has %d points", len(curve))
	}
	for _, pt := range curve {
		if pt.FinalParticipation < 0 || pt.FinalParticipation > 1 {
			t.Fatalf("participation %v", pt.FinalParticipation)
		}
	}
	// Paying 16x more than baseline should not retain *fewer* workers than
	// paying a quarter (allowing simulation noise via a margin).
	if curve[2].FinalParticipation < curve[0].FinalParticipation-0.1 {
		t.Fatalf("higher pay retained clearly fewer workers: %+v", curve)
	}
}

func TestRetentionCurveRejectsNegative(t *testing.T) {
	if _, err := RetentionCurve(dynCfg(), []float64{-1}, 1); err == nil {
		t.Fatal("negative multiplier accepted")
	}
}

package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPercentileInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	if got := Percentile(sorted, 0.5); got != 5 {
		t.Fatalf("P50 of {0,10} = %v", got)
	}
	if got := Percentile(sorted, 0); got != 0 {
		t.Fatalf("P0 = %v", got)
	}
	if got := Percentile(sorted, 1); got != 10 {
		t.Fatalf("P100 = %v", got)
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, p := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Percentile(%v) did not panic", p)
				}
			}()
			Percentile([]float64{1}, p)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Percentile of empty did not panic")
			}
		}()
		Percentile(nil, 0.5)
	}()
}

func TestMeanSumStd(t *testing.T) {
	xs := []float64{2, 4, 6}
	if Mean(xs) != 4 {
		t.Fatal("mean wrong")
	}
	if Mean(nil) != 0 || Std(nil) != 0 || Std([]float64{1}) != 0 {
		t.Fatal("empty-case handling wrong")
	}
	if !almostEq(Std(xs), 2, 1e-12) {
		t.Fatalf("std = %v", Std(xs))
	}
}

func TestJainIndexExtremes(t *testing.T) {
	if JainIndex([]float64{5, 5, 5, 5}) != 1 {
		t.Fatal("equal allocation should have Jain 1")
	}
	got := JainIndex([]float64{1, 0, 0, 0})
	if !almostEq(got, 0.25, 1e-12) {
		t.Fatalf("single-winner Jain = %v, want 0.25", got)
	}
	if JainIndex(nil) != 1 || JainIndex([]float64{0, 0}) != 1 {
		t.Fatal("degenerate Jain should be 1")
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	r := NewRNG(31)
	small := make([]float64, 10)
	large := make([]float64, 1000)
	for i := range small {
		small[i] = r.Normal()
	}
	for i := range large {
		large[i] = r.Normal()
	}
	if CI95(large) >= CI95(small) {
		t.Fatalf("CI should shrink with n: %v vs %v", CI95(large), CI95(small))
	}
	if CI95([]float64{1}) != 0 {
		t.Fatal("CI95 of 1 sample should be 0")
	}
}

// Property: Jain index is always within [1/n, 1] for non-trivial samples.
func TestQuickJainBounds(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Abs(math.Mod(x, 1e6)))
			}
		}
		if len(xs) == 0 {
			return JainIndex(xs) == 1
		}
		j := JainIndex(xs)
		return j >= 1/float64(len(xs))-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

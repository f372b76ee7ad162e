package stats

import (
	"math"
	"slices"
	"testing"
)

func TestRunningMatchesBatch(t *testing.T) {
	r := NewRNG(41)
	xs := make([]float64, 500)
	run := NewRunning()
	for i := range xs {
		xs[i] = r.NormalMS(10, 3)
		run.Add(xs[i])
	}
	if !almostEq(run.Mean(), Mean(xs), 1e-9) {
		t.Fatalf("mean %v vs %v", run.Mean(), Mean(xs))
	}
	if run.Min() != slices.Min(xs) {
		t.Fatal("min mismatch")
	}
}

func TestRunningEmpty(t *testing.T) {
	run := NewRunning()
	if run.Mean() != 0 {
		t.Fatal("empty Running should report zeros")
	}
	if !math.IsInf(run.Min(), 1) {
		t.Fatal("empty Running min should be +Inf")
	}
}

package stats

import (
	"fmt"
	"math"
)

// Percentile returns the p-quantile (p in [0,1]) of an ascending-sorted
// sample using linear interpolation between closest ranks.  It panics if the
// sample is empty or p is outside [0,1].
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Percentile of empty sample")
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("stats: Percentile p=%v out of [0,1]", p))
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	i := int(math.Floor(pos))
	frac := pos - float64(i)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Std returns the sample standard deviation of xs (0 for n < 2).
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// JainIndex returns Jain's fairness index of xs:
// (Σx)² / (n·Σx²), which is 1 for perfectly equal allocations and 1/n when a
// single participant receives everything.  The experiment suite uses it to
// quantify how evenly benefit is spread across workers.
// An empty or all-zero sample returns 1 (vacuously fair).
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// CI95 returns the half-width of a ~95% confidence interval for the mean of
// xs using the normal approximation (1.96·s/√n).  With the experiment
// repetition counts used here (≥10) the normal approximation is adequate and
// avoids shipping a t-table.
func CI95(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return 1.96 * Std(xs) / math.Sqrt(float64(len(xs)))
}

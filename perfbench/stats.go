package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie beyond a reported tail value.
// A tail estimated from fewer samples moves with every single outlier.
const tailBeyond = 10

// tailPercentiles are the tails the benchmark may report, highest first.
// Deeper ones (the 10-beyond point of 3000 ingest batches is p99.67) land
// in rare fsync and GC stalls and spread 0.3 to 0.5 of their median from
// one seed to the next.
var tailPercentiles = []float64{99, 90, 75}

// summary is one latency distribution as the benchmark reports it.
type summary struct {
	N      int
	P50    float64 // ms
	Tail   float64 // ms, nearest-rank value at TailPc
	TailPc float64
}

// summarize reports the median and the highest of tailPercentiles that
// has at least tailBeyond samples beyond it; with none, Tail is 0.
func summarize(ds []time.Duration) summary {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	return summarizeMS(ms)
}

func summarizeMS(ms []float64) summary {
	s := summary{N: len(ms)}
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	s.P50 = median(sorted)
	for _, pc := range tailPercentiles {
		k := int(math.Ceil(float64(s.N)*pc/100)) - 1 // nearest rank
		if s.N-1-k >= tailBeyond {
			s.Tail, s.TailPc = sorted[k], pc
			break
		}
	}
	return s
}

// median of an ascending slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func medianOf(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return median(sorted)
}

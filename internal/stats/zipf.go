package stats

import "math"

// Zipf samples from a Zipf (discrete power-law) distribution over
// {0, 1, …, N-1}: P(k) ∝ 1/(k+1)^theta.
//
// Category popularity on real crowdsourcing and freelance platforms is
// heavily skewed — a few categories (data entry, transcription, web dev)
// receive most tasks while a long tail receives almost none — and Zipf is the
// standard model for that skew.  theta = 0 degenerates to uniform, which lets
// the skew-sweep experiment (R-Fig7) interpolate between an even market and a
// highly concentrated one with a single knob.
//
// Sampling is done by inverse transform over the precomputed CDF with binary
// search: O(N) memory, O(log N) per sample, deterministic given the RNG.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a Zipf sampler over n ranks with exponent theta >= 0.
// It panics if n <= 0 or theta < 0.
func NewZipf(n int, theta float64) *Zipf {
	if n <= 0 {
		panic("stats: NewZipf with n <= 0")
	}
	if theta < 0 {
		panic("stats: NewZipf with negative theta")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), theta)
		cdf[k] = sum
	}
	// Normalise so the last entry is exactly 1.
	for k := range cdf {
		cdf[k] /= sum
	}
	cdf[n-1] = 1
	return &Zipf{cdf: cdf}
}

// Sample draws one rank in [0, N).
func (z *Zipf) Sample(r *RNG) int {
	u := r.Float64()
	// Binary search for the first cdf entry >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

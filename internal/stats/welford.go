package stats

import "math"

// Running accumulates the mean and minimum of a stream online, with
// Welford's mean update.  The experiment suite feeds per-trial ratios
// through it so its reports do not need to retain every observation.
type Running struct {
	n    int
	mean float64
	min  float64
}

// NewRunning returns an empty accumulator.
func NewRunning() *Running {
	return &Running{min: math.Inf(1)}
}

// Add folds one observation into the accumulator.
func (r *Running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	if x < r.min {
		r.min = x
	}
}

// Mean returns the running mean (0 when empty).
func (r *Running) Mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.mean
}

// Min returns the smallest observation (+Inf when empty).
func (r *Running) Min() float64 { return r.min }

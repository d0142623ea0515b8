// Package stats provides the incremental ("online") statistics that power
// the platform's online statistics computation (paper §3.1). Pipeline
// components such as the standard scaler and the one-hot encoder update
// these statistics while the online learner streams over incoming data, so
// that proactive training and dynamic re-materialization never need to
// rescan historical data to recompute them.
//
// Every statistic in this package is strictly incremental: observing a value
// is O(1) (amortized) and two instances can be merged. Statistics that
// cannot be maintained incrementally (exact percentiles, PCA) are
// deliberately absent, mirroring the paper's supported-component contract.
package stats

import "math"

// Welford maintains the running mean and variance of a stream of values
// using Welford's numerically stable algorithm.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Observe folds a value into the statistic.
func (w *Welford) Observe(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Count returns the number of observed values.
func (w *Welford) Count() int64 { return w.n }

// Mean returns the running mean, or 0 before any observation.
func (w *Welford) Mean() float64 { return w.mean }

// variance returns the population variance, or 0 with fewer than one observation.
func (w *Welford) variance() float64 {
	if w.n < 1 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Std returns the population standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.variance()) }

// Reset clears the statistic.
func (w *Welford) Reset() { *w = Welford{} }

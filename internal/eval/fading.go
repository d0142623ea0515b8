package eval

import "math"

// Fading is a prequential error estimator with exponential forgetting
// (Gama et al.'s fading-factor variant of the prequential approach the
// paper evaluates with [11]). Unlike the cumulative metrics, it tracks the
// *recent* error level, which is what an operator watches on a dashboard
// and what threshold-based retraining policies (Velox-style) key on.
type Fading struct {
	// Alpha is the forgetting factor in (0, 1); values near 1 forget
	// slowly. 0.999 ≈ an effective window of ~1000 observations.
	Alpha float64

	num, den float64
	n        int64
}

// NewFading returns a fading estimator of the per-observation loss passed
// to Observe.
func NewFading(alpha float64) *Fading {
	if alpha <= 0 || alpha >= 1 {
		panic("eval: fading factor must be in (0,1)")
	}
	return &Fading{Alpha: alpha}
}

// Name implements Metric.
func (f *Fading) Name() string { return "fading" }

// Observe implements Metric: the per-pair loss is the squared error, so
// Value is a faded RMSE. For classification feed (pred, actual) labels and
// Value approximates a faded misclassification rate via the 0/1 distance.
func (f *Fading) Observe(pred, actual float64) {
	loss := 0.0
	//lint:allow floateq: classification labels compare exactly; regression pairs fall through to squared error
	if pred != actual {
		d := pred - actual
		loss = d * d
		if loss > 1 {
			loss = 1 // saturate so classification labels behave as 0/1
		}
	}
	f.ObserveLoss(loss)
}

// ObserveLoss folds an explicit per-observation loss.
func (f *Fading) ObserveLoss(loss float64) {
	f.n++
	f.num = loss + f.Alpha*f.num
	f.den = 1 + f.Alpha*f.den
}

// Value implements Metric: the faded mean loss.
func (f *Fading) Value() float64 {
	//lint:allow floateq: den is exactly 0 only before the first observation
	if f.den == 0 {
		return 0
	}
	return f.num / f.den
}

// Count implements Metric.
func (f *Fading) Count() int64 { return f.n }

// Reset implements Metric.
func (f *Fading) Reset() { f.num, f.den, f.n = 0, 0, 0 }

// FadedRMSE wraps Fading to report the square root of the faded squared
// error — a drop-in recent-window counterpart of RMSE.
type FadedRMSE struct {
	inner Fading
}

// NewFadedRMSE returns a faded RMSE with the given forgetting factor.
func NewFadedRMSE(alpha float64) *FadedRMSE {
	if alpha <= 0 || alpha >= 1 {
		panic("eval: fading factor must be in (0,1)")
	}
	return &FadedRMSE{inner: Fading{Alpha: alpha}}
}

// Name implements Metric.
func (f *FadedRMSE) Name() string { return "faded-rmse" }

// Observe implements Metric.
func (f *FadedRMSE) Observe(pred, actual float64) {
	d := pred - actual
	f.inner.ObserveLoss(d * d)
}

// Value implements Metric.
func (f *FadedRMSE) Value() float64 { return math.Sqrt(f.inner.Value()) }

// Count implements Metric.
func (f *FadedRMSE) Count() int64 { return f.inner.Count() }

// Reset implements Metric.
func (f *FadedRMSE) Reset() { f.inner.Reset() }

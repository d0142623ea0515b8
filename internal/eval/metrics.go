// Package eval provides the evaluation substrate of the experiments
// (paper §5.1): cumulative prequential error [Dawid 1984], the error
// measures used by the two pipelines (misclassification rate for the URL
// SVM, RMSLE for the Taxi regression), and the cost clock that attributes
// deployment time to data preprocessing, model training, and prediction.
package eval

import "math"

// Metric is a cumulative error measure over a stream of (prediction,
// actual) pairs.
type Metric interface {
	// Name identifies the metric.
	Name() string
	// Observe folds one prediction/actual pair into the metric.
	Observe(pred, actual float64)
	// Value returns the current cumulative value of the metric.
	Value() float64
	// Count returns the number of observed pairs.
	Count() int64
	// Reset clears the metric.
	Reset()
}

// Misclassification is the fraction of label predictions that differ from
// the actual label.
type Misclassification struct {
	n, wrong int64
}

// Name implements Metric.
func (m *Misclassification) Name() string { return "misclassification" }

// Observe implements Metric; pred and actual are compared exactly.
func (m *Misclassification) Observe(pred, actual float64) {
	m.n++
	//lint:allow floateq: class labels compare exactly (documented contract)
	if pred != actual {
		m.wrong++
	}
}

// Value implements Metric.
func (m *Misclassification) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return float64(m.wrong) / float64(m.n)
}

// Count implements Metric.
func (m *Misclassification) Count() int64 { return m.n }

// Reset implements Metric.
func (m *Misclassification) Reset() { *m = Misclassification{} }

// RMSE is the root of the mean squared error.
type RMSE struct {
	n   int64
	sse float64
}

// Name implements Metric.
func (m *RMSE) Name() string { return "rmse" }

// Observe implements Metric.
func (m *RMSE) Observe(pred, actual float64) {
	m.n++
	d := pred - actual
	m.sse += d * d
}

// Value implements Metric.
func (m *RMSE) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return math.Sqrt(m.sse / float64(m.n))
}

// Count implements Metric.
func (m *RMSE) Count() int64 { return m.n }

// Reset implements Metric.
func (m *RMSE) Reset() { *m = RMSE{} }

// RMSLE is the root mean squared logarithmic error, the NYC-taxi Kaggle
// measure: RMSE over log1p of predictions and actuals. Negative inputs
// clamp at −1+ε rather than producing NaN.
type RMSLE struct {
	n   int64
	sse float64
}

// Name implements Metric.
func (m *RMSLE) Name() string { return "rmsle" }

// Observe implements Metric.
func (m *RMSLE) Observe(pred, actual float64) {
	m.n++
	d := log1pSafe(pred) - log1pSafe(actual)
	m.sse += d * d
}

func log1pSafe(v float64) float64 {
	if v < -1+1e-12 {
		v = -1 + 1e-12
	}
	return math.Log1p(v)
}

// Value implements Metric.
func (m *RMSLE) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return math.Sqrt(m.sse / float64(m.n))
}

// Count implements Metric.
func (m *RMSLE) Count() int64 { return m.n }

// Reset implements Metric.
func (m *RMSLE) Reset() { *m = RMSLE{} }

// MAE is the mean absolute error.
type MAE struct {
	n   int64
	sae float64
}

// Name implements Metric.
func (m *MAE) Name() string { return "mae" }

// Observe implements Metric.
func (m *MAE) Observe(pred, actual float64) {
	m.n++
	m.sae += math.Abs(pred - actual)
}

// Value implements Metric.
func (m *MAE) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sae / float64(m.n)
}

// Count implements Metric.
func (m *MAE) Count() int64 { return m.n }

// Reset implements Metric.
func (m *MAE) Reset() { *m = MAE{} }

// LogLoss is the mean binary cross-entropy; predictions are probabilities
// in [0,1] and actuals are labels in {0,1}. Probabilities are clipped away
// from 0 and 1.
type LogLoss struct {
	n   int64
	sum float64
}

// Name implements Metric.
func (m *LogLoss) Name() string { return "logloss" }

// Observe implements Metric.
func (m *LogLoss) Observe(pred, actual float64) {
	const eps = 1e-15
	p := math.Min(1-eps, math.Max(eps, pred))
	m.n++
	m.sum += -(actual*math.Log(p) + (1-actual)*math.Log(1-p))
}

// Value implements Metric.
func (m *LogLoss) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// Count implements Metric.
func (m *LogLoss) Count() int64 { return m.n }

// Reset implements Metric.
func (m *LogLoss) Reset() { *m = LogLoss{} }

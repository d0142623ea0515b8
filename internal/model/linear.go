package model

import (
	"math"

	"cdml/internal/data"
	"cdml/internal/linalg"
)

// SVM is a linear support vector machine trained with hinge loss, the
// classifier of the paper's URL pipeline. Labels must be −1 or +1.
type SVM struct {
	base
}

// NewSVM returns an SVM over dim features with L2 regularization reg.
func NewSVM(dim int, reg float64) *SVM {
	return &SVM{base: newBase(dim, reg)}
}

// Name implements Model.
func (m *SVM) Name() string { return "svm" }

// Predict implements Model: the raw margin w·x + b.
//
//cdml:hotpath
func (m *SVM) Predict(x linalg.Vector) float64 { return m.score(x) }

// Classify returns the predicted class label in {−1, +1}.
//
//cdml:hotpath
func (m *SVM) Classify(x linalg.Vector) float64 {
	if m.score(x) >= 0 {
		return 1
	}
	return -1
}

// Loss implements Model: hinge loss max(0, 1 − y·score).
func (m *SVM) Loss(x linalg.Vector, y float64) float64 {
	return math.Max(0, 1-y*m.score(x))
}

// hingeScale is the per-example multiplier/loss of the hinge objective.
//
//cdml:hotpath
func hingeScale(score, y float64) (float64, float64) {
	margin := y * score
	if margin >= 1 {
		return 0, 0
	}
	return -y, 1 - margin
}

// Gradient implements Model.
//
//cdml:deterministic
func (m *SVM) Gradient(batch []data.Instance) (linalg.Vector, float64) {
	return m.gradient(batch, hingeScale)
}

// Clone implements Model.
func (m *SVM) Clone() Model {
	c := &SVM{base: base{w: linalg.CopyOf(m.w), reg: m.reg}}
	return c
}

// LinearRegression is least-squares linear regression, the model of the
// paper's Taxi pipeline.
type LinearRegression struct {
	base
}

// NewLinearRegression returns a linear regression over dim features with L2
// regularization reg.
func NewLinearRegression(dim int, reg float64) *LinearRegression {
	return &LinearRegression{base: newBase(dim, reg)}
}

// Name implements Model.
func (m *LinearRegression) Name() string { return "linreg" }

// Predict implements Model.
//
//cdml:hotpath
func (m *LinearRegression) Predict(x linalg.Vector) float64 { return m.score(x) }

// Loss implements Model: squared loss ½(score − y)².
func (m *LinearRegression) Loss(x linalg.Vector, y float64) float64 {
	r := m.score(x) - y
	return 0.5 * r * r
}

// squaredScale is the per-example multiplier/loss of the squared objective.
//
//cdml:hotpath
func squaredScale(score, y float64) (float64, float64) {
	r := score - y
	return r, 0.5 * r * r
}

// Gradient implements Model.
//
//cdml:deterministic
func (m *LinearRegression) Gradient(batch []data.Instance) (linalg.Vector, float64) {
	return m.gradient(batch, squaredScale)
}

// Clone implements Model.
func (m *LinearRegression) Clone() Model {
	return &LinearRegression{base: base{w: linalg.CopyOf(m.w), reg: m.reg}}
}

// LogisticRegression is binary logistic regression. Labels must be 0 or 1.
type LogisticRegression struct {
	base
}

// NewLogisticRegression returns a logistic regression over dim features
// with L2 regularization reg.
func NewLogisticRegression(dim int, reg float64) *LogisticRegression {
	return &LogisticRegression{base: newBase(dim, reg)}
}

// Name implements Model.
func (m *LogisticRegression) Name() string { return "logreg" }

// Predict implements Model: the probability P(y=1|x).
//
//cdml:hotpath
func (m *LogisticRegression) Predict(x linalg.Vector) float64 {
	return sigmoid(m.score(x))
}

// Loss implements Model: the logistic (cross-entropy) loss, computed in a
// numerically stable form.
func (m *LogisticRegression) Loss(x linalg.Vector, y float64) float64 {
	s := m.score(x)
	// log(1+e^s) − y·s, stabilized
	return logOnePlusExp(s) - y*s
}

// logisticScale is the per-example multiplier/loss of the logistic
// objective.
//
//cdml:hotpath
func logisticScale(score, y float64) (float64, float64) {
	return sigmoid(score) - y, logOnePlusExp(score) - y*score
}

// Gradient implements Model.
//
//cdml:deterministic
func (m *LogisticRegression) Gradient(batch []data.Instance) (linalg.Vector, float64) {
	return m.gradient(batch, logisticScale)
}

// Clone implements Model.
func (m *LogisticRegression) Clone() Model {
	return &LogisticRegression{base: base{w: linalg.CopyOf(m.w), reg: m.reg}}
}

//cdml:hotpath
func sigmoid(s float64) float64 {
	if s >= 0 {
		return 1 / (1 + math.Exp(-s))
	}
	e := math.Exp(s)
	return e / (1 + e)
}

// logOnePlusExp computes log(1 + e^s) without overflow.
//
//cdml:hotpath
func logOnePlusExp(s float64) float64 {
	if s > 35 {
		return s
	}
	if s < -35 {
		return math.Exp(s)
	}
	return math.Log1p(math.Exp(s))
}

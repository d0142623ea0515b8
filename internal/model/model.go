// Package model implements the SGD-trainable models the paper deploys: a
// linear SVM (hinge loss, used by the URL pipeline), linear regression
// (squared loss, used by the Taxi pipeline), and logistic regression
// (log loss, the third MLlib class the prototype wires in).
//
// Every model exposes the paper's update contract (§4.4) as two calls,
// which core.Step composes into one training step: Gradient returns the
// mean regularized gradient and mean loss of a mini-batch (it only reads
// the weights), and Apply takes the single optimizer step. Iterations are
// conditionally independent given the weights and optimizer state, which
// is exactly what lets the proactive trainer run them at arbitrary points
// in time (§3.3).
//
// Weights have dimension Dim()+1: the last coordinate is the intercept,
// which is never regularized. Gradients over sparse batches stay sparse and
// L2 regularization is applied lazily to the touched coordinates only — the
// standard large-scale trick that keeps an update on a 2^18-dimensional
// model proportional to the batch's non-zeros.
package model

import (
	"fmt"

	"cdml/internal/data"
	"cdml/internal/linalg"
	"cdml/internal/opt"
)

// Model is an SGD-trainable predictor.
type Model interface {
	// Name identifies the model type ("svm", "linreg", "logreg").
	Name() string
	// Dim returns the feature dimensionality (excluding the intercept).
	Dim() int
	// Weights returns the live weight slice of length Dim()+1 (intercept
	// last). Mutating it mutates the model.
	Weights() []float64
	// SetWeights replaces the weights (length must be Dim()+1).
	SetWeights(w []float64)
	// Predict returns the raw score w·x + b.
	Predict(x linalg.Vector) float64
	// Loss returns the per-example loss at the current weights.
	Loss(x linalg.Vector, y float64) float64
	// Gradient returns the mean mini-batch gradient (mean loss gradient
	// plus L2 on the touched coordinates) and the mean unregularized loss,
	// summed in batch order. It reads but never writes model state. The
	// batch must be non-empty.
	//cdml:deterministic
	Gradient(batch []data.Instance) (linalg.Vector, float64)
	// Apply takes one optimizer step with a gradient from Gradient.
	//cdml:deterministic
	Apply(g linalg.Vector, o opt.Optimizer)
	// Clone returns a deep copy (weights included).
	Clone() Model
}

// base carries the weight storage and regularization shared by the three
// linear models.
type base struct {
	w   []float64 // dim+1, intercept last
	reg float64
}

func newBase(dim int, reg float64) base {
	if dim <= 0 {
		panic(fmt.Sprintf("model: non-positive dimension %d", dim))
	}
	if reg < 0 {
		panic(fmt.Sprintf("model: negative regularization %v", reg))
	}
	return base{w: make([]float64, dim+1), reg: reg}
}

func (b *base) Dim() int           { return len(b.w) - 1 }
func (b *base) Weights() []float64 { return b.w }
func (b *base) Reg() float64       { return b.reg }

func (b *base) SetWeights(w []float64) {
	if len(w) != len(b.w) {
		panic(fmt.Sprintf("model: SetWeights length %d, want %d", len(w), len(b.w)))
	}
	copy(b.w, w)
}

//cdml:hotpath
func (b *base) score(x linalg.Vector) float64 {
	if x.Dim() != b.Dim() {
		panic(fmt.Sprintf("model: input dim %d, model dim %d", x.Dim(), b.Dim()))
	}
	return x.Dot(b.w[:b.Dim()]) + b.w[b.Dim()]
}

// addReg adds λ·w to the gradient on its touched coordinates (all
// coordinates when dense), never on the intercept, and returns the result.
//
//cdml:hotpath
func (b *base) addReg(g linalg.Vector) linalg.Vector {
	//lint:allow floateq: reg is exactly 0 when regularization is disabled (constructor sentinel)
	if b.reg == 0 {
		return g
	}
	dim := b.Dim()
	switch t := g.(type) {
	case *linalg.Sparse:
		for k, i := range t.Idx {
			if int(i) < dim {
				t.Val[k] += b.reg * b.w[i]
			}
		}
		return t
	case linalg.Dense:
		for i := 0; i < dim; i++ {
			t[i] += b.reg * b.w[i]
		}
		return t
	default:
		return g
	}
}

// gradient returns the mean regularized gradient and mean loss of a batch.
// For each example, scale(score, y) returns (multiplier of the example's
// feature vector and intercept, per-example loss). A zero multiplier skips
// the accumulation (e.g. hinge loss outside the margin).
//
//cdml:deterministic
func (b *base) gradient(batch []data.Instance, scale func(score, y float64) (mult, loss float64)) (linalg.Vector, float64) {
	if len(batch) == 0 {
		panic("model: empty mini-batch")
	}
	acc := linalg.AcquireAccumulator(len(b.w))
	var lossSum float64
	for _, ins := range batch {
		s := b.score(ins.X)
		m, l := scale(s, ins.Y)
		lossSum += l
		//lint:allow floateq: loss scale functions return the exact constant 0 to skip accumulation
		if m != 0 {
			acc.Add(ins.X, m)
			acc.AddCoord(b.Dim(), m)
		}
	}
	sum := acc.Result(1)
	acc.Release()
	return b.finishGradient(sum, lossSum, len(batch))
}

// finishGradient turns a gradient sum over n rows into the mean
// regularized gradient and mean loss. The sum is consumed (scaled in
// place).
func (b *base) finishGradient(sum linalg.Vector, lossSum float64, n int) (linalg.Vector, float64) {
	inv := 1 / float64(n)
	return b.addReg(scaleVec(sum, inv)), lossSum * inv
}

// Apply implements Model: one optimizer step.
//
//cdml:deterministic
func (b *base) Apply(g linalg.Vector, o opt.Optimizer) {
	o.Step(b.w, g)
}

// scaleVec scales a gradient vector in place and returns it.
func scaleVec(g linalg.Vector, alpha float64) linalg.Vector {
	switch t := g.(type) {
	case *linalg.Sparse:
		return t.Scale(alpha)
	case linalg.Dense:
		linalg.Scale(alpha, t)
		return t
	default:
		out := linalg.NewDense(g.Dim())
		g.AddScaledTo(out, alpha)
		return out
	}
}

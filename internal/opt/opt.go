// Package opt implements the stochastic-gradient optimizers the proactive
// trainer relies on (paper §2.1, §4.4): plain SGD with inverse-time decay,
// Momentum, and the per-coordinate adaptive methods Adam, RMSProp, and
// AdaDelta.
//
// All optimizers apply updates in place to a dense weight slice. When the
// gradient is sparse, only the touched coordinates are visited ("lazy"
// adaptive updates): the first- and second-moment state of untouched
// coordinates is left undisturbed. This is the standard sparse variant used
// by large-scale systems and is essential for the URL-like workload, where
// the weight vector has hundreds of thousands of coordinates but each
// mini-batch touches only a few thousand.
//
// Optimizer state carries across trainings: the periodical baseline's
// TFX-style warm starting keeps stepping the live optimizer, adaptive-rate
// moments included (paper §5.2), and a snapshot carries it as Encode bytes.
package opt

import (
	"fmt"
	"math"

	"cdml/internal/linalg"
)

// Optimizer applies gradient steps to a dense weight vector.
type Optimizer interface {
	// Name identifies the method (e.g. "adam").
	Name() string
	// Step applies one update w ← w − step(g) in place and advances the
	// internal iteration counter. The gradient may be dense or sparse.
	//cdml:deterministic
	Step(w []float64, g linalg.Vector)
	// Steps returns the number of optimizer steps taken since creation:
	// one per mini-batch, as every adaptive moment advances.
	Steps() int64
}

// coordUpdate visits every touched coordinate of g, calling f(i, gi).
func coordUpdate(g linalg.Vector, f func(i int, gi float64)) {
	switch t := g.(type) {
	case *linalg.Sparse:
		for k, i := range t.Idx {
			f(int(i), t.Val[k])
		}
	case linalg.Dense:
		for i, v := range t {
			f(i, v)
		}
	default:
		for i := 0; i < g.Dim(); i++ {
			f(i, g.At(i))
		}
	}
}

// SGD is plain stochastic gradient descent with optional inverse-time
// learning-rate decay: eta_t = LR / (1 + Decay·t).
type SGD struct {
	LR    float64
	Decay float64
	t     int64
}

// NewSGD returns an SGD optimizer with the given base learning rate and no
// decay.
func NewSGD(lr float64) *SGD { return &SGD{LR: lr} }

// Name implements Optimizer.
func (s *SGD) Name() string { return "sgd" }

// Step implements Optimizer.
//
//cdml:deterministic
func (s *SGD) Step(w []float64, g linalg.Vector) {
	eta := s.LR / (1 + s.Decay*float64(s.t))
	coordUpdate(g, func(i int, gi float64) {
		w[i] -= eta * gi
	})
	s.t++
}

// Steps implements Optimizer.
func (s *SGD) Steps() int64 { return s.t }

// Momentum is SGD with classical (heavy-ball) momentum.
type Momentum struct {
	LR   float64
	Beta float64
	v    []float64
	t    int64
}

// NewMomentum returns a momentum optimizer with the conventional beta=0.9.
func NewMomentum(lr float64) *Momentum { return &Momentum{LR: lr, Beta: 0.9} }

// Name implements Optimizer.
func (m *Momentum) Name() string { return "momentum" }

// Step implements Optimizer.
//
//cdml:deterministic
func (m *Momentum) Step(w []float64, g linalg.Vector) {
	m.ensure(len(w))
	coordUpdate(g, func(i int, gi float64) {
		m.v[i] = m.Beta*m.v[i] + gi
		w[i] -= m.LR * m.v[i]
	})
	m.t++
}

func (m *Momentum) ensure(dim int) {
	if m.v == nil {
		m.v = make([]float64, dim)
	} else if len(m.v) != dim {
		panic(fmt.Sprintf("opt: momentum state dim %d, weights dim %d", len(m.v), dim))
	}
}

// Steps implements Optimizer.
func (m *Momentum) Steps() int64 { return m.t }

// Adam implements Kingma & Ba's Adam with lazy sparse updates: first/second
// moments decay only when a coordinate is touched, while the bias correction
// uses the global step counter.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	m, v []float64
	t    int64
}

// NewAdam returns Adam with the paper-standard defaults beta1=0.9,
// beta2=0.999, eps=1e-8.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Name implements Optimizer.
func (a *Adam) Name() string { return "adam" }

// Step implements Optimizer.
//
//cdml:deterministic
func (a *Adam) Step(w []float64, g linalg.Vector) {
	a.ensure(len(w))
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	coordUpdate(g, func(i int, gi float64) {
		a.m[i] = a.Beta1*a.m[i] + (1-a.Beta1)*gi
		a.v[i] = a.Beta2*a.v[i] + (1-a.Beta2)*gi*gi
		mHat := a.m[i] / bc1
		vHat := a.v[i] / bc2
		w[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
	})
}

func (a *Adam) ensure(dim int) {
	if a.m == nil {
		a.m = make([]float64, dim)
		a.v = make([]float64, dim)
	} else if len(a.m) != dim {
		panic(fmt.Sprintf("opt: adam state dim %d, weights dim %d", len(a.m), dim))
	}
}

// Steps implements Optimizer.
func (a *Adam) Steps() int64 { return a.t }

// RMSProp implements Tieleman & Hinton's RMSProp with lazy sparse updates.
type RMSProp struct {
	LR, Rho, Eps float64

	v []float64
	t int64
}

// NewRMSProp returns RMSProp with the conventional rho=0.9, eps=1e-8.
func NewRMSProp(lr float64) *RMSProp {
	return &RMSProp{LR: lr, Rho: 0.9, Eps: 1e-8}
}

// Name implements Optimizer.
func (r *RMSProp) Name() string { return "rmsprop" }

// Step implements Optimizer.
//
//cdml:deterministic
func (r *RMSProp) Step(w []float64, g linalg.Vector) {
	r.ensure(len(w))
	coordUpdate(g, func(i int, gi float64) {
		r.v[i] = r.Rho*r.v[i] + (1-r.Rho)*gi*gi
		w[i] -= r.LR * gi / (math.Sqrt(r.v[i]) + r.Eps)
	})
	r.t++
}

func (r *RMSProp) ensure(dim int) {
	if r.v == nil {
		r.v = make([]float64, dim)
	} else if len(r.v) != dim {
		panic(fmt.Sprintf("opt: rmsprop state dim %d, weights dim %d", len(r.v), dim))
	}
}

// Steps implements Optimizer.
func (r *RMSProp) Steps() int64 { return r.t }

// AdaDelta implements Zeiler's AdaDelta. It has no learning-rate parameter;
// the per-coordinate step is derived from the ratio of accumulated update
// and gradient magnitudes.
type AdaDelta struct {
	Rho, Eps float64

	eg, ex []float64
	t      int64
}

// NewAdaDelta returns AdaDelta with the conventional rho=0.95, eps=1e-6.
func NewAdaDelta() *AdaDelta { return &AdaDelta{Rho: 0.95, Eps: 1e-6} }

// Name implements Optimizer.
func (a *AdaDelta) Name() string { return "adadelta" }

// Step implements Optimizer.
//
//cdml:deterministic
func (a *AdaDelta) Step(w []float64, g linalg.Vector) {
	a.ensure(len(w))
	coordUpdate(g, func(i int, gi float64) {
		a.eg[i] = a.Rho*a.eg[i] + (1-a.Rho)*gi*gi
		dx := -math.Sqrt(a.ex[i]+a.Eps) / math.Sqrt(a.eg[i]+a.Eps) * gi
		a.ex[i] = a.Rho*a.ex[i] + (1-a.Rho)*dx*dx
		w[i] += dx
	})
	a.t++
}

func (a *AdaDelta) ensure(dim int) {
	if a.eg == nil {
		a.eg = make([]float64, dim)
		a.ex = make([]float64, dim)
	} else if len(a.eg) != dim {
		panic(fmt.Sprintf("opt: adadelta state dim %d, weights dim %d", len(a.eg), dim))
	}
}

// Steps implements Optimizer.
func (a *AdaDelta) Steps() int64 { return a.t }

// New constructs an optimizer by name: "sgd", "momentum", "adam", "rmsprop",
// or "adadelta". The learning rate is ignored by AdaDelta. It returns an
// error for unknown names.
func New(name string, lr float64) (Optimizer, error) {
	switch name {
	case "sgd":
		return NewSGD(lr), nil
	case "momentum":
		return NewMomentum(lr), nil
	case "adam":
		return NewAdam(lr), nil
	case "rmsprop":
		return NewRMSProp(lr), nil
	case "adadelta":
		return NewAdaDelta(), nil
	case "ftrl":
		// Conventional CTR defaults; LR maps onto α.
		f := NewFTRL(1e-3, 1e-4)
		if lr > 0 {
			f.Alpha = lr
		}
		return f, nil
	default:
		return nil, fmt.Errorf("opt: unknown optimizer %q", name)
	}
}

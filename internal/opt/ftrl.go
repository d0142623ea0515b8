package opt

import (
	"fmt"
	"math"

	"cdml/internal/linalg"
)

// FTRL implements the FTRL-Proximal optimizer of McMahan et al.'s "Ad
// Click Prediction: a View from the Trenches" — the ads-CTR setting the
// paper's introduction motivates continuous deployment with (§1, [23]).
// Its per-coordinate adaptive rates match AdaGrad while the L1 term drives
// untouched-in-expectation weights to exactly zero, yielding sparse models
// on hashed feature spaces.
//
// Unlike the other optimizers, FTRL owns the weight representation: Step
// overwrites w with the closed-form solution of the proximal problem, so
// w must not be mutated between steps by anything else.
type FTRL struct {
	// Alpha and Beta shape the per-coordinate learning rate
	// α/(β+√Σg²).
	Alpha, Beta float64
	// L1 and L2 are the regularization strengths.
	L1, L2 float64

	z []float64 // per-coordinate FTRL state
	n []float64 // per-coordinate squared-gradient sum
	t int64
}

// NewFTRL returns FTRL-Proximal with the reference defaults α=0.1, β=1,
// and the given L1/L2 strengths.
func NewFTRL(l1, l2 float64) *FTRL {
	if l1 < 0 || l2 < 0 {
		panic(fmt.Sprintf("opt: negative FTRL regularization l1=%v l2=%v", l1, l2))
	}
	return &FTRL{Alpha: 0.1, Beta: 1, L1: l1, L2: l2}
}

// Name implements Optimizer.
func (f *FTRL) Name() string { return "ftrl" }

// Step implements Optimizer.
//
//cdml:deterministic
func (f *FTRL) Step(w []float64, g linalg.Vector) {
	f.ensure(len(w))
	coordUpdate(g, func(i int, gi float64) {
		sigma := (math.Sqrt(f.n[i]+gi*gi) - math.Sqrt(f.n[i])) / f.Alpha
		f.z[i] += gi - sigma*w[i]
		f.n[i] += gi * gi
		w[i] = f.solve(i)
	})
	f.t++
}

// solve returns the closed-form weight for coordinate i given the current
// state.
func (f *FTRL) solve(i int) float64 {
	z := f.z[i]
	if math.Abs(z) <= f.L1 {
		return 0
	}
	sign := 1.0
	if z < 0 {
		sign = -1
	}
	return -(z - sign*f.L1) / ((f.Beta+math.Sqrt(f.n[i]))/f.Alpha + f.L2)
}

func (f *FTRL) ensure(dim int) {
	if f.z == nil {
		f.z = make([]float64, dim)
		f.n = make([]float64, dim)
	} else if len(f.z) != dim {
		panic(fmt.Sprintf("opt: ftrl state dim %d, weights dim %d", len(f.z), dim))
	}
}

// Steps implements Optimizer.
func (f *FTRL) Steps() int64 { return f.t }

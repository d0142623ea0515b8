package opt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cdml/internal/linalg"
)

// quadGrad returns the gradient of f(w) = 0.5*||w - target||^2.
func quadGrad(w, target []float64) linalg.Dense {
	g := make(linalg.Dense, len(w))
	for i := range w {
		g[i] = w[i] - target[i]
	}
	return g
}

// runQuadratic minimizes 0.5*||w-target||^2 with the given optimizer and
// returns the final distance to the optimum.
func runQuadratic(o Optimizer, steps int) float64 {
	target := []float64{3, -2, 0.5}
	w := make([]float64, len(target))
	for i := 0; i < steps; i++ {
		o.Step(w, quadGrad(w, target))
	}
	var d float64
	for i := range w {
		d += (w[i] - target[i]) * (w[i] - target[i])
	}
	return math.Sqrt(d)
}

func TestAllOptimizersConvergeOnQuadratic(t *testing.T) {
	cases := []struct {
		opt   Optimizer
		steps int
		tol   float64
	}{
		{NewSGD(0.1), 500, 1e-6},
		{NewMomentum(0.05), 800, 1e-4},
		{NewAdam(0.2), 2000, 1e-3},
		{NewRMSProp(0.01), 3000, 0.05},
		{NewAdaDelta(), 20000, 0.2},
	}
	for _, c := range cases {
		t.Run(c.opt.Name(), func(t *testing.T) {
			if d := runQuadratic(c.opt, c.steps); d > c.tol {
				t.Fatalf("%s did not converge: dist=%v > %v", c.opt.Name(), d, c.tol)
			}
		})
	}
}

func TestSGDDecayReducesStep(t *testing.T) {
	s := &SGD{LR: 1, Decay: 1}
	w := []float64{0}
	s.Step(w, linalg.Dense{1}) // eta = 1
	first := w[0]
	w[0] = 0
	s.Step(w, linalg.Dense{1}) // eta = 1/2
	if math.Abs(w[0]) >= math.Abs(first) {
		t.Fatalf("decay did not shrink step: %v then %v", first, w[0])
	}
}

func TestSGDSparseTouchesOnlyIndices(t *testing.T) {
	s := NewSGD(0.5)
	w := []float64{1, 1, 1}
	g := linalg.NewSparse(3, []int32{1}, []float64{2})
	s.Step(w, g)
	if w[0] != 1 || w[2] != 1 {
		t.Fatalf("untouched coords changed: %v", w)
	}
	if w[1] != 0 {
		t.Fatalf("w[1] = %v, want 0", w[1])
	}
}

// Property: for every optimizer, a sparse gradient never changes untouched
// coordinates, and produces the same update on touched coordinates as the
// equivalent dense gradient applied to a second, identical optimizer.
func TestQuickSparseDenseStepAgreement(t *testing.T) {
	makers := []func() Optimizer{
		func() Optimizer { return NewSGD(0.1) },
		func() Optimizer { return NewMomentum(0.1) },
		func() Optimizer { return NewAdam(0.1) },
		func() Optimizer { return NewRMSProp(0.1) },
		func() Optimizer { return NewAdaDelta() },
		func() Optimizer { return NewFTRL(0.01, 0.01) },
	}
	for _, mk := range makers {
		name := mk().Name()
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			dim := 2 + r.Intn(16)
			// Build a sparse gradient touching every coordinate so the lazy
			// and dense paths are mathematically identical.
			idx := make([]int32, dim)
			val := make([]float64, dim)
			for i := 0; i < dim; i++ {
				idx[i] = int32(i)
				val[i] = r.NormFloat64()
			}
			sg := linalg.NewSparse(dim, idx, val)
			dg := sg.ToDense()

			w1 := make([]float64, dim)
			w2 := make([]float64, dim)
			for i := range w1 {
				w1[i] = r.NormFloat64()
				w2[i] = w1[i]
			}
			o1, o2 := mk(), mk()
			for step := 0; step < 3; step++ {
				o1.Step(w1, sg)
				o2.Step(w2, dg)
			}
			for i := range w1 {
				if math.Abs(w1[i]-w2[i]) > 1e-12 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	for _, o := range []Optimizer{NewMomentum(0.1), NewAdam(0.1), NewRMSProp(0.1), NewAdaDelta()} {
		o.Step([]float64{1, 1}, linalg.Dense{1, 1})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on dim change", o.Name())
				}
			}()
			o.Step([]float64{1, 1, 1}, linalg.Dense{1, 1, 1})
		}()
	}
}

func TestNewByName(t *testing.T) {
	for _, name := range []string{"sgd", "momentum", "adam", "rmsprop", "adadelta"} {
		o, err := New(name, 0.1)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if o.Name() != name {
			t.Fatalf("Name = %q, want %q", o.Name(), name)
		}
	}
	if _, err := New("bogus", 0.1); err == nil {
		t.Fatal("expected error for unknown optimizer")
	}
}

func TestAdamBiasCorrectionFirstStep(t *testing.T) {
	// On the first step Adam's update should be ≈ LR * sign(g).
	a := NewAdam(0.1)
	w := []float64{0}
	a.Step(w, linalg.Dense{42})
	if math.Abs(w[0]+0.1) > 1e-6 {
		t.Fatalf("first Adam step = %v, want ≈ -0.1", w[0])
	}
}

func TestRMSPropStepMagnitudeBounded(t *testing.T) {
	r := NewRMSProp(0.01)
	w := []float64{0}
	for i := 0; i < 10; i++ {
		r.Step(w, linalg.Dense{1000})
	}
	// RMSProp normalizes by gradient magnitude; after 10 steps of a huge
	// constant gradient the travel should be on the order of 10*LR/sqrt(1-rho^t).
	if math.Abs(w[0]) > 1 {
		t.Fatalf("RMSProp step not normalized: w=%v", w[0])
	}
}

func TestAdaDeltaNoLearningRate(t *testing.T) {
	a := NewAdaDelta()
	w := []float64{10}
	prev := w[0]
	for i := 0; i < 100; i++ {
		a.Step(w, linalg.Dense{w[0]})
	}
	if math.Abs(w[0]) >= math.Abs(prev) {
		t.Fatalf("AdaDelta made no progress: %v", w[0])
	}
}

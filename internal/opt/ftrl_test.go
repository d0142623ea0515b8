package opt

import (
	"math"
	"math/rand"
	"testing"

	"cdml/internal/flat"
	"cdml/internal/linalg"
)

func TestFTRLConvergesOnQuadratic(t *testing.T) {
	f := NewFTRL(0, 0)
	f.Alpha = 0.5
	target := []float64{3, -2, 0.5}
	w := make([]float64, 3)
	for i := 0; i < 3000; i++ {
		g := make(linalg.Dense, 3)
		for k := range g {
			g[k] = w[k] - target[k]
		}
		f.Step(w, g)
	}
	for k := range w {
		if math.Abs(w[k]-target[k]) > 0.05 {
			t.Fatalf("w[%d] = %v, want %v", k, w[k], target[k])
		}
	}
}

func TestFTRLL1InducesSparsity(t *testing.T) {
	// Logistic-style gradients from a model where only 3 of 100 features
	// matter: FTRL's L1 term should hold a meaningful fraction of the
	// uninformative weights at exactly zero, which plain adaptive methods
	// never do.
	run := func(o Optimizer) []float64 {
		r := rand.New(rand.NewSource(1))
		const dim = 100
		w := make([]float64, dim)
		trueW := make([]float64, dim)
		trueW[3], trueW[47], trueW[90] = 2, -2, 1.5
		for it := 0; it < 3000; it++ {
			x := make(linalg.Dense, dim)
			for k := range x {
				if r.Float64() < 0.1 {
					x[k] = r.NormFloat64()
				}
			}
			score := 0.0
			for k := range x {
				score += trueW[k] * x[k]
			}
			y := 0.0
			if score+0.1*r.NormFloat64() > 0 {
				y = 1
			}
			pred := 1 / (1 + math.Exp(-linalg.DotDense(w, x)))
			g := make(linalg.Dense, dim)
			for k := range g {
				g[k] = (pred - y) * x[k]
			}
			o.Step(w, g)
		}
		return w
	}
	f := NewFTRL(2.0, 0.1)
	f.Alpha = 0.2
	wFTRL := run(f)
	wAdam := run(NewAdam(0.05))
	exactZeros := func(w []float64) int {
		n := 0
		for _, v := range w {
			if v == 0 {
				n++
			}
		}
		return n
	}
	if z := exactZeros(wFTRL); z < 15 {
		t.Fatalf("FTRL produced only %d exact zeros of 100", z)
	}
	if z := exactZeros(wAdam); z != 0 {
		t.Fatalf("Adam unexpectedly produced %d exact zeros", z)
	}
	// The informative coordinates must survive with the right signs.
	if wFTRL[3] <= 0 || wFTRL[47] >= 0 || wFTRL[90] <= 0 {
		t.Fatalf("informative weights wrong: %v %v %v", wFTRL[3], wFTRL[47], wFTRL[90])
	}
}

func TestFTRLSparseGradientTouchesOnlyIndices(t *testing.T) {
	f := NewFTRL(0, 0)
	w := make([]float64, 5)
	f.Step(w, linalg.Dense{1, 1, 1, 1, 1})
	before := linalg.CopyOf(w)
	f.Step(w, linalg.NewSparse(5, []int32{2}, []float64{1}))
	for k := range w {
		if k != 2 && w[k] != before[k] {
			t.Fatalf("untouched coord %d changed", k)
		}
	}
	if w[2] == before[2] {
		t.Fatal("touched coord unchanged")
	}
}

func TestFTRLNegativeRegPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFTRL(-1, 0)
}

func TestNewByNameFTRL(t *testing.T) {
	o, err := New("ftrl", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if o.Name() != "ftrl" || o.(*FTRL).Alpha != 0.3 {
		t.Fatal("ftrl construction wrong")
	}
}

func TestOptimizerSaveLoadRoundTrip(t *testing.T) {
	makers := []Optimizer{
		NewSGD(0.1), NewMomentum(0.2), NewAdam(0.3), NewRMSProp(0.4), NewAdaDelta(), NewFTRL(0.01, 0.02),
	}
	for _, o := range makers {
		// Build up state.
		w := []float64{0.5, -0.5, 1}
		for i := 0; i < 5; i++ {
			o.Step(w, linalg.Dense{1, -2, 0.5})
		}
		got := decodeOf(t, encodeOf(t, o), len(w))
		if got.Name() != o.Name() {
			t.Fatalf("round trip changed kind: %s -> %s", o.Name(), got.Name())
		}
		// The restored optimizer must continue identically.
		w1 := linalg.CopyOf(w)
		w2 := linalg.CopyOf(w)
		for i := 0; i < 3; i++ {
			o.Step(w1, linalg.Dense{0.3, 0.3, 0.3})
			got.Step(w2, linalg.Dense{0.3, 0.3, 0.3})
		}
		for k := range w1 {
			if math.Abs(w1[k]-w2[k]) > 1e-12 {
				t.Fatalf("%s: restored optimizer diverged at %d: %v vs %v", o.Name(), k, w1[k], w2[k])
			}
		}
	}
}

func TestOptimizerLoadGarbage(t *testing.T) {
	if _, err := DecodeSection(flat.NewReader([]byte("junk")), 4); err == nil {
		t.Fatal("expected decode error")
	}
}

package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cdml/internal/data"
	"cdml/internal/flat"
	"cdml/internal/linalg"
	"cdml/internal/opt"
)

// separableBatch builds a linearly separable 2-class dataset with labels in
// {-1,+1} (SVM convention) separated by the line x0 + x1 = 0.
func separableBatch(r *rand.Rand, n int) []data.Instance {
	out := make([]data.Instance, n)
	for i := range out {
		x0 := r.NormFloat64()
		x1 := r.NormFloat64()
		y := 1.0
		if x0+x1 < 0 {
			y = -1
		}
		// push points away from the boundary for clean separability
		shift := 0.5 * y
		out[i] = data.Instance{X: linalg.Dense{x0 + shift, x1 + shift}, Y: y}
	}
	return out
}

// step is one mini-batch SGD iteration as core.ShardedUpdate takes it on a
// batch that fits one shard: GradientSum over the batch, Reduce of that one
// partial, Apply.
func step(m Model, batch []data.Instance, o opt.Optimizer) {
	g, _ := gradient(m, batch)
	m.Apply(g, o)
}

// gradient is the mean regularized gradient and mean loss of a batch: its
// one partial, reduced.
func gradient(m Model, batch []data.Instance) (linalg.Vector, float64) {
	sum, lossSum := m.GradientSum(batch)
	return m.Reduce([]linalg.Vector{sum}, []float64{lossSum}, len(batch))
}

// optimizerCopy returns an optimizer in o's state that shares none of it,
// through the encoding a snapshot carries the optimizer in.
func optimizerCopy(t *testing.T, o opt.Optimizer, dim int) opt.Optimizer {
	t.Helper()
	b, err := opt.Encode(o)
	if err != nil {
		t.Fatal(err)
	}
	c, err := opt.DecodeSection(flat.NewReader(b), dim)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func regressionBatch(r *rand.Rand, n int, noise float64) []data.Instance {
	// y = 2*x0 - 3*x1 + 1 + noise
	out := make([]data.Instance, n)
	for i := range out {
		x0, x1 := r.NormFloat64(), r.NormFloat64()
		y := 2*x0 - 3*x1 + 1 + noise*r.NormFloat64()
		out[i] = data.Instance{X: linalg.Dense{x0, x1}, Y: y}
	}
	return out
}

func TestSVMLearnsSeparableData(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	m := NewSVM(2, 1e-4)
	o := opt.NewAdam(0.05)
	for i := 0; i < 400; i++ {
		step(m, separableBatch(r, 32), o)
	}
	test := separableBatch(r, 500)
	errs := 0
	for _, ins := range test {
		if m.Classify(ins.X) != ins.Y {
			errs++
		}
	}
	if rate := float64(errs) / float64(len(test)); rate > 0.05 {
		t.Fatalf("SVM error rate = %v, want < 0.05", rate)
	}
}

func TestLinearRegressionRecoversCoefficients(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	m := NewLinearRegression(2, 0)
	o := opt.NewAdam(0.05)
	for i := 0; i < 2000; i++ {
		step(m, regressionBatch(r, 32, 0.01), o)
	}
	w := m.Weights()
	if math.Abs(w[0]-2) > 0.1 || math.Abs(w[1]+3) > 0.1 || math.Abs(w[2]-1) > 0.1 {
		t.Fatalf("recovered weights %v, want ≈ [2 -3 1]", w)
	}
}

func TestLogisticRegressionLearns(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m := NewLogisticRegression(2, 1e-4)
	o := opt.NewAdam(0.05)
	mk := func(n int) []data.Instance {
		batch := separableBatch(r, n)
		for i := range batch {
			if batch[i].Y < 0 {
				batch[i].Y = 0 // logistic convention
			}
		}
		return batch
	}
	for i := 0; i < 400; i++ {
		step(m, mk(32), o)
	}
	test := mk(500)
	errs := 0
	for _, ins := range test {
		if (m.Predict(ins.X) >= 0.5) != (ins.Y == 1) {
			errs++
		}
	}
	if rate := float64(errs) / float64(len(test)); rate > 0.05 {
		t.Fatalf("logreg error rate = %v", rate)
	}
	// probabilities in [0,1]
	p := m.Predict(linalg.Dense{10, 10})
	if p < 0 || p > 1 {
		t.Fatalf("probability out of range: %v", p)
	}
}

func TestModelNamesAndDims(t *testing.T) {
	cases := []struct {
		m    Model
		name string
	}{
		{NewSVM(3, 0), "svm"},
		{NewLinearRegression(3, 0), "linreg"},
		{NewLogisticRegression(3, 0), "logreg"},
	}
	for _, c := range cases {
		if c.m.Name() != c.name {
			t.Fatalf("Name = %q, want %q", c.m.Name(), c.name)
		}
		if c.m.Dim() != 3 {
			t.Fatalf("%s Dim = %d", c.name, c.m.Dim())
		}
		if len(c.m.Weights()) != 4 {
			t.Fatalf("%s weights length %d, want 4", c.name, len(c.m.Weights()))
		}
	}
}

func TestBadConstructionPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewSVM(0, 0) },
		func() { NewSVM(2, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSetWeightsAndClone(t *testing.T) {
	m := NewSVM(2, 0.1)
	m.SetWeights([]float64{1, 2, 3})
	c := m.Clone().(*SVM)
	c.Weights()[0] = 99
	if m.Weights()[0] != 1 {
		t.Fatal("Clone shares weights")
	}
	if c.Reg() != 0.1 {
		t.Fatal("Clone lost regularization")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong-length SetWeights")
		}
	}()
	m.SetWeights([]float64{1})
}

func TestPredictDimMismatchPanics(t *testing.T) {
	m := NewSVM(3, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Predict(linalg.Dense{1, 2})
}

func TestEmptyBatchPanics(t *testing.T) {
	m := NewSVM(2, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	gradient(m, nil)
}

func TestSVMGradientZeroOutsideMargin(t *testing.T) {
	m := NewSVM(2, 0)
	m.SetWeights([]float64{10, 0, 0})
	// x = (1,0), y = +1 → margin = 10 ≥ 1 → zero gradient
	g, loss := gradient(m, []data.Instance{{X: linalg.Dense{1, 0}, Y: 1}})
	if loss != 0 {
		t.Fatalf("loss = %v", loss)
	}
	for i := 0; i < g.Dim(); i++ {
		if g.At(i) != 0 {
			t.Fatalf("gradient not zero at %d: %v", i, g.At(i))
		}
	}
}

func TestSVMClassifySign(t *testing.T) {
	m := NewSVM(1, 0)
	m.SetWeights([]float64{1, 0})
	if m.Classify(linalg.Dense{2}) != 1 || m.Classify(linalg.Dense{-2}) != -1 {
		t.Fatal("Classify sign wrong")
	}
}

func TestLinRegGradientMatchesFiniteDifference(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	m := NewLinearRegression(3, 0.05)
	m.SetWeights([]float64{0.3, -0.2, 0.7, 0.1})
	batch := regressionBatch(r, 8, 0.1)
	batch = append(batch, data.Instance{X: linalg.Dense{1, 2, 3}, Y: 4})
	for i := range batch {
		if batch[i].X.Dim() == 2 {
			d := batch[i].X.(linalg.Dense)
			batch[i].X = linalg.Dense{d[0], d[1], 0.5}
		}
	}
	g, _ := gradient(m, batch)
	const eps = 1e-6
	obj := func(w []float64) float64 {
		old := linalg.CopyOf(m.Weights())
		m.SetWeights(w)
		var sum float64
		for _, ins := range batch {
			sum += m.Loss(ins.X, ins.Y)
		}
		sum /= float64(len(batch))
		// L2 term (no intercept)
		for i := 0; i < m.Dim(); i++ {
			sum += 0.5 * m.Reg() * w[i] * w[i]
		}
		m.SetWeights(old)
		return sum
	}
	w0 := linalg.CopyOf(m.Weights())
	for i := range w0 {
		wp := linalg.CopyOf(w0)
		wm := linalg.CopyOf(w0)
		wp[i] += eps
		wm[i] -= eps
		fd := (obj(wp) - obj(wm)) / (2 * eps)
		if math.Abs(fd-g.At(i)) > 1e-4 {
			t.Fatalf("coord %d: finite-diff %v vs gradient %v", i, fd, g.At(i))
		}
	}
}

func TestLogRegGradientMatchesFiniteDifference(t *testing.T) {
	m := NewLogisticRegression(2, 0.01)
	m.SetWeights([]float64{0.5, -0.5, 0.2})
	batch := []data.Instance{
		{X: linalg.Dense{1, 2}, Y: 1},
		{X: linalg.Dense{-1, 0.5}, Y: 0},
		{X: linalg.Dense{0.3, -1}, Y: 1},
	}
	g, _ := gradient(m, batch)
	const eps = 1e-6
	obj := func(w []float64) float64 {
		old := linalg.CopyOf(m.Weights())
		m.SetWeights(w)
		var sum float64
		for _, ins := range batch {
			sum += m.Loss(ins.X, ins.Y)
		}
		sum /= float64(len(batch))
		for i := 0; i < m.Dim(); i++ {
			sum += 0.5 * m.Reg() * w[i] * w[i]
		}
		m.SetWeights(old)
		return sum
	}
	w0 := linalg.CopyOf(m.Weights())
	for i := range w0 {
		wp, wm := linalg.CopyOf(w0), linalg.CopyOf(w0)
		wp[i] += eps
		wm[i] -= eps
		fd := (obj(wp) - obj(wm)) / (2 * eps)
		if math.Abs(fd-g.At(i)) > 1e-5 {
			t.Fatalf("coord %d: finite-diff %v vs gradient %v", i, fd, g.At(i))
		}
	}
}

func TestSparseGradientStaysSparse(t *testing.T) {
	dim := 1000
	m := NewSVM(dim, 0.01)
	batch := []data.Instance{
		{X: linalg.NewSparse(dim, []int32{3, 500}, []float64{1, 1}), Y: 1},
		{X: linalg.NewSparse(dim, []int32{7}, []float64{2}), Y: -1},
	}
	g, _ := gradient(m, batch)
	s, ok := g.(*linalg.Sparse)
	if !ok {
		t.Fatalf("gradient type %T, want *Sparse", g)
	}
	if s.NNZ() > 4 { // 3 feature coords + intercept
		t.Fatalf("gradient NNZ = %d, want ≤ 4", s.NNZ())
	}
}

func TestLogisticNumericalStability(t *testing.T) {
	m := NewLogisticRegression(1, 0)
	m.SetWeights([]float64{100, 0})
	if p := m.Predict(linalg.Dense{10}); p != 1 {
		if math.Abs(p-1) > 1e-9 {
			t.Fatalf("saturated probability = %v", p)
		}
	}
	if l := m.Loss(linalg.Dense{10}, 1); math.IsNaN(l) || math.IsInf(l, 0) || l > 1e-6 {
		t.Fatalf("stable loss wrong: %v", l)
	}
	if l := m.Loss(linalg.Dense{-10}, 1); math.IsNaN(l) || math.IsInf(l, 0) {
		t.Fatalf("loss overflowed: %v", l)
	}
}

// Property: one SGD step decreases loss on that batch (convex losses, small
// step).
func TestQuickUpdateDecreasesBatchLoss(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := NewLinearRegression(2, 0)
		w := []float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		m.SetWeights(w)
		batch := regressionBatch(r, 16, 0.1)
		lossBefore := 0.0
		for _, ins := range batch {
			lossBefore += m.Loss(ins.X, ins.Y)
		}
		step(m, batch, opt.NewSGD(0.01))
		lossAfter := 0.0
		for _, ins := range batch {
			lossAfter += m.Loss(ins.X, ins.Y)
		}
		return lossAfter <= lossBefore+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: conditional independence of SGD iterations (paper §3.3) — a
// model resumed from stored weights + optimizer state produces identical
// updates to one trained without interruption.
func TestQuickProactiveResumability(t *testing.T) {
	f := func(seed int64) bool {
		r1 := rand.New(rand.NewSource(seed))
		r2 := rand.New(rand.NewSource(seed))
		a := NewSVM(2, 1e-3)
		oa := opt.NewAdam(0.05)
		for i := 0; i < 5; i++ {
			step(a, separableBatch(r1, 8), oa)
		}
		// Interrupt: snapshot weights + optimizer, resume on a clone.
		b := a.Clone().(*SVM)
		ob := optimizerCopy(t, oa, len(a.Weights()))
		for i := 0; i < 5; i++ {
			_ = separableBatch(r2, 8) // drain r2 to align streams
		}
		for i := 0; i < 5; i++ {
			batch := separableBatch(r1, 8)
			batchCopy := make([]data.Instance, len(batch))
			copy(batchCopy, batch)
			step(a, batch, oa)
			step(b, batchCopy, ob)
		}
		wa, wb := a.Weights(), b.Weights()
		for i := range wa {
			if math.Abs(wa[i]-wb[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRegularizationShrinksWeights(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	batch := regressionBatch(r, 200, 0.5)
	noReg := NewLinearRegression(2, 0)
	withReg := NewLinearRegression(2, 1.0)
	oa, ob := opt.NewSGD(0.05), opt.NewSGD(0.05)
	for i := 0; i < 300; i++ {
		step(noReg, batch, oa)
		step(withReg, batch, ob)
	}
	n0 := linalg.Norm2(noReg.Weights()[:2])
	n1 := linalg.Norm2(withReg.Weights()[:2])
	if n1 >= n0 {
		t.Fatalf("regularization did not shrink weights: %v vs %v", n1, n0)
	}
}

// TestSinglePartialReduceMatchesReduceSum: Reduce hands a batch's only
// partial straight to the finishing step instead of summing it through
// linalg.ReduceSum. The two must leave the same weights bit for bit after
// Apply — for sparse and dense partials, with a −0.0 entry (which the
// accumulator would turn into +0.0), for the linear family and for MF's
// override, over several steps of a stateful optimizer.
func TestSinglePartialReduceMatchesReduceSum(t *testing.T) {
	negZero := math.Copysign(0, -1)
	randomize := func(r *rand.Rand, w []float64) {
		for i := range w {
			w[i] = r.NormFloat64()
		}
	}
	const n = 7
	cases := []struct {
		name string
		mdl  func() Model
		// reference is the reduce this change replaced, spelled out.
		reference func(m Model, part linalg.Vector, loss float64) linalg.Vector
		dim       int
	}{
		{"svm", func() Model { return NewSVM(9, 1e-2) }, func(m Model, part linalg.Vector, loss float64) linalg.Vector {
			g, _ := m.(*SVM).finishGradient(linalg.ReduceSum(10, []linalg.Vector{part}), loss, n)
			return g
		}, 10},
		{"linreg-noreg", func() Model { return NewLinearRegression(9, 0) }, func(m Model, part linalg.Vector, loss float64) linalg.Vector {
			g, _ := m.(*LinearRegression).finishGradient(linalg.ReduceSum(10, []linalg.Vector{part}), loss, n)
			return g
		}, 10},
		{"mf", func() Model { return NewMF(2, 1, 2, 1e-2, 3) }, func(m Model, part linalg.Vector, loss float64) linalg.Vector {
			return scaleVec(linalg.ReduceSum(10, []linalg.Vector{part}), 1/float64(n))
		}, 10},
	}
	partials := map[string]func(r *rand.Rand) linalg.Vector{
		"sparse": func(r *rand.Rand) linalg.Vector {
			return linalg.NewSparse(10, []int32{0, 3, 4, 9}, []float64{r.NormFloat64(), negZero, r.NormFloat64(), r.NormFloat64()})
		},
		"dense": func(r *rand.Rand) linalg.Vector {
			d := make(linalg.Dense, 10)
			for i := range d {
				d[i] = r.NormFloat64()
			}
			d[2], d[9] = negZero, negZero
			return d
		},
	}
	optimizers := map[string]func() opt.Optimizer{
		"sgd":  func() opt.Optimizer { return opt.NewSGD(0.1) },
		"adam": func() opt.Optimizer { return opt.NewAdam(0.05) },
	}
	for _, c := range cases {
		for pname, mkPart := range partials {
			for oname, mkOpt := range optimizers {
				t.Run(c.name+"/"+pname+"/"+oname, func(t *testing.T) {
					r := rand.New(rand.NewSource(11))
					got, want := c.mdl(), c.mdl()
					if len(got.Weights()) != c.dim {
						t.Fatalf("%s has %d weights, the test assumes %d", c.name, len(got.Weights()), c.dim)
					}
					randomize(r, got.Weights())
					want.SetWeights(got.Weights())
					og, ow := mkOpt(), mkOpt()
					for step := 0; step < 5; step++ {
						part, loss := mkPart(r), r.Float64()
						g, _ := got.Reduce([]linalg.Vector{part.Clone()}, []float64{loss}, n)
						got.Apply(g, og)
						want.Apply(c.reference(want, part.Clone(), loss), ow)
						for i, w := range want.Weights() {
							if math.Float64bits(got.Weights()[i]) != math.Float64bits(w) {
								t.Fatalf("step %d: weight %d = %v (%#x), the summed reduce gives %v (%#x)",
									step, i, got.Weights()[i], math.Float64bits(got.Weights()[i]), w, math.Float64bits(w))
							}
						}
					}
				})
			}
		}
	}
}

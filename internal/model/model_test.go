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

// step is one mini-batch SGD iteration as core.Step takes it: the batch's
// mean gradient, then one optimizer step.
func step(m Model, batch []data.Instance, o opt.Optimizer) {
	g, _ := m.Gradient(batch)
	m.Apply(g, o)
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
	m.Gradient(nil)
}

func TestSVMGradientZeroOutsideMargin(t *testing.T) {
	m := NewSVM(2, 0)
	m.SetWeights([]float64{10, 0, 0})
	// x = (1,0), y = +1 → margin = 10 ≥ 1 → zero gradient
	g, loss := m.Gradient([]data.Instance{{X: linalg.Dense{1, 0}, Y: 1}})
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
	g, _ := m.Gradient(batch)
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
	g, _ := m.Gradient(batch)
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
	g, _ := m.Gradient(batch)
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

// TestGradientMatchesReference: Gradient is the batch's gradient summed
// in batch order, then averaged (and, for the linear family, regularized
// once). The reference spells the sum out in a plain buffer; the two must
// leave the same weights bit for bit after Apply — for sparse and dense
// inputs, with −0.0 features and weights, for the linear family and for
// MF's per-example regularization, over several steps of a stateful
// optimizer.
func TestGradientMatchesReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	const n, dim = 7, 10
	const reg = 1e-2
	linear := func(scale func(s, y float64) (float64, float64), reg float64) func(m Model, batch []data.Instance) (linalg.Vector, float64) {
		return func(m Model, batch []data.Instance) (linalg.Vector, float64) {
			sum := newRefSum(dim)
			var loss float64
			for _, ins := range batch {
				mult, l := scale(m.Predict(ins.X), ins.Y)
				loss += l
				if mult == 0 {
					continue
				}
				switch x := ins.X.(type) {
				case *linalg.Sparse:
					for k, i := range x.Idx {
						sum.add(int(i), mult*x.Val[k])
					}
				case linalg.Dense:
					sum.dense = true
					for i, v := range x {
						sum.add(i, mult*v)
					}
				}
				sum.add(dim-1, mult)
			}
			return sum.mean(len(batch), reg, m.Weights()), loss * (1 / float64(len(batch)))
		}
	}
	linearBatches := map[string]func(r *rand.Rand) []data.Instance{
		"sparse": func(r *rand.Rand) []data.Instance {
			b := make([]data.Instance, n)
			for k := range b {
				b[k] = data.Instance{X: linalg.NewSparse(dim-1, []int32{0, 3, 4, 8}, []float64{r.NormFloat64(), negZero, r.NormFloat64(), r.NormFloat64()}), Y: label(r)}
			}
			return b
		},
		"dense": func(r *rand.Rand) []data.Instance {
			b := make([]data.Instance, n)
			for k := range b {
				d := make(linalg.Dense, dim-1)
				for i := range d {
					d[i] = r.NormFloat64()
				}
				d[2] = negZero
				b[k] = data.Instance{X: d, Y: label(r)}
			}
			return b
		},
	}
	// MF takes 2-hot sparse inputs only: 2 users, 1 item, 2 factors.
	mfBatches := map[string]func(r *rand.Rand) []data.Instance{
		"sparse": func(r *rand.Rand) []data.Instance {
			b := make([]data.Instance, n)
			for k := range b {
				b[k] = data.Instance{X: EncodePair(2, 1, r.Intn(2), 0), Y: 5 * r.Float64()}
			}
			return b
		},
	}
	cases := []struct {
		name string
		mdl  func() Model
		// reference is the model's mean gradient, spelled out.
		reference func(m Model, batch []data.Instance) (linalg.Vector, float64)
		batches   map[string]func(r *rand.Rand) []data.Instance
	}{
		{"svm", func() Model { return NewSVM(dim-1, reg) }, linear(hingeScale, reg), linearBatches},
		{"linreg-noreg", func() Model { return NewLinearRegression(dim-1, 0) }, linear(squaredScale, 0), linearBatches},
		{"mf", func() Model { return NewMF(2, 1, 2, reg, 3) }, func(m Model, batch []data.Instance) (linalg.Vector, float64) {
			mf := m.(*MF)
			sum := newRefSum(dim)
			var loss float64
			for _, ins := range batch {
				u, i, err := mf.pair(ins.X)
				if err != nil {
					t.Fatal(err)
				}
				e := mf.PredictPair(u, i) - ins.Y
				loss += 0.5 * e * e
				w := mf.Weights()
				sum.add(u, e+mf.reg*w[u])
				sum.add(mf.Users+i, e+mf.reg*w[mf.Users+i])
				sum.add(dim-1, e)
				pu, qi := mf.userFactors(u), mf.itemFactors(i)
				fb := mf.Users + mf.Items
				for k := 0; k < mf.Factors; k++ {
					sum.add(fb+u*mf.Factors+k, e*qi[k]+mf.reg*pu[k])
					sum.add(fb+mf.Users*mf.Factors+i*mf.Factors+k, e*pu[k]+mf.reg*qi[k])
				}
			}
			return sum.mean(len(batch), 0, nil), loss * (1 / float64(len(batch)))
		}, mfBatches},
	}
	optimizers := map[string]func() opt.Optimizer{
		"sgd":  func() opt.Optimizer { return opt.NewSGD(0.1) },
		"adam": func() opt.Optimizer { return opt.NewAdam(0.05) },
	}
	for _, c := range cases {
		for input, mkBatch := range c.batches {
			for oname, mkOpt := range optimizers {
				t.Run(c.name+"/"+input+"/"+oname, func(t *testing.T) {
					r := rand.New(rand.NewSource(11))
					got, want := c.mdl(), c.mdl()
					if len(got.Weights()) != dim {
						t.Fatalf("%s has %d weights, the test assumes %d", c.name, len(got.Weights()), dim)
					}
					for i := range got.Weights() {
						got.Weights()[i] = r.NormFloat64()
					}
					got.Weights()[1] = negZero
					want.SetWeights(got.Weights())
					og, ow := mkOpt(), mkOpt()
					for step := 0; step < 5; step++ {
						batch := mkBatch(r)
						g, lossG := got.Gradient(batch)
						ref, lossR := c.reference(want, batch)
						if math.Float64bits(lossG) != math.Float64bits(lossR) {
							t.Fatalf("step %d: loss %v, the reference gives %v", step, lossG, lossR)
						}
						got.Apply(g, og)
						want.Apply(ref, ow)
						for i, w := range want.Weights() {
							if math.Float64bits(got.Weights()[i]) != math.Float64bits(w) {
								t.Fatalf("step %d: weight %d = %v (%#x), the reference gives %v (%#x)",
									step, i, got.Weights()[i], math.Float64bits(got.Weights()[i]), w, math.Float64bits(w))
							}
						}
					}
				})
			}
		}
	}
}

// label is a ±1 label, which the regression cases read as a target.
func label(r *rand.Rand) float64 {
	if r.Intn(2) == 0 {
		return -1
	}
	return 1
}

// refSum is a gradient sum in a plain buffer: each coordinate adds its
// contributions in call order, as the accumulator does, and the mean is
// Sparse over the touched coordinates unless a dense input was added.
type refSum struct {
	buf     []float64
	touched []bool
	dense   bool
}

func newRefSum(dim int) *refSum {
	return &refSum{buf: make([]float64, dim), touched: make([]bool, dim)}
}

func (s *refSum) add(i int, v float64) {
	s.buf[i] += v
	s.touched[i] = true
}

// mean is the sum over n rows times 1/n, plus reg·w on every touched
// coordinate but the intercept (the last).
func (s *refSum) mean(n int, reg float64, w []float64) linalg.Vector {
	inv := 1 / float64(n)
	for i := range s.buf {
		s.buf[i] *= inv
		if reg != 0 && i < len(s.buf)-1 && s.touched[i] {
			s.buf[i] += reg * w[i]
		}
	}
	if s.dense {
		return linalg.Dense(s.buf)
	}
	var idx []int32
	var val []float64
	for i, ok := range s.touched {
		if ok {
			idx, val = append(idx, int32(i)), append(val, s.buf[i])
		}
	}
	return linalg.NewSparse(len(s.buf), idx, val)
}

package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"cdml/internal/data"
	"cdml/internal/linalg"
	"cdml/internal/model"
	"cdml/internal/opt"
)

// modelCase pairs a model factory with a matching batch generator, covering
// the sparse (SVM, MF) and dense (linear regression, k-means) gradient
// paths of a training step.
type modelCase struct {
	name  string
	make  func() model.Model
	batch func(r *rand.Rand, n int) []data.Instance
}

func stepCases() []modelCase {
	const dim = 32
	sparseBatch := func(r *rand.Rand, n int) []data.Instance {
		out := make([]data.Instance, n)
		for k := range out {
			nnz := 3 + r.Intn(4)
			idx := make([]int32, 0, nnz)
			val := make([]float64, 0, nnz)
			seen := map[int32]bool{}
			for len(idx) < nnz {
				i := int32(r.Intn(dim))
				if seen[i] {
					continue
				}
				seen[i] = true
				idx = append(idx, i)
				val = append(val, r.NormFloat64())
			}
			y := 1.0
			if r.Float64() < 0.5 {
				y = -1
			}
			out[k] = data.Instance{X: linalg.NewSparse(dim, idx, val), Y: y}
		}
		return out
	}
	denseBatch := func(r *rand.Rand, n int) []data.Instance {
		out := make([]data.Instance, n)
		for k := range out {
			x := make(linalg.Dense, dim)
			for j := range x {
				x[j] = r.NormFloat64()
			}
			out[k] = data.Instance{X: x, Y: r.NormFloat64()}
		}
		return out
	}
	const users, items = 12, 17
	mfBatch := func(r *rand.Rand, n int) []data.Instance {
		out := make([]data.Instance, n)
		for k := range out {
			u, i := r.Intn(users), r.Intn(items)
			out[k] = data.Instance{
				X: model.EncodePair(users, items, u, i),
				Y: 1 + 4*r.Float64(),
			}
		}
		return out
	}
	const kmDim = 4
	kmBatch := func(r *rand.Rand, n int) []data.Instance {
		out := make([]data.Instance, n)
		for k := range out {
			x := make(linalg.Dense, kmDim)
			for j := range x {
				x[j] = r.NormFloat64() + float64(k%3)*3
			}
			out[k] = data.Instance{X: x}
		}
		return out
	}
	return []modelCase{
		{"svm-sparse", func() model.Model { return model.NewSVM(dim, 1e-3) }, sparseBatch},
		{"linreg-dense", func() model.Model { return model.NewLinearRegression(dim, 1e-3) }, denseBatch},
		{"logreg-sparse", func() model.Model { return model.NewLogisticRegression(dim, 1e-3) }, sparseBatch},
		{"mf", func() model.Model { return model.NewMF(users, items, 3, 1e-3, 5) }, mfBatch},
		{"kmeans", func() model.Model {
			m := model.NewKMeans(3, kmDim)
			r := rand.New(rand.NewSource(2))
			m.Init(kmBatch(r, 9))
			return m
		}, kmBatch},
	}
}

func wantSameWeights(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: weight lengths %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		//lint:allow floateq: bit-identity is the property under test
		if a[i] != b[i] {
			t.Fatalf("%s: weight %d differs: %v vs %v", name, i, a[i], b[i])
		}
	}
}

// TestStepIsGradientThenApply: Step is the model's mean gradient and one
// Apply, spelled out — the same weights and the same loss, bit for bit.
func TestStepIsGradientThenApply(t *testing.T) {
	for _, c := range stepCases() {
		t.Run(c.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(42))
			spelled := c.make()
			stepped := spelled.Clone()
			optA, optS := opt.NewAdam(0.05), opt.NewAdam(0.05)
			for iter := 0; iter < 5; iter++ {
				batch := c.batch(r, 48)
				g, lossA := spelled.Gradient(batch)
				spelled.Apply(g, optA)
				lossS, err := Step(context.Background(), stepped, optS, batch)
				if err != nil {
					t.Fatal(err)
				}
				//lint:allow floateq: bit-identity is the property under test
				if lossA != lossS {
					t.Fatalf("iter %d: loss %v (spelled out) vs %v (Step)", iter, lossA, lossS)
				}
				wantSameWeights(t, c.name, spelled.Weights(), stepped.Weights())
			}
		})
	}
}

// TestStepSingleOptimizerStep checks that a step advances the optimizer
// exactly once per mini-batch — the property that keeps adaptive
// optimizers (Adam moments, FTRL state) on the serial trajectory.
func TestStepSingleOptimizerStep(t *testing.T) {
	c := stepCases()[0]
	r := rand.New(rand.NewSource(3))
	mdl := c.make()
	om := opt.NewAdam(0.05)
	const iters = 6
	for i := 0; i < iters; i++ {
		if _, err := Step(context.Background(), mdl, om, c.batch(r, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if om.Steps() != iters {
		t.Fatalf("optimizer advanced %d steps over %d mini-batches", om.Steps(), iters)
	}
}

// TestStepEmptyBatch checks the no-op path: no step, no error.
func TestStepEmptyBatch(t *testing.T) {
	mdl := model.NewSVM(4, 0)
	om := opt.NewSGD(0.1)
	before := append([]float64(nil), mdl.Weights()...)
	loss, err := Step(context.Background(), mdl, om, nil)
	if err != nil || loss != 0 {
		t.Fatalf("loss=%v err=%v", loss, err)
	}
	wantSameWeights(t, "empty", before, mdl.Weights())
	if om.Steps() != 0 {
		t.Fatalf("optimizer stepped %d times on an empty batch", om.Steps())
	}
}

// TestStepCancelled checks that a cancelled context aborts without
// applying an optimizer step.
func TestStepCancelled(t *testing.T) {
	c := stepCases()[0]
	r := rand.New(rand.NewSource(8))
	mdl := c.make()
	om := opt.NewAdam(0.05)
	before := append([]float64(nil), mdl.Weights()...)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Step(ctx, mdl, om, c.batch(r, 64)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want %v", err, context.Canceled)
	}
	wantSameWeights(t, "cancelled", before, mdl.Weights())
	if om.Steps() != 0 {
		t.Fatalf("optimizer stepped %d times after cancellation", om.Steps())
	}
}

package core

import (
	"context"
	"math/rand"
	"testing"

	"cdml/internal/data"
	"cdml/internal/engine"
	"cdml/internal/linalg"
	"cdml/internal/model"
	"cdml/internal/opt"
)

// modelCase pairs a model factory with a matching batch generator, covering
// the sparse (SVM, MF) and dense (linear regression, k-means) gradient
// paths of the sharded trainer.
type modelCase struct {
	name  string
	make  func() model.Model
	batch func(r *rand.Rand, n int) []data.Instance
}

func parallelCases() []modelCase {
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

// TestShardedUpdateMatchesFusedSingleShard verifies the determinism
// contract's anchor: when the batch fits one shard, ShardedUpdate on a
// multi-worker engine is the fused step spelled out serially — one
// GradientSum over the whole batch, Reduce of that one partial, Apply —
// with the same weights and the same loss, bit for bit.
func TestShardedUpdateMatchesFusedSingleShard(t *testing.T) {
	eng := engine.New(4)
	for _, c := range parallelCases() {
		t.Run(c.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(42))
			fused := c.make()
			sharded := fused.Clone()
			optF, optS := opt.NewAdam(0.05), opt.NewAdam(0.05)
			for iter := 0; iter < 5; iter++ {
				batch := c.batch(r, 48)
				sum, lossSum := fused.GradientSum(batch)
				g, lossF := fused.Reduce([]linalg.Vector{sum}, []float64{lossSum}, len(batch))
				fused.Apply(g, optF)
				lossS, st, err := ShardedUpdate(context.Background(), eng, len(batch), sharded, optS, batch)
				if err != nil {
					t.Fatal(err)
				}
				if st.Shards != 1 {
					t.Fatalf("iter %d: %d shards, want 1", iter, st.Shards)
				}
				//lint:allow floateq: bit-identity is the property under test
				if lossF != lossS {
					t.Fatalf("iter %d: loss %v (fused) vs %v (sharded)", iter, lossF, lossS)
				}
				wantSameWeights(t, c.name, fused.Weights(), sharded.Weights())
			}
		})
	}
}

// TestShardedUpdateIdenticalAcrossWorkerCounts verifies the tentpole
// guarantee: the shard partition depends only on the batch size and shard
// rows, and the reduce runs in fixed shard order, so training is
// bit-identical at any engine worker count.
func TestShardedUpdateIdenticalAcrossWorkerCounts(t *testing.T) {
	const shardRows = 16 // 100-row batches split into 7 shards
	for _, c := range parallelCases() {
		t.Run(c.name, func(t *testing.T) {
			var refWeights []float64
			var refLosses []float64
			for wi, workers := range []int{1, 4, 8} {
				eng := engine.New(workers)
				r := rand.New(rand.NewSource(99))
				mdl := c.make()
				om := opt.NewAdam(0.05)
				var losses []float64
				for iter := 0; iter < 4; iter++ {
					batch := c.batch(r, 100)
					loss, st, err := ShardedUpdate(context.Background(), eng, shardRows, mdl, om, batch)
					if err != nil {
						t.Fatal(err)
					}
					if st.Shards != 7 {
						t.Fatalf("%d shards, want 7", st.Shards)
					}
					losses = append(losses, loss)
				}
				if wi == 0 {
					refWeights = append([]float64(nil), mdl.Weights()...)
					refLosses = losses
					continue
				}
				wantSameWeights(t, c.name, refWeights, mdl.Weights())
				for i := range losses {
					//lint:allow floateq: bit-identity is the property under test
					if losses[i] != refLosses[i] {
						t.Fatalf("workers=%d: loss %d differs: %v vs %v", workers, i, losses[i], refLosses[i])
					}
				}
			}
		})
	}
}

// TestShardedUpdateSingleOptimizerStep checks that a multi-shard update
// advances the optimizer exactly once per mini-batch — the property that
// keeps adaptive optimizers (Adam moments, FTRL state) on the serial
// trajectory.
func TestShardedUpdateSingleOptimizerStep(t *testing.T) {
	c := parallelCases()[0]
	eng := engine.New(4)
	r := rand.New(rand.NewSource(3))
	mdl := c.make()
	om := opt.NewAdam(0.05)
	const iters = 6
	for i := 0; i < iters; i++ {
		if _, st, err := ShardedUpdate(context.Background(), eng, 10, mdl, om, c.batch(r, 64)); err != nil {
			t.Fatal(err)
		} else if st.Shards != 7 {
			t.Fatalf("%d shards, want 7", st.Shards)
		}
	}
	if om.Steps() != iters {
		t.Fatalf("optimizer advanced %d steps over %d mini-batches", om.Steps(), iters)
	}
}

// TestShardedUpdateEmptyBatch checks the no-op path: no step, no error.
func TestShardedUpdateEmptyBatch(t *testing.T) {
	mdl := model.NewSVM(4, 0)
	om := opt.NewSGD(0.1)
	before := append([]float64(nil), mdl.Weights()...)
	loss, st, err := ShardedUpdate(context.Background(), engine.New(2), 8, mdl, om, nil)
	if err != nil || loss != 0 || st.Shards != 0 {
		t.Fatalf("loss=%v stats=%+v err=%v", loss, st, err)
	}
	wantSameWeights(t, "empty", before, mdl.Weights())
	if om.Steps() != 0 {
		t.Fatalf("optimizer stepped %d times on an empty batch", om.Steps())
	}
}

// TestShardedUpdateCancelled checks that a cancelled context aborts without
// applying an optimizer step.
func TestShardedUpdateCancelled(t *testing.T) {
	c := parallelCases()[0]
	r := rand.New(rand.NewSource(8))
	mdl := c.make()
	om := opt.NewAdam(0.05)
	before := append([]float64(nil), mdl.Weights()...)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := ShardedUpdate(ctx, engine.New(2), 8, mdl, om, c.batch(r, 64))
	if err == nil {
		t.Fatal("expected context error")
	}
	wantSameWeights(t, "cancelled", before, mdl.Weights())
	if om.Steps() != 0 {
		t.Fatalf("optimizer stepped %d times after cancellation", om.Steps())
	}
}

func TestNumShardsAndBounds(t *testing.T) {
	cases := []struct {
		n, rows, want int
	}{
		{1, 256, 1}, {256, 256, 1}, {257, 256, 2}, {1000, 256, 4},
		{100, 16, 7}, {5, 0, 1},
	}
	for _, c := range cases {
		if got := numShards(c.n, c.rows); got != c.want {
			t.Fatalf("numShards(%d,%d) = %d, want %d", c.n, c.rows, got, c.want)
		}
	}
	// Bounds tile [0,n) exactly, in order, with near-equal sizes.
	n, shards := 100, 7
	prev := 0
	for s := 0; s < shards; s++ {
		lo, hi := shardBounds(n, shards, s)
		if lo != prev || hi <= lo {
			t.Fatalf("shard %d bounds [%d,%d) after %d", s, lo, hi, prev)
		}
		if size := hi - lo; size < n/shards || size > n/shards+1 {
			t.Fatalf("shard %d size %d unbalanced", s, size)
		}
		prev = hi
	}
	if prev != n {
		t.Fatalf("shards cover [0,%d), want [0,%d)", prev, n)
	}
}

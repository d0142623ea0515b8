package core

import (
	"context"
	"time"

	"cdml/internal/data"
	"cdml/internal/engine"
	"cdml/internal/linalg"
	"cdml/internal/model"
	"cdml/internal/opt"
)

// DefaultGradShardRows is the number of rows per gradient shard of every
// deployment's training step. It is large enough that a typical online
// chunk stays single-shard (no parallelism overhead on the
// latency-sensitive path) while proactive and retraining mini-batches split
// across the worker pool. The shard partition is a pure function of the
// batch size and this constant — never of the engine's worker count — which
// is what keeps seeded runs reproducible across hardware.
const DefaultGradShardRows = 256

// numShards returns the shard count for an n-row mini-batch: a pure
// function of the batch size and the shard rows, never of the
// engine parallelism — the root of the sharded path's determinism
// guarantee.
//
//cdml:hotpath
func numShards(n, shardRows int) int {
	if shardRows <= 0 {
		shardRows = DefaultGradShardRows
	}
	s := (n + shardRows - 1) / shardRows
	if s < 1 {
		s = 1
	}
	return s
}

// shardBounds returns the half-open row range [lo, hi) of shard s out of
// shards, splitting n rows into contiguous, maximally balanced runs.
//
//cdml:hotpath
func shardBounds(n, shards, s int) (int, int) {
	return s * n / shards, (s + 1) * n / shards
}

// ShardStats reports how one sharded update executed.
//
//lint:allow deadexport: the second result of ShardedUpdate, which benchmark/ and bench_test.go call and discard; a result type callers cannot name is worse than one they do not
type ShardStats struct {
	// Shards is the number of partial-gradient shards the batch split into.
	Shards int
	// Reduce is the wall-clock time of the ordered reduce plus the
	// optimizer step.
	Reduce time.Duration
}

// ShardedUpdate runs one data-parallel mini-batch SGD iteration: the batch
// splits into contiguous shards, each shard's partial gradient is computed
// concurrently on the engine (model.GradientSum only reads the weights),
// the partials are reduced in fixed shard order into the mean gradient,
// and a single optimizer step is applied. It returns the mean loss before
// the step.
//
// Determinism: the shard partition depends only on len(batch) and
// shardRows, and the reduce order is the shard order, so the updated
// weights are bit-identical across engine worker counts. This is the one
// composition of the model's GradientSum, Reduce and Apply: every training
// step in the tree goes through it.
//
// Cancelling ctx stops dispatching shards and returns the context error
// without applying a step.
//
//cdml:deterministic
func ShardedUpdate(ctx context.Context, eng *engine.Engine, shardRows int, mdl model.Model, om opt.Optimizer, batch []data.Instance) (float64, ShardStats, error) {
	n := len(batch)
	if n == 0 {
		return 0, ShardStats{}, nil
	}
	shards := numShards(n, shardRows)
	type partial struct {
		g    linalg.Vector
		loss float64
	}
	parts, err := engine.MapCtx(ctx, eng, shards, func(s int) (partial, error) {
		lo, hi := shardBounds(n, shards, s)
		g, loss := mdl.GradientSum(batch[lo:hi])
		return partial{g: g, loss: loss}, nil
	})
	if err != nil {
		return 0, ShardStats{Shards: shards}, err
	}
	start := time.Now() //lint:allow determinism: reduce timing feeds ShardStats instrumentation, never the weights
	gs := make([]linalg.Vector, shards)
	losses := make([]float64, shards)
	for s, p := range parts {
		gs[s], losses[s] = p.g, p.loss
	}
	g, meanLoss := mdl.Reduce(gs, losses, n)
	mdl.Apply(g, om)
	return meanLoss, ShardStats{Shards: shards, Reduce: time.Since(start)}, nil //lint:allow determinism: reduce timing feeds ShardStats instrumentation, never the weights
}

// parallelUpdate is the deployment's training step: ShardedUpdate on the
// configured engine at DefaultGradShardRows plus the shard/reduce
// instrumentation. A step taken (ShardedUpdate fails only before Apply)
// moves the optimizer past the published snapshot until the next publish.
//
//cdml:locked mu — training helper; every caller runs under d.mu
func (d *Deployer) parallelUpdate(mdl model.Model, om opt.Optimizer, batch []data.Instance) error {
	_, st, err := ShardedUpdate(d.ctx, d.cfg.Engine, DefaultGradShardRows, mdl, om, batch)
	if err == nil {
		d.optmAhead = true
	}
	if st.Shards > 0 {
		d.obs.gradShards.Add(int64(st.Shards))
		d.obs.gradUpdates.Inc()
		d.obs.reduceLatency.Observe(st.Reduce)
	}
	return err
}

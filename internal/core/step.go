package core

import (
	"context"

	"cdml/internal/data"
	"cdml/internal/engine"
	"cdml/internal/linalg"
	"cdml/internal/model"
	"cdml/internal/opt"
)

// Step runs one mini-batch SGD iteration, the paper's update contract
// (§4.4): the model's mean gradient of the batch, then a single optimizer
// step. It returns the mean loss before the step. An empty batch is a
// no-op. A cancelled ctx returns its error without stepping. Every
// training step in the tree — online, proactive, retraining, initial
// training and the experiments — goes through it.
//
//cdml:deterministic
func Step(ctx context.Context, mdl model.Model, om opt.Optimizer, batch []data.Instance) (float64, error) {
	_, loss, err := step(ctx, mdl, om, batch)
	return loss, err
}

// step is Step that also returns the gradient it applied: the coordinates
// the optimizer changed are exactly the gradient's (all of them when it is
// dense). The gradient is nil when nothing was stepped.
//
//cdml:deterministic
func step(ctx context.Context, mdl model.Model, om opt.Optimizer, batch []data.Instance) (linalg.Vector, float64, error) {
	if len(batch) == 0 {
		return nil, 0, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	g, loss := mdl.Gradient(batch)
	mdl.Apply(g, om)
	return g, loss, nil
}

// DefaultGradShardRows is the shard size callers of ShardedUpdate pass.
//
// Deprecated: steps are not sharded. Only benchmark/layers.go names it; the
// next change that may edit benchmark/ (ROADMAP item 6) deletes it with
// ShardedUpdate.
const DefaultGradShardRows = 256

// ShardedUpdate is Step; the engine and the shard size are ignored.
//
// Deprecated: use Step. benchmark/layers.go is its one caller; the next
// change that may edit benchmark/ (ROADMAP item 6) deletes it.
func ShardedUpdate(ctx context.Context, _ *engine.Engine, _ int, mdl model.Model, om opt.Optimizer, batch []data.Instance) (float64, struct{}, error) {
	loss, err := Step(ctx, mdl, om, batch)
	return loss, struct{}{}, err
}

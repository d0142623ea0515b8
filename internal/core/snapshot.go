package core

import (
	"time"

	"cdml/internal/eval"
	"cdml/internal/model"
	"cdml/internal/opt"
	"cdml/internal/pipeline"
)

// Snapshot is one immutable published deployment state: the transform-only
// pipeline clone, the cloned model weights, and the precomputed statistics
// as of publish time. The writer (Ingest, Run, RestoreCheckpoint) builds a
// fresh Snapshot at the end of every deployment tick and publishes it with
// a single atomic pointer store; readers (Predict, Stats) load the pointer
// and never synchronize with the writer — the Velox pattern (Crankshaw et
// al., CIDR 2015) of serving from immutable model snapshots while training
// continues.
//
// Nothing reachable from a Snapshot is ever mutated after publish, which is
// the entire memory-safety argument: a reader holding an old snapshot keeps
// a fully consistent (pipeline, model, stats) triple even while the writer
// retrains, restores a checkpoint, or publishes newer versions. The
// snapfreeze analyzer enforces this structurally from the marker below:
// every named struct reachable from here through pointers, slices, or maps
// is immutable outside constructors and Clone/Snapshot methods (the one
// sanctioned exception is eval.CostClock, which is //cdml:mutable).
//
//cdml:frozen
type Snapshot struct {
	pipe *pipeline.Pipeline
	mdl  model.Model
	// optm is the optimizer state cloned at publish time. It is not needed
	// for serving, but it makes a Snapshot a complete resume point: the
	// checkpoint path (auto-checkpointing and GET .../checkpoint) encodes
	// snapshots without ever touching the writer mutex, so a slow
	// checkpoint consumer can never stall Ingest.
	optm    opt.Optimizer
	version uint64
	builtAt time.Time
	metric  float64
	stats   Result
	// traceID is the trace id of the tick that produced this snapshot ("" for
	// non-tick publishes: the initial snapshot, Run's final publish, restores).
	// The background checkpoint writer tags its span tree with it, so an
	// end-to-end trace reaches all the way into the fsync.
	traceID string
}

// Version returns the monotonically increasing publish sequence number
// (1 is the initial snapshot built by NewDeployer).
func (s *Snapshot) Version() uint64 { return s.version }

// BuiltAt returns when the snapshot was published.
func (s *Snapshot) BuiltAt() time.Time { return s.builtAt }

// Metric returns the cumulative prequential error at publish time.
func (s *Snapshot) Metric() float64 { return s.metric }

// current returns the published snapshot. It is the entirety of the read
// path's synchronization: one atomic pointer load, no locks shared with the
// training writer.
//
//cdml:hotpath
func (d *Deployer) current() *Snapshot { return d.snap.Load() }

// Current exposes the published snapshot for status endpoints (version,
// build time, staleness).
func (d *Deployer) Current() *Snapshot { return d.snap.Load() }

// freezeSeries returns a read-only view of a writer-owned curve using a
// capped slice: the writer only ever appends, and with cap == len the
// append after a capacity grow or in-place extension writes indices ≥ len —
// memory the frozen view can never reach — so readers iterate the view
// without racing the writer.
func freezeSeries(s *eval.Series) *eval.Series {
	nx, ny := len(s.Xs), len(s.Ys)
	return &eval.Series{Name: s.Name, Xs: s.Xs[:nx:nx], Ys: s.Ys[:ny:ny]}
}

// publish builds the next snapshot from the deployed pipeline, model, and
// accumulated result and atomically swaps it in. Callers must hold the
// writer serialization (d.mu for live use; NewDeployer and Run are
// single-threaded by construction). Publishing is O(stateful components +
// model dim) — the deep copies run once per tick, never per query.
//
//cdml:locked mu — the caller provides the writer serialization documented above
func (d *Deployer) publish() {
	res := d.liveResult()
	d.publishSeq++
	snap := &Snapshot{
		pipe:    d.pipe.Snapshot(),
		mdl:     d.mdl.Clone(),
		optm:    d.optm.Clone(),
		version: d.publishSeq,
		builtAt: time.Now(),
		metric:  d.cfg.Metric.Value(),
		// Consume the stashed tick trace id (set by endTick) so only the
		// publish that follows a tick inherits it — never a restore or the
		// initial publish.
		traceID: d.lastTickTraceID,
	}
	d.lastTickTraceID = ""
	// Precompute the Stats() answer so readers return it without touching
	// writer-owned state: shallow-copy the accumulating result, freeze the
	// curves, and resolve the derived fields as of this publish.
	st := *res
	st.ErrorCurve = freezeSeries(res.ErrorCurve)
	st.CostCurve = freezeSeries(res.CostCurve)
	st.FinalError = snap.metric
	st.AvgError = st.ErrorCurve.Mean()
	st.MatStats = d.cfg.Store.Stats()
	snap.stats = st //lint:allow snapfreeze: pre-publication construction — snap is unshared until the Store below
	d.snap.Store(snap)
	d.obs.snapshotPublishes.Inc()
	// Hand the snapshot to the auto-checkpoint loop (non-blocking: a due
	// checkpoint is skipped, never waited on, when a write is in flight).
	if d.ckpt != nil {
		d.ckpt.observePublish(snap)
	}
}

package core

import (
	"time"

	"cdml/internal/model"
	"cdml/internal/opt"
	"cdml/internal/pipeline"
)

// Snapshot is one immutable published deployment state: the transform-only
// pipeline clone, a copy of the model weights and of the optimizer, and the
// precomputed statistics as of publish time — the whole resume point (§3.3),
// so every published version can be encoded. The writer (Ingest, Run,
// SnapshotSink().Apply) builds a fresh Snapshot at the end of every
// deployment tick and publishes it with a single atomic pointer store;
// readers (Predict, Stats) load the pointer and never take a lock the writer
// holds — the Velox pattern (Crankshaw et al., CIDR 2015) of serving from
// immutable model snapshots while training continues.
//
// Nothing reachable from a Snapshot's pipeline or statistics is ever
// mutated after publish. The snapfreeze analyzer enforces this structurally
// from the marker below: every named struct reachable from here through
// pointers, slices, or maps is immutable outside constructors and
// Clone/Snapshot methods (the sanctioned exceptions, //cdml:mutable, are
// eval.CostClock and weightBuf).
//
// The weights and the optimizer are the one exception, by design (DESIGN.md
// §5l). A publish does not clone them: it rewrites one of at most ringSize
// recycled buffers (buf) with the deployed weights and optimizer slots. A
// reader of either pins the snapshot for the length of the read
// (Deployer.pin), and the writer rewrites a buffer only under d.mu, while no
// reader holds a pin and while it is not the published snapshot's. A pinned
// snapshot's weights and slots are as fixed as its pipeline. What is encoded
// is a copy taken under a pin (Current), which owns its memory (buf is nil)
// and can be held as long as anyone likes.
//
//cdml:frozen
type Snapshot struct {
	pipe *pipeline.Pipeline
	mdl  model.Model
	// optm is the optimizer exactly as of this snapshot's publish, nil when
	// the deployment's optimizer is of a kind with no encoding.
	optm opt.Optimizer
	// buf is the recycled buffer mdl and optm live in, nil when the snapshot
	// owns them.
	buf     *weightBuf
	version uint64
	builtAt time.Time
	metric  float64
	stats   Result
	// traceID is the trace id of the tick that produced this snapshot ("" for
	// non-tick publishes: the initial snapshot, restores).
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

// Published returns the published snapshot as the read path sees it — one
// atomic load, never a lock — for callers that want its Version, BuiltAt or
// Metric (status and ack handlers). Its weights may be rewritten once a newer
// version is published; use Current for a snapshot to encode.
func (d *Deployer) Published() *Snapshot { return d.current() }

// Current returns the published snapshot as one that owns its weights and
// optimizer — the snapshot to hand to WriteCheckpointFile or Frame, which
// encode it with no lock held. A snapshot served from a ring buffer is
// pinned for the length of one copy of its weights and slots; Current never
// takes the writer lock.
func (d *Deployer) Current() *Snapshot {
	s := d.pin()
	defer unpin(s)
	if s.buf == nil {
		return s
	}
	c := *s
	c.mdl, c.optm, c.buf = s.mdl.Clone(), opt.Copy(s.optm, nil), nil
	return &c
}

// publish builds the next snapshot from the deployed pipeline, model,
// optimizer and accumulated result and atomically swaps it in. Callers hold
// d.mu (NewDeployer publishes before the deployment is shared). Publishing is
// O(stateful components + model dim) and O(1) in uptime — one pipeline
// snapshot and one copy of the weights and the optimizer slots into a
// recycled ring buffer (weightRing.take) per tick, never per query. It
// encodes nothing: the checkpoint trigger only counts it.
//
//cdml:locked mu — every caller but the constructor holds d.mu
func (d *Deployer) publish() {
	res := d.result
	var published *weightBuf
	if p := d.current(); p != nil {
		published = p.buf
	}
	mdl, optm, buf := d.ring.take(d.mdl, d.optm, published)
	var traceID string
	if d.tickSpan != nil {
		// Only a publish inside a tick carries its trace id — never a
		// restore or the initial publish.
		traceID = d.tickSpan.TraceID
	}
	d.publishSeq++
	snap := &Snapshot{
		pipe:    d.pipe.Snapshot(),
		mdl:     mdl,
		optm:    optm,
		buf:     buf,
		version: d.publishSeq,
		builtAt: time.Now(),
		metric:  d.cfg.Metric.Value(),
		traceID: traceID,
	}
	// Precompute the Stats() answer so readers return it without touching
	// writer-owned state: shallow-copy the accumulating result, freeze the
	// curves, and resolve the derived fields as of this publish.
	st := *res
	st.ErrorCurve = res.ErrorCurve.View()
	st.CostCurve = res.CostCurve.View()
	st.FinalError = snap.metric
	st.AvgError = st.ErrorCurve.Mean()
	st.RecentLoss, st.RecentCount = d.recent.Value(), d.recent.Count()
	st.MatStats = d.cfg.Store.Stats()
	snap.stats = st //lint:allow snapfreeze: pre-publication construction — snap is unshared until the Store below
	d.snap.Store(snap)
	d.obs.snapshotPublishes.Inc()
	if d.ckpt != nil {
		d.ckpt.published()
	}
}

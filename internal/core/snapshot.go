package core

import (
	"errors"
	"fmt"
	"time"

	"cdml/internal/model"
	"cdml/internal/obs"
	"cdml/internal/opt"
	"cdml/internal/pipeline"
)

// Snapshot is one immutable published deployment state: the transform-only
// pipeline clone, a copy of the model weights, and the precomputed
// statistics as of publish time — everything a reader needs, and by default
// nothing a reader does not (the optimizer is resume state, see resume). The
// writer (Ingest, Run, SnapshotSink().Apply) builds a fresh Snapshot at the
// end of every deployment tick and publishes it with a single atomic
// pointer store; readers (Predict, Stats) load the pointer and never take a
// lock the writer holds — the Velox pattern (Crankshaw et al., CIDR 2015)
// of serving from immutable model snapshots while training continues.
//
// Nothing reachable from a Snapshot's pipeline or statistics is ever
// mutated after publish. The snapfreeze analyzer enforces this structurally
// from the marker below: every named struct reachable from here through
// pointers, slices, or maps is immutable outside constructors and
// Clone/Snapshot methods (the sanctioned exceptions, //cdml:mutable, are
// eval.CostClock and weightBuf).
//
// The weights are the one exception, by design (DESIGN.md §5l). A publish
// does not clone the model: it rewrites one of at most ringSize recycled
// buffers (buf) with the deployed weights. Two rules keep that invisible:
//
//   - Pin rule. A reader of the weights pins the snapshot for the length of
//     the read (Deployer.pin), and the writer rewrites a buffer only under
//     d.mu, while no reader holds a pin and while it is not the published
//     snapshot's. A pinned snapshot's weights are as fixed as its pipeline.
//   - Private-copy rule. A snapshot that can be encoded owns its weights
//     (buf is nil): withResume, the one place resume state enters a
//     snapshot, clones shared weights. Checkpoints, frames, Current and
//     replicas hold such snapshots as long as they like and never pin.
//
//cdml:frozen
type Snapshot struct {
	pipe *pipeline.Pipeline
	mdl  model.Model
	// buf is the recycled buffer mdl lives in, nil when the snapshot owns
	// its weights (see the pin and private-copy rules above).
	buf *weightBuf
	// resume is the resume state: the optimizer exactly as of this snapshot's
	// publish, already encoded as the optimizer section of a snapshot
	// payload (opt.Encode), or nil. Bytes, not an optimizer: capturing
	// it is one scan under d.mu that writes the section's non-zero
	// coordinates (~90 KB for the URL deployment's two Adam slots, where a
	// clone allocated and copied 512 KB), and encoding the snapshot later
	// appends it as it is. Serving never reads it, so a snapshot carries it
	// only once something that encodes it — the checkpoint writer or an
	// on-demand consumer — has asked (see resumePoint). It is never
	// attached to a published Snapshot value: completing one builds a new
	// value that shares pipe and mdl and is swapped in at the same version. A
	// snapshot without it serves and reports like any other and refuses to
	// encode (ErrResumeUnavailable).
	resume  []byte
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
// Metric (status and ack handlers). It may carry no resume state; use
// Current for a snapshot to encode.
func (d *Deployer) Published() *Snapshot { return d.current() }

// ErrResumeUnavailable reports that the published snapshot cannot be
// completed into a resume point right now: a tick failed after it had
// stepped the optimizer, so the writer's optimizer is ahead of the
// published weights, and pairing the two would checkpoint a state the
// deployment was never in. The next successful tick publishes a consistent
// pair and clears the condition; the last durable checkpoint stays valid
// throughout.
var ErrResumeUnavailable = errors.New("core: resume state unavailable until the next publish (a failed tick left the optimizer ahead of the published snapshot)")

// Current returns the published snapshot as a complete resume point — the
// snapshot to hand to WriteCheckpointFile or Frame. When the published
// snapshot carries no resume state yet, Current attaches it (see
// resumePoint: d.mu for the length of one scan of the optimizer, so a call
// waits out at most the tick in flight). In the failed-tick window described
// at ErrResumeUnavailable it returns the published snapshot as it is, whose
// Frame reports that error.
func (d *Deployer) Current() *Snapshot {
	s, _ := d.resumePoint(d.obs.resumeOnDemand, nil)
	return s
}

// resumePoint is the resume-state rule: it returns the published snapshot
// with the optimizer section attached, encoding it now if nobody has yet.
// Every snapshot that is encoded comes through here — the cadence
// checkpoint, CheckpointNow, FrameSince (behind GET .../snapshot and
// replication), Current; cause counts a capture, and sp, when non-nil, gets
// the capture's d.mu hold as a "resume" child.
//
// The pairing rule: resume state attached to version V must be the
// optimizer exactly as of publish V. The optimizer only moves inside ticks,
// under d.mu, and every successful tick ends in a publish, so with d.mu
// held the live optimizer is the one of the published version — unless a
// tick failed after stepping it, which optmAhead records; then the answer
// is ErrResumeUnavailable rather than V's weights with a later optimizer.
// d.mu is held for one scan of the optimizer's slots (withResume), never
// across the encode of a payload or any IO. The completed snapshot replaces
// the published one at the same version, so the scan is paid once per
// version however many consumers ask.
func (d *Deployer) resumePoint(cause *obs.Counter, sp *obs.Span) (*Snapshot, error) {
	if s := d.current(); s.resume != nil {
		return s, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.current()
	if s.resume != nil {
		return s, nil
	}
	if d.optmAhead {
		return s, ErrResumeUnavailable
	}
	defer sp.StartChild("resume").Finish()
	c, err := d.withResume(s, cause)
	if err != nil {
		return s, err
	}
	d.snap.Store(c)
	return c, nil
}

// withResume returns a copy of s that carries the live optimizer's encoded
// section — the one place resume state enters a snapshot; cause is the
// counter of who asked. The section is one allocation of its exact size
// (opt.Encode scans each slot once to size it); nothing of the optimizer is
// retained. A copy that can be encoded owns its weights, so weights s shares
// with the ring are cloned (the private-copy rule). s itself is not written:
// it may already be published. The caller holds the writer
// serialization and has established the pairing rule (no step since the
// publish of s). The only failure is an optimizer type of the caller's own,
// which has no encoding.
//
//cdml:locked mu
func (d *Deployer) withResume(s *Snapshot, cause *obs.Counter) (*Snapshot, error) {
	resume, err := opt.Encode(d.optm)
	if err != nil {
		return nil, fmt.Errorf("core: capturing resume state: %w", err)
	}
	c := *s
	c.resume = resume
	if c.buf != nil {
		c.mdl, c.buf = s.mdl.Clone(), nil
	}
	cause.Inc()
	return &c, nil
}

// publish builds the next snapshot from the deployed pipeline, model, and
// accumulated result and atomically swaps it in. Callers hold d.mu
// (NewDeployer publishes before the deployment is shared). Publishing is
// O(stateful components + model dim) and O(1) in uptime — one pipeline
// snapshot and one weight copy into a recycled ring buffer (weightRing.take)
// per tick, never per query. It encodes nothing: the checkpoint trigger only
// counts it, and whatever encodes the snapshot completes it (resumePoint).
//
//cdml:locked mu — every caller but the constructor holds d.mu
func (d *Deployer) publish() {
	res := d.result
	var published *weightBuf
	if p := d.current(); p != nil {
		published = p.buf
	}
	mdl, buf := d.ring.take(d.mdl, published)
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
	d.optmAhead = false
	d.obs.snapshotPublishes.Inc()
	if d.ckpt != nil {
		d.ckpt.published()
	}
}

package core

import (
	"bytes"
	"fmt"

	"cdml/internal/flat"
	"cdml/internal/model"
	"cdml/internal/opt"
	"cdml/internal/pipeline"
	"cdml/internal/snapstream"
)

// A snapshot payload is the deployed state — model weights, optimizer state,
// and every stateful pipeline component's statistics — so a deployment can
// resume in a new process exactly where it stopped. The conditional
// independence of SGD iterations (§3.3) makes this sound: the next proactive
// training needs only the model and optimizer state, and the pipeline
// statistics are carried the same way warm starting carries them within a
// process. Ticks are the recovery grain; mid-tick progress is by design not
// captured.
//
// This file is also the one bridge between a Deployer and the frames its
// state moves in. State leaves one way — the frame of the published
// snapshot as Current copies it: Snapshot.Frame for checkpoint files,
// FrameSince for GET .../snapshot and replica polls — and enters one way,
// SnapshotSink().Apply: recovery, replicas and POST .../restore.
//
// The chunk store is not part of the payload, and neither is its index,
// which lives in memory: a deployment restored in a new process samples from
// the chunks it has replayed or ingested since, not from the history the
// checkpointed one had stored.

// payloadTag opens every snapshot payload this code writes; anything that
// does not start with it is refused (decodePayload). It predates the frame
// every payload now travels in, whose magic says the same, and stays because
// dropping it would change the bytes of every checkpoint file.
const payloadTag = "CDMLSNP2"

// The snapshot payload (DESIGN.md §5n) — what a checkpoint file, a restore
// body and a replica frame carry:
//
//	"CDMLSNP2" | model section | optimizer section | pipeline section
//
// each spelled in internal/flat by the package that owns the state
// (model.NewSection, opt.Encode, pipeline.AppendState). Equal state
// is equal bytes: no map is walked in map order and every []float64 is a
// zero-skipping float block.

// payload encodes the snapshot's resume state into one allocation of exactly
// the payload's size: the model section from the weights, the optimizer
// section from the optimizer as of publish, the pipeline section from the
// immutable statistics. It needs no synchronization and may run concurrently
// with the training writer, on a snapshot that owns its memory (Current); a
// ring-backed one from Published may be rewritten meanwhile and is refused
// before anything is encoded.
func (s *Snapshot) payload() ([]byte, error) {
	if s.buf != nil {
		return nil, fmt.Errorf("core: encoding snapshot version %d: its weights are the writer's ring buffer; encode Deployer.Current()", s.version)
	}
	if s.optm == nil {
		return nil, fmt.Errorf("core: encoding snapshot version %d: the deployment's optimizer has no encoding", s.version)
	}
	mdl, err := model.NewSection(s.mdl)
	if err != nil {
		return nil, fmt.Errorf("core: checkpointing model: %w", err)
	}
	optm, err := opt.Encode(s.optm)
	if err != nil {
		return nil, fmt.Errorf("core: checkpointing optimizer: %w", err)
	}
	b := make([]byte, 0, len(payloadTag)+mdl.Size()+len(optm)+s.pipe.StateSize())
	b = append(mdl.AppendTo(append(b, payloadTag...)), optm...)
	if b, err = s.pipe.AppendState(b); err != nil {
		return nil, fmt.Errorf("core: checkpointing pipeline: %w", err)
	}
	return b, nil
}

// decodePayload reads a snapshot payload into a model, an optimizer and a
// pipeline of this deployment's configuration. The bytes come from files,
// restore bodies and other servers: one that does not open with payloadTag
// is refused by name before anything is read from it, the model section
// must describe the deployed model's kind, shape and regularizer exactly
// (model.DecodeSection, which bounds every count by the deployed model's
// weights before it sizes anything), the optimizer section must be the
// deployed optimizer's kind with slots no longer than the weights, and the
// sections must fill the payload exactly.
//
//cdml:locked mu — reads the deployed model and the optimizer's kind
func (d *Deployer) decodePayload(payload []byte) (model.Model, opt.Optimizer, *pipeline.Pipeline, error) {
	rest, ok := bytes.CutPrefix(payload, []byte(payloadTag))
	if !ok {
		return nil, nil, nil, fmt.Errorf("core: restoring checkpoint: payload does not open with %q: not a snapshot payload of this format", payloadTag)
	}
	r := flat.NewReader(rest)
	mdl, err := model.DecodeSection(r, d.mdl)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: restoring model: %w", err)
	}
	om, err := opt.DecodeSection(r, len(d.mdl.Weights()))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: restoring optimizer: %w", err)
	}
	pipe := d.cfg.NewPipeline()
	if err = pipe.LoadState(r); err == nil {
		err = r.Close()
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: restoring pipeline: %w", err)
	}
	if om.Name() != d.optm.Name() {
		return nil, nil, nil, fmt.Errorf("core: checkpoint optimizer %s does not match deployment %s", om.Name(), d.optm.Name())
	}
	return mdl, om, pipe, nil
}

// The interface assertion documents which bundled components participate
// in checkpoints.
var (
	_ pipeline.Persistent = (*pipeline.Imputer)(nil)
	_ pipeline.Persistent = (*pipeline.StandardScaler)(nil)
	_ pipeline.Persistent = (*pipeline.MinMaxScaler)(nil)
	_ pipeline.Persistent = (*pipeline.OneHotEncoder)(nil)
	_ pipeline.Persistent = (*pipeline.StdClipper)(nil)
)

// Frame encodes the snapshot into one versioned snapstream frame, with no
// lock held. Frame a snapshot from Deployer.Current: one from Published may
// share the writer's ring buffer and is refused.
func (s *Snapshot) Frame() (snapstream.Frame, error) {
	payload, err := s.payload()
	if err != nil {
		return snapstream.Frame{}, err
	}
	return snapstream.Frame{Version: s.version, Payload: payload}, nil
}

// FrameSince frames the published snapshot (Current) when it is newer than
// since; ok=false otherwise (the poll idle case, one atomic load). since 0
// always frames it: that is the download POST .../restore takes.
func (d *Deployer) FrameSince(since uint64) (snapstream.Frame, bool, error) {
	if d.current().version <= since {
		return snapstream.Frame{}, false, nil
	}
	f, err := d.Current().Frame()
	if err != nil {
		return snapstream.Frame{}, false, err
	}
	return f, true, nil
}

// snapshotSink swaps incoming frames into the deployer.
type snapshotSink struct{ d *Deployer }

// Apply decodes the frame's payload in full, then installs it and publishes
// it as one atomic snapshot swap: a concurrent Predict serves either the full
// prior state or the full restored state, and a refused payload leaves the
// serving snapshot and the writer's state exactly as they were. The version
// only moves forward. The restored snapshot is published at the frame's
// version when that is newer than the published snapshot's — or equal to it
// while the published snapshot is still the initial one, version 1 — so
// recovery and replication keep "version v means v-1 completed ticks" and
// the checkpoint writer's duplicate suppression sees the next tick as new.
// Any other frame is published at the next version: a live restore of an
// older state, or a primary that came back lower, never moves the version
// behind commits the ingest log has already recorded. The installed state
// is a model of the deployed one's shape (decodePayload), so the ring keeps
// its buffers and marks them stale everywhere.
func (k snapshotSink) Apply(f snapstream.Frame) error {
	d := k.d
	d.mu.Lock()
	defer d.mu.Unlock()
	mdl, om, pipe, err := d.decodePayload(f.Payload)
	if err != nil {
		return err
	}
	d.mdl, d.optm, d.pipe = mdl, om, pipe
	d.ring.markAll()
	if f.Version > d.publishSeq || (f.Version == 1 && d.publishSeq == 1) {
		d.publishSeq = f.Version - 1 // publish() adds one
	}
	d.publish()
	return nil
}

// SnapshotSink returns the deployer's frame sink: checkpoint recovery,
// HTTP restore, and replica swaps all apply frames through it.
func (d *Deployer) SnapshotSink() snapshotSink { return snapshotSink{d: d} }

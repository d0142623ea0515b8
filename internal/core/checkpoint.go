package core

import (
	"bytes"
	"fmt"
	"io"

	"cdml/internal/flat"
	"cdml/internal/model"
	"cdml/internal/opt"
	"cdml/internal/pipeline"
)

// Checkpoint serializes the deployed state — model weights, optimizer
// state, and every stateful pipeline component's statistics — so a
// deployment can resume in a new process exactly where it stopped. The
// conditional independence of SGD iterations (§3.3) makes this sound: the
// next proactive training needs only the model and optimizer state, and
// the pipeline statistics are carried the same way warm starting carries
// them within a process.
//
// Checkpoint encodes the published snapshot — the state as of the last
// completed tick. The only lock it shares with the writer is d.mu for the
// length of one scan of the optimizer, and only when the published snapshot
// does not carry resume state yet (resumePoint): the call waits out at most
// the tick in flight and delays the next by at most that scan. The encode
// and the write to w run from immutable state with no lock held, so an
// arbitrarily slow consumer (a stalled HTTP checkpoint client, a saturated
// disk) can never block Ingest. Mid-tick progress is by design not
// captured; ticks are the recovery grain. In the failed-tick window the
// answer is ErrResumeUnavailable and nothing is written.
//
// The chunk store is not part of the checkpoint, and neither is its index,
// which lives in memory: a deployment restored in a new process samples from
// the chunks it has replayed or ingested since, not from the history the
// checkpointed one had stored.
func (d *Deployer) Checkpoint(w io.Writer) error {
	s, err := d.resumePoint()
	if err != nil {
		return err
	}
	return s.encodeTo(w)
}

// payloadTag opens every snapshot payload this code writes. It lives in the
// payload, not in the CDMLCKP1 frame around it, because POST .../restore and
// GET .../checkpoint move a bare payload with no frame header; anything that
// does not start with it is refused (decodePayload).
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
// the payload's size: the model section from the immutable weights, the
// optimizer section as captured at publish, the pipeline section from the
// immutable statistics. Snapshots are immutable, so this needs no
// synchronization and may run concurrently with the training writer. A
// snapshot published without resume state has no optimizer section and says
// so before anything is encoded.
func (s *Snapshot) payload() ([]byte, error) {
	if s.resume == nil {
		return nil, fmt.Errorf("core: encoding snapshot version %d: %w", s.version, ErrResumeUnavailable)
	}
	mdl, err := model.NewSection(s.mdl)
	if err != nil {
		return nil, fmt.Errorf("core: checkpointing model: %w", err)
	}
	b := make([]byte, 0, len(payloadTag)+mdl.Size()+len(s.resume)+s.pipe.StateSize())
	b = append(mdl.AppendTo(append(b, payloadTag...)), s.resume...)
	if b, err = s.pipe.AppendState(b); err != nil {
		return nil, fmt.Errorf("core: checkpointing pipeline: %w", err)
	}
	return b, nil
}

// encodeTo writes the snapshot's payload to w in one Write.
func (s *Snapshot) encodeTo(w io.Writer) error {
	b, err := s.payload()
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("core: writing checkpoint: %w", err)
	}
	return nil
}

// RestoreCheckpoint loads state written by Checkpoint into this deployer.
// The deployer must have been built from the same Config (same model
// shape, optimizer kind, and pipeline layout); mismatches are reported as
// errors.
func (d *Deployer) RestoreCheckpoint(r io.Reader) error {
	payload, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("core: reading checkpoint: %w", err)
	}
	return d.restoreCheckpointAt(payload, 0)
}

// restoreCheckpointAt is RestoreCheckpoint over the payload's bytes, with an
// optional snapshot version to resume the publish sequence at. The payload
// carries no version — checkpoint *files* do, in their frame header — so
// RecoverFromDir passes the header version here and the restored state is
// republished as exactly that version. That keeps two invariants across a
// process restart: snapshot version v still means v-1 completed ticks
// (callers derive the resume position from it), and the auto-checkpoint
// manager — whose duplicate suppression tracks the newest durable version
// — sees the very next tick as newer than the recovered checkpoint instead
// of silently skipping writes until the count catches up. version 0 keeps
// the deployer's own sequence (the HTTP restore path, which has no header).
//
// The payload is decoded and validated in full before anything of the
// deployment is touched: a payload that is refused leaves the serving
// snapshot and the writer's state exactly as they were.
func (d *Deployer) restoreCheckpointAt(payload []byte, version uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	mdl, om, pipe, err := d.decodePayload(payload)
	if err != nil {
		return err
	}
	d.mdl = mdl
	d.optm = om
	d.pipe = pipe
	if version > 0 {
		// Rewind the sequence so the publish below reproduces the header
		// version: the restored state holds version-1 completed ticks.
		d.publishSeq = version - 1
	}
	// Publish the restored state as one atomic snapshot swap: a concurrent
	// Predict serves either the full pre-restore state or the full restored
	// state, never a half-restored pipeline/model pair.
	d.publish()
	return nil
}

// decodePayload reads a snapshot payload into a model, an optimizer and a
// pipeline of this deployment's configuration. The bytes come from files,
// restore bodies and other servers: one that does not open with payloadTag
// is refused by name before anything is read from it, every count in the
// rest is checked against the deployment's own model before it sizes
// anything (the weight vector and each optimizer slot are at most as long as
// the deployed model's), and the sections must be the deployment's kinds and
// fill the payload exactly.
//
//cdml:locked mu — reads the deployed model's shape and the optimizer's kind
func (d *Deployer) decodePayload(payload []byte) (model.Model, opt.Optimizer, *pipeline.Pipeline, error) {
	rest, ok := bytes.CutPrefix(payload, []byte(payloadTag))
	if !ok {
		return nil, nil, nil, fmt.Errorf("core: restoring checkpoint: payload does not open with %q: not a snapshot payload of this format", payloadTag)
	}
	weights := len(d.mdl.Weights())
	r := flat.NewReader(rest)
	mdl, err := model.DecodeSection(r, weights)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: restoring model: %w", err)
	}
	om, err := opt.DecodeSection(r, weights)
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
	if mdl.Name() != d.mdl.Name() || mdl.Dim() != d.mdl.Dim() {
		return nil, nil, nil, fmt.Errorf("core: checkpoint model %s/%d does not match deployment %s/%d",
			mdl.Name(), mdl.Dim(), d.mdl.Name(), d.mdl.Dim())
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

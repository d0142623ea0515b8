package core

import (
	"bufio"
	"fmt"
	"io"

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
// length of one optimizer clone, and only when the published snapshot does
// not carry resume state yet (resumePoint): the call waits out at most the
// tick in flight and delays the next by at most that clone. The encode and
// every write to w stream from immutable state with no lock held, so an
// arbitrarily slow consumer (a stalled HTTP checkpoint client, a saturated
// disk) can never block Ingest. Mid-tick progress is by design not
// captured; ticks are the recovery grain. In the failed-tick window the
// answer is ErrResumeUnavailable and nothing is written.
//
// The chunk store is not part of the checkpoint; it is durable storage
// with its own lifecycle (point the restored deployment at the same store
// or a fresh one).
func (d *Deployer) Checkpoint(w io.Writer) error {
	s, err := d.resumePoint()
	if err != nil {
		return err
	}
	return s.encodeTo(w)
}

// encodeTo writes the snapshot's resume state (model, optimizer, pipeline
// statistics) as the checkpoint wire format: a sequence of independent gob
// streams. Snapshots are immutable, so encoding needs no synchronization
// and may run concurrently with the training writer. A snapshot published
// without resume state has no optimizer section to write and says so
// before a byte reaches w.
func (s *Snapshot) encodeTo(w io.Writer) error {
	if s.optm == nil {
		return fmt.Errorf("core: encoding snapshot version %d: %w", s.version, ErrResumeUnavailable)
	}
	if err := model.Save(w, s.mdl); err != nil {
		return fmt.Errorf("core: checkpointing model: %w", err)
	}
	if err := opt.Save(w, s.optm); err != nil {
		return fmt.Errorf("core: checkpointing optimizer: %w", err)
	}
	if err := s.pipe.SaveState(w); err != nil {
		return fmt.Errorf("core: checkpointing pipeline: %w", err)
	}
	return nil
}

// RestoreCheckpoint loads state written by Checkpoint into this deployer.
// The deployer must have been built from the same Config (same model
// shape, optimizer kind, and pipeline layout); mismatches are reported as
// errors.
func (d *Deployer) RestoreCheckpoint(r io.Reader) error {
	return d.restoreCheckpointAt(r, 0)
}

// restoreCheckpointAt is RestoreCheckpoint with an optional snapshot
// version to resume the publish sequence at. The checkpoint wire format
// carries no version — checkpoint *files* do, in their frame header — so
// RecoverFromDir passes the header version here and the restored state is
// republished as exactly that version. That keeps two invariants across a
// process restart: snapshot version v still means v-1 completed ticks
// (callers derive the resume position from it), and the auto-checkpoint
// manager — whose duplicate suppression tracks the newest durable version
// — sees the very next tick as newer than the recovered checkpoint instead
// of silently skipping writes until the count catches up. version 0 keeps
// the deployer's own sequence (the HTTP restore path, which has no header).
func (d *Deployer) restoreCheckpointAt(r io.Reader, version uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	// The checkpoint is a sequence of independent gob streams. Each
	// gob.Decoder buffers its reads unless the source is an io.ByteReader,
	// which would swallow the following section's bytes — so wrap once and
	// hand every section the same byte reader.
	br := bufio.NewReader(r)
	mdl, err := model.Load(br)
	if err != nil {
		return fmt.Errorf("core: restoring model: %w", err)
	}
	if mdl.Name() != d.mdl.Name() || mdl.Dim() != d.mdl.Dim() {
		return fmt.Errorf("core: checkpoint model %s/%d does not match deployment %s/%d",
			mdl.Name(), mdl.Dim(), d.mdl.Name(), d.mdl.Dim())
	}
	om, err := opt.Load(br)
	if err != nil {
		return fmt.Errorf("core: restoring optimizer: %w", err)
	}
	if om.Name() != d.optm.Name() {
		return fmt.Errorf("core: checkpoint optimizer %s does not match deployment %s", om.Name(), d.optm.Name())
	}
	pipe := d.cfg.NewPipeline()
	if err := pipe.LoadState(br); err != nil {
		return fmt.Errorf("core: restoring pipeline: %w", err)
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

// The interface assertion documents which bundled components participate
// in checkpoints.
var (
	_ pipeline.Persistent = (*pipeline.Imputer)(nil)
	_ pipeline.Persistent = (*pipeline.StandardScaler)(nil)
	_ pipeline.Persistent = (*pipeline.MinMaxScaler)(nil)
	_ pipeline.Persistent = (*pipeline.OneHotEncoder)(nil)
	_ pipeline.Persistent = (*pipeline.StdClipper)(nil)
)

package core

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"cdml/internal/obs"
	"cdml/internal/snapstream"
	"cdml/internal/wal"
)

// This file is the crash-durability layer: a deployment configured with a
// CheckpointPolicy persists its published snapshots to disk, and a restarted
// process resumes from the newest valid checkpoint. It owns the policy, the
// trigger, the write, retention and recovery; checkpoint.go owns the
// payload and its frame, wal.go the ingest log's glue, and internal/snapstream
// the file format and the tmp+fsync+rename discipline. A publish only
// counts toward "a checkpoint is due" and pokes a background goroutine that
// completes the published snapshot and does all file IO off the tick path —
// the shape GraphLab (Low et al., 2011) derives fault tolerance from:
// periodic consistent snapshots taken without stopping the computation.

var (
	// ErrNoCheckpoint reports that a recovery directory holds no checkpoint
	// files at all (a cold start, not a failure).
	ErrNoCheckpoint = errors.New("core: no checkpoint found")
	// ErrNoCheckpointPolicy is CheckpointNow's answer on a deployment built
	// without an AutoCheckpoint policy: there is no directory to write into,
	// as opposed to a write that was attempted and failed.
	ErrNoCheckpointPolicy = errors.New("core: deployment has no checkpoint policy configured")
)

// CheckpointPolicy configures automatic checkpointing of a live deployment:
// every EveryTicks publishes a background writer checkpoints the snapshot
// published when it runs, completed into a resume point as by CheckpointNow.
type CheckpointPolicy struct {
	// Dir receives the checkpoint files; created if absent.
	Dir string
	// EveryTicks checkpoints after every N publishes (0 defaults to 8).
	EveryTicks int
	// Keep bounds the retained files; older checkpoints are pruned after
	// each successful write (default 3, minimum 1).
	Keep int
	// MaxBytes bounds the total on-disk size of retained checkpoints: after
	// each write the oldest files are pruned until the directory fits the
	// budget. The newest checkpoint is always kept, even when it alone
	// exceeds the budget — a quota must never leave a deployment with no
	// recovery point. 0 disables the byte budget (Keep still applies).
	MaxBytes int64
}

// withDefaults fills unset policy fields.
func (p CheckpointPolicy) withDefaults() CheckpointPolicy {
	if p.EveryTicks <= 0 {
		p.EveryTicks = 8
	}
	if p.Keep <= 0 {
		p.Keep = 3
	}
	return p
}

// CheckpointInfo identifies one durable checkpoint: the snapshot version in
// the file header (for a live deployment version v corresponds to v-1
// completed ticks), the file path, and when it was written (or recovered).
type CheckpointInfo = snapstream.FileInfo

// ckptManager runs the auto-checkpoint loop. The writer side (publish,
// under d.mu) only counts publishes and, when a checkpoint is due, pokes
// the loop without blocking; the loop takes the checkpoint as CheckpointNow
// does — resumePoint, then write — and owns every byte of file IO.
type ckptManager struct {
	pol CheckpointPolicy

	// ticksSince is the trigger: publishes since the last accepted poke,
	// touched only under the deployment's d.mu.
	ticksSince int

	poke chan struct{} // capacity 1: at most one checkpoint pending behind the one in flight
	stop chan struct{} // closed by shutdown
	done chan struct{} // closed when the loop has ended

	// wmu serializes file writes between the background loop and
	// CheckpointNow. last is the newest durable checkpoint, written or
	// recovered (nil before the first): stored only under wmu, read without
	// a lock.
	wmu  sync.Mutex
	last atomic.Pointer[CheckpointInfo]

	writes   *obs.Counter
	errs     *obs.Counter
	skips    *obs.Counter
	duration *obs.Histogram
	encode   *obs.Histogram
	bytes    *obs.Gauge
	// tracer receives one span tree per checkpoint write (resume → encode →
	// write → fsync → rename). The tree carries the trace id of the tick
	// that produced the snapshot, extending an end-to-end trace across the
	// publish→background-writer boundary.
	tracer *obs.Tracer

	// log is the deployment's write-ahead ingest log, nil without one. The
	// writer syncs it before every checkpoint file — a checkpoint at version
	// V on disk then implies every commit ≤ V is on disk, the invariant exact
	// replay rests on (see wal.go) — and prunes it with the checkpoints.
	log *wal.Log
}

// newCkptManager creates the auto-checkpoint manager, whose loop is
// Deployer.checkpointLoop; labels are stamped on its cdml_checkpoint_*
// series, and log (nil when there is none) is the ingest log it syncs and
// prunes.
func newCkptManager(pol CheckpointPolicy, labels []obs.Label, reg *obs.Registry, tracer *obs.Tracer, log *wal.Log) (*ckptManager, error) {
	pol = pol.withDefaults()
	if pol.Dir == "" {
		return nil, fmt.Errorf("core: checkpoint policy requires a directory")
	}
	if err := os.MkdirAll(pol.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: creating checkpoint dir: %w", err)
	}
	m := &ckptManager{
		pol:    pol,
		poke:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		tracer: tracer,
		log:    log,
		writes: reg.Counter("cdml_checkpoint_writes_total",
			"Checkpoints durably written (fsynced and renamed into place).", labels...),
		errs: reg.Counter("cdml_checkpoint_errors_total",
			"Checkpoint writes that failed (the previous checkpoint remains valid).", labels...),
		skips: reg.Counter("cdml_checkpoint_skipped_total",
			"Due checkpoints coalesced into one already pending.", labels...),
		duration: reg.Histogram("cdml_checkpoint_write_seconds",
			"Duration of one checkpoint write (encode, fsync, rename, prune).", labels...),
		encode: reg.Histogram("cdml_checkpoint_encode_seconds",
			"Duration of the encode stage of one checkpoint write: snapshot to payload bytes.", labels...),
		bytes: reg.Gauge("cdml_checkpoint_bytes",
			"Size of the newest durable checkpoint frame (0 = none written yet).", labels...),
	}
	reg.GaugeFunc("cdml_checkpoint_last_version",
		"Snapshot version of the newest durable checkpoint (0 = none yet).",
		func() float64 {
			info, _ := m.Last()
			return float64(info.Version)
		}, labels...)
	reg.GaugeFunc("cdml_checkpoint_age_seconds",
		"Age of the newest durable checkpoint (0 until the first write).",
		func() float64 {
			info, ok := m.Last()
			if !ok {
				return 0
			}
			return time.Since(info.At).Seconds()
		}, labels...)
	return m, nil
}

// published is the writer-side trigger, run by every publish under d.mu
// after the snapshot is stored. It never blocks: when a poke is already
// pending the due checkpoint is coalesced into it (skipped) and the count
// keeps accumulating, so the next publish pokes again.
func (m *ckptManager) published() {
	m.ticksSince++
	if m.ticksSince < m.pol.EveryTicks {
		return
	}
	select {
	case m.poke <- struct{}{}:
		m.ticksSince = 0
	default:
		m.skips.Inc()
	}
}

// checkpointLoop is the background checkpoint writer: each poke is one
// checkpoint of the snapshot published when it pulls. A pull in the
// failed-tick window (ErrResumeUnavailable) re-arms the trigger, so the
// publish that closes the window pokes again. After shutdown it takes the
// checkpoint still pending, if any, and ends: a checkpoint due before
// Shutdown is durable when Shutdown returns, and a poke after it is never
// read.
func (d *Deployer) checkpointLoop() {
	m := d.ckpt
	defer close(m.done)
	pull := func() {
		_, err := d.checkpoint(d.obs.resumeCadence)
		switch {
		case errors.Is(err, ErrResumeUnavailable):
			d.mu.Lock()
			m.ticksSince = m.pol.EveryTicks
			d.mu.Unlock()
		case err != nil:
			m.errs.Inc()
		}
	}
	for {
		select {
		case <-m.poke:
			pull()
		case <-m.stop:
			select {
			case <-m.poke:
				pull()
			default:
			}
			return
		}
	}
}

// shutdown stops the loop and waits for it to take the checkpoint still
// pending.
func (m *ckptManager) shutdown() {
	close(m.stop)
	<-m.done
}

// checkpoint is the one way a checkpoint is taken, for the loop and
// CheckpointNow alike: the published snapshot completed into a resume
// point (cause counts the capture, if one is needed), then written. Its
// span tree shows the capture's d.mu hold as "resume".
func (d *Deployer) checkpoint(cause *obs.Counter) (CheckpointInfo, error) {
	sp := obs.StartSpan("checkpoint")
	s, err := d.resumePoint(cause, sp)
	if err != nil {
		return CheckpointInfo{}, err
	}
	return d.ckpt.write(s, sp)
}

// write persists one snapshot and prunes old files, recording sp's tree.
// Serialized with CheckpointNow via wmu.
func (m *ckptManager) write(s *Snapshot, sp *obs.Span) (CheckpointInfo, error) {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if last, _ := m.Last(); s.version <= last.Version {
		// Already durable (CheckpointNow raced the loop, or the snapshot is
		// not newer than a recovered checkpoint): report the checkpoint that
		// covers it instead of a zero CheckpointInfo a caller could mistake
		// for a fresh write.
		return last, nil
	}
	start := time.Now()
	if m.log != nil {
		// Make the ingest log's buffered commits durable before the
		// checkpoint file: once this checkpoint exists on disk, every chunk
		// it covers must be marked consumed, or a crash would replay them
		// on top of the recovered state (double-apply).
		if err := m.log.Sync(); err != nil {
			return CheckpointInfo{}, fmt.Errorf("core: syncing ingest log before checkpoint: %w", err)
		}
	}
	// The checkpoint span tree carries the originating tick's trace id, so
	// .../trace?id= shows the write stages next to the request and tick that
	// produced the snapshot. Recorded on failure too — a trace that ends in
	// a short "write" stage with no rename is exactly the diagnostic wanted.
	sp.TraceID = s.traceID
	enc := sp.StartChild("encode")
	f, err := s.Frame()
	enc.Finish()
	var info CheckpointInfo
	if err == nil {
		m.encode.Observe(enc.Duration())
		info, err = snapstream.WriteFile(m.pol.Dir, f, sp)
	}
	sp.Finish()
	m.tracer.Record(sp)
	if err != nil {
		return CheckpointInfo{}, err
	}
	m.duration.Observe(time.Since(start))
	m.writes.Inc()
	m.bytes.Set(float64(snapstream.EncodedLen(f)))
	m.prune()
	// Stored last: whoever sees this checkpoint sees what retention left.
	m.last.Store(&info)
	return info, nil
}

// prune removes checkpoints beyond Keep and beyond the MaxBytes budget,
// oldest first, never touching the newest file — a byte quota bounds history
// depth, not the existence of a recovery point (best-effort: a failed
// removal is retried at the next prune). Called under wmu. Ingest-log
// retention follows from the same directory listing: the log is pruned to
// the oldest survivor's version, since it must keep every record not
// covered by the oldest checkpoint recovery could still start from, and
// nothing older (a failed log prune retries after the next checkpoint).
func (m *ckptManager) prune() {
	files, err := snapstream.List(m.pol.Dir)
	if err != nil || len(files) == 0 {
		return
	}
	// snapstream.List is newest-first, so one pass keeps a running size and
	// everything from the first file that does not fit is history to drop.
	var (
		total     int64
		over      bool
		survivors = files[:0]
	)
	for i, f := range files {
		total += f.Size
		over = over || i >= m.pol.Keep || (m.pol.MaxBytes > 0 && total > m.pol.MaxBytes)
		if over && i > 0 {
			if err := snapstream.Disk.Remove(f.Path); err == nil {
				continue
			}
			m.errs.Inc()
		}
		survivors = append(survivors, f)
	}
	if m.log != nil {
		_ = m.log.Prune(survivors[len(survivors)-1].Version)
	}
}

// Last returns the newest durable checkpoint, if any.
func (m *ckptManager) Last() (CheckpointInfo, bool) {
	if last := m.last.Load(); last != nil {
		return *last, true
	}
	return CheckpointInfo{}, false
}

// noteRecovered records a checkpoint restored by RecoverFromDir so the
// status surface reports it and duplicate writes are suppressed.
func (m *ckptManager) noteRecovered(info CheckpointInfo) {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if last, _ := m.Last(); info.Version > last.Version {
		m.last.Store(&info)
	}
}

// WriteCheckpointFile durably persists one snapshot into dir and returns
// its identity. The write is crash-safe (see snapstream.WriteFile): a
// crash at any point leaves either the old file set or the old set plus
// one complete new file, never a torn checkpoint under the final name.
func WriteCheckpointFile(dir string, s *Snapshot) (CheckpointInfo, error) {
	f, err := s.Frame()
	if err != nil {
		return CheckpointInfo{}, err
	}
	return snapstream.WriteFile(dir, f, nil)
}

// RecoverFromDir restores the newest valid checkpoint in dir into the
// deployer, falling back to older files when a newer one is torn or fails
// to decode. It returns ErrNoCheckpoint when the directory holds no
// checkpoint files (cold start) and an error naming every rejected file
// when none of the present checkpoints is usable. Recovery is
// snapstream.RestoreNewest feeding the deployer's snapshot sink — the same
// Apply the HTTP restore and replica paths go through.
//
// The returned CheckpointInfo.Version is the version recorded in the file
// header — the snapshot version at write time, from which callers derive
// the resume position (version-1 completed ticks for a live deployment).
// Into a fresh deployer the restored state is republished under exactly
// that version (Apply's version rule), so the version↔ticks correspondence
// survives the restart and auto-checkpointing resumes with the next tick
// rather than waiting for the new process's publish count to catch up with
// the recovered one.
//
// When the deployment has a write-ahead ingest log (Config.IngestLog),
// recovery continues past the checkpoint: every logged chunk the
// checkpoint does not cover — acknowledged but unconsumed at the crash,
// or consumed after the checkpoint was written — is replayed as a normal
// tick, in the original order, so recovery is exact rather than
// checkpoint-granular. On ErrNoCheckpoint the log is NOT replayed here:
// cold-start callers should run their usual warmup first (reproducing
// the original boot) and then call ReplayIngestLog.
func (d *Deployer) RecoverFromDir(dir string) (CheckpointInfo, error) {
	info, err := snapstream.RestoreNewest(dir, d.SnapshotSink().Apply)
	if err != nil {
		if errors.Is(err, snapstream.ErrNoFrame) {
			return CheckpointInfo{}, ErrNoCheckpoint
		}
		return CheckpointInfo{}, fmt.Errorf("core: no usable checkpoint: %w", err)
	}
	if d.ckpt != nil {
		d.ckpt.noteRecovered(info)
	}
	_, err = d.replayIngestLog(info.Version)
	return info, err
}

// CheckpointNow synchronously writes the current published snapshot to the
// configured checkpoint directory, regardless of the tick trigger. It needs
// an AutoCheckpoint policy; deployments without one answer
// ErrNoCheckpointPolicy and should hand Current() to WriteCheckpointFile with
// a directory of their choice. Like every on-demand consumer it may have to
// attach resume state first (resumePoint) and answers ErrResumeUnavailable in
// the failed-tick window.
func (d *Deployer) CheckpointNow() (CheckpointInfo, error) {
	if d.ckpt == nil {
		return CheckpointInfo{}, ErrNoCheckpointPolicy
	}
	return d.checkpoint(d.obs.resumeOnDemand)
}

// LastCheckpoint reports the newest durable checkpoint of this deployment
// (written by the auto-checkpoint loop, CheckpointNow, or recorded by
// RecoverFromDir); ok is false before the first one.
func (d *Deployer) LastCheckpoint() (info CheckpointInfo, ok bool) {
	if d.ckpt == nil {
		return CheckpointInfo{}, false
	}
	return d.ckpt.Last()
}

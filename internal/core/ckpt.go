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
)

// This file is the crash-durability layer: a deployment configured with a
// CheckpointPolicy automatically persists its published snapshots to disk,
// and a restarted process resumes from the newest valid checkpoint. The
// design follows the snapshot-publishing split of the serving path — the
// writer loop only decides "is a checkpoint due" and hands the immutable
// snapshot to a background goroutine; all file IO (encode, fsync, rename,
// prune) happens off the tick path. GraphLab (Low et al., 2011) derives
// fault tolerance from exactly this shape: periodic consistent snapshots
// taken without stopping the computation.

// The checkpoint file format (the CDMLCKP1 frame: magic, big-endian
// version and payload length, the snapshot payload of checkpoint.go, IEEE
// CRC-32) and the crash-safe tmp+fsync+rename file discipline live in
// internal/snapstream — the same frames ship over HTTP for restore and
// primary→replica replication, so the torn-write and CRC validation here
// is one code path with those transports. This file keeps the policy: when
// checkpoints are due, retention, and how recovery feeds the deployer.

var (
	// ErrNoCheckpoint reports that a recovery directory holds no checkpoint
	// files at all (a cold start, not a failure).
	ErrNoCheckpoint = errors.New("core: no checkpoint found")
	// ErrNoCheckpointPolicy is CheckpointNow's answer on a deployment built
	// without an AutoCheckpoint policy: there is no directory to write into,
	// as opposed to a write that was attempted and failed.
	ErrNoCheckpointPolicy = errors.New("core: deployment has no checkpoint policy configured")
)

// CheckpointPolicy configures automatic checkpointing of a live deployment.
type CheckpointPolicy struct {
	// Dir receives the checkpoint files; created if absent.
	Dir string
	// EveryTicks checkpoints after every N successful ticks (0 with a zero
	// Interval defaults to 8).
	EveryTicks int
	// Interval checkpoints when this much wall-clock time has passed since
	// the last one, whichever of the two triggers fires first (0 disables
	// the time trigger).
	Interval time.Duration
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
	if p.EveryTicks <= 0 && p.Interval <= 0 {
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
// under d.mu) only counts ticks, says whether a checkpoint is due (which is
// when publish pays for resume state) and performs a non-blocking hand-off
// of the due snapshot; the manager goroutine owns every byte of file IO.
type ckptManager struct {
	pol CheckpointPolicy

	// Writer-owned trigger state, touched only under the deployment's
	// writer serialization.
	ticksSince  int
	lastEnqueue time.Time

	ch   chan *Snapshot // capacity 1: at most one write queued behind the in-flight one
	done chan struct{}

	// qmu guards the hand-off into ch against shutdown, which sets stopped
	// and closes ch under it: no snapshot enters the channel afterwards, and
	// every one that entered before is still there for run() to write. qmu is
	// never held across file IO — due and handOff stay non-blocking on the
	// tick path even while a write is in flight.
	qmu     sync.Mutex
	stopped bool //cdml:guardedby qmu

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
	// tracer receives one span tree per checkpoint write (encode → write →
	// fsync → rename). The tree carries the trace id of the tick that
	// produced the snapshot, extending an end-to-end trace across the
	// publish→background-writer boundary.
	tracer *obs.Tracer

	// walSync, when set, fsyncs the write-ahead ingest log's buffered
	// commit records and runs before every checkpoint file write: a
	// checkpoint at version V durable on disk then implies every log
	// commit with version ≤ V is durable too, which is the invariant
	// exact replay rests on (see internal/core/wal.go).
	walSync func() error
	// walPrune, when set, receives the oldest checkpoint version the
	// retention still holds after each prune, so ingest-log segments
	// fully covered by a recoverable checkpoint are reclaimed.
	walPrune func(keepVersion uint64)
}

// newCkptManager creates (and starts) the auto-checkpoint loop; labels are
// stamped on its cdml_checkpoint_* series. walSync and walPrune couple the
// write-ahead ingest log's durability and retention to checkpointing; both
// may be nil.
func newCkptManager(pol CheckpointPolicy, labels []obs.Label, reg *obs.Registry, tracer *obs.Tracer,
	walSync func() error, walPrune func(uint64)) (*ckptManager, error) {
	pol = pol.withDefaults()
	if pol.Dir == "" {
		return nil, fmt.Errorf("core: checkpoint policy requires a directory")
	}
	if err := os.MkdirAll(pol.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: creating checkpoint dir: %w", err)
	}
	m := &ckptManager{
		pol:         pol,
		lastEnqueue: time.Now(),
		ch:          make(chan *Snapshot, 1),
		done:        make(chan struct{}),
		tracer:      tracer,
		walSync:     walSync,
		walPrune:    walPrune,
		writes: reg.Counter("cdml_checkpoint_writes_total",
			"Checkpoints durably written (fsynced and renamed into place).", labels...),
		errs: reg.Counter("cdml_checkpoint_errors_total",
			"Checkpoint writes that failed (the previous checkpoint remains valid).", labels...),
		skips: reg.Counter("cdml_checkpoint_skipped_total",
			"Due checkpoints skipped because a write was still in flight.", labels...),
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
	go m.run()
	return m, nil
}

// due is the writer-side trigger: asked once per snapshot publish, before
// the snapshot is built and under the deployment's writer serialization, it
// reports whether this publish's snapshot goes to the checkpoint writer —
// the trigger has fired and the hand-off will be accepted — so that publish
// clones resume state for exactly those snapshots. It never blocks: when
// the manager is still writing the previous checkpoint and one more is
// already queued, this one is skipped and the trigger state keeps
// accumulating, so the next publish retries immediately.
func (m *ckptManager) due() bool {
	m.ticksSince++
	fired := (m.pol.EveryTicks > 0 && m.ticksSince >= m.pol.EveryTicks) ||
		(m.pol.Interval > 0 && time.Since(m.lastEnqueue) >= m.pol.Interval)
	if !fired {
		return false
	}
	m.qmu.Lock()
	defer m.qmu.Unlock()
	if m.stopped {
		// The manager is shutting down; declining here is the only
		// alternative to enqueueing a snapshot nobody will ever write.
		return false
	}
	if len(m.ch) == cap(m.ch) {
		m.skips.Inc()
		return false
	}
	// Room now is room at handOff: the publishing writer is the channel's
	// only sender and run() only ever drains it.
	return true
}

// handOff enqueues the snapshot due() asked for and rearms the trigger. A
// shutdown that slipped in between the two drops it (see due).
func (m *ckptManager) handOff(s *Snapshot) {
	m.qmu.Lock()
	defer m.qmu.Unlock()
	if m.stopped {
		return
	}
	select {
	case m.ch <- s:
		m.ticksSince = 0
		m.lastEnqueue = time.Now()
	default:
		m.skips.Inc()
	}
}

// run is the background checkpoint writer. It ends when shutdown closes ch,
// after writing what the channel still held: a snapshot handed off just
// before shutdown (the loop may never have been scheduled on a busy machine)
// is durable once shutdown returns.
func (m *ckptManager) run() {
	defer close(m.done)
	for s := range m.ch {
		if _, err := m.write(s); err != nil {
			m.errs.Inc()
		}
	}
}

// shutdown stops the loop and waits for it to write what it was handed. A
// publish racing shutdown either enqueues first, and is written, or observes
// stopped and backs off — it never sends on the closed channel, and an
// accepted snapshot is never stranded in it.
func (m *ckptManager) shutdown() {
	m.qmu.Lock()
	m.stopped = true
	close(m.ch)
	m.qmu.Unlock()
	<-m.done
}

// write persists one snapshot and prunes old files. Serialized with
// CheckpointNow via wmu.
func (m *ckptManager) write(s *Snapshot) (CheckpointInfo, error) {
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
	if m.walSync != nil {
		// Make the ingest log's buffered commits durable before the
		// checkpoint file: once this checkpoint exists on disk, every chunk
		// it covers must be marked consumed, or a crash would replay them
		// on top of the recovered state (double-apply).
		if err := m.walSync(); err != nil {
			return CheckpointInfo{}, fmt.Errorf("core: syncing ingest log before checkpoint: %w", err)
		}
	}
	// The checkpoint span tree carries the originating tick's trace id, so
	// .../trace?id= shows the write stages next to the request and tick that
	// produced the snapshot. Recorded on failure too — a trace that ends in
	// a short "write" stage with no rename is exactly the diagnostic wanted.
	sp := obs.StartSpan("checkpoint")
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
	m.last.Store(&info)
	m.prune()
	return info, nil
}

// prune removes checkpoints beyond Keep and beyond the MaxBytes budget,
// oldest first, never touching the newest file — a byte quota bounds history
// depth, not the existence of a recovery point (best-effort: a failed
// removal is retried at the next prune). Called under wmu. Ingest-log
// retention follows from the same directory listing: the oldest survivor's
// version goes to the walPrune hook, since the log must keep every record
// not covered by the oldest checkpoint recovery could still start from, and
// nothing older.
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
		if m.pol.MaxBytes > 0 && !over {
			if fi, err := os.Stat(f.Path); err == nil {
				total += fi.Size()
			}
		}
		over = over || i >= m.pol.Keep || (m.pol.MaxBytes > 0 && total > m.pol.MaxBytes)
		if over && i > 0 {
			if err := os.Remove(f.Path); err == nil {
				continue
			}
			m.errs.Inc()
		}
		survivors = append(survivors, f)
	}
	if m.walPrune != nil {
		m.walPrune(survivors[len(survivors)-1].Version)
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
// when none of the present checkpoints is usable. Recovery is one
// snapstream composition: the directory source feeding the deployer's
// snapshot sink — the same sink the HTTP restore and replica paths apply
// frames through.
//
// The returned CheckpointInfo.Version is the version recorded in the file
// header — the snapshot version at write time, from which callers derive
// the resume position (version-1 completed ticks for a live deployment).
// The restored state is republished under exactly that version, so the
// version↔ticks correspondence survives the restart and auto-checkpointing
// resumes with the next tick rather than waiting for the new process's
// publish count to catch up with the recovered one.
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
	info, err := snapstream.DirSource{Dir: dir}.Restore(d.SnapshotSink())
	if err != nil {
		if errors.Is(err, snapstream.ErrNoFrame) {
			return CheckpointInfo{}, ErrNoCheckpoint
		}
		return CheckpointInfo{}, fmt.Errorf("core: no usable checkpoint: %w", err)
	}
	if d.ckpt != nil {
		d.ckpt.noteRecovered(info)
	}
	if d.wal != nil {
		if _, err := d.replayIngestLog(info.Version); err != nil {
			return info, err
		}
	}
	return info, nil
}

// CheckpointNow synchronously writes the current published snapshot to the
// configured checkpoint directory, regardless of the tick/interval
// triggers. It needs an AutoCheckpoint policy; deployments without one
// answer ErrNoCheckpointPolicy and should use Checkpoint with a destination
// of their choice. Like every on-demand consumer it may have to attach
// resume state first (resumePoint) and answers ErrResumeUnavailable in the
// failed-tick window.
func (d *Deployer) CheckpointNow() (CheckpointInfo, error) {
	if d.ckpt == nil {
		return CheckpointInfo{}, ErrNoCheckpointPolicy
	}
	s, err := d.resumePoint()
	if err != nil {
		return CheckpointInfo{}, err
	}
	return d.ckpt.write(s)
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

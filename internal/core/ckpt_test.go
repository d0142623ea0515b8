package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cdml/internal/snapstream"
	"cdml/internal/wal"
)

// liveConfig returns a config for Ingest-driven (live) deployments; the
// chaos and checkpoint tests drive ticks one chunk at a time.
func liveConfig(mode Mode) Config {
	cfg := baseConfig(mode)
	cfg.InitialChunks = 0
	return cfg
}

func ingestChunks(t *testing.T, d *Deployer, s Stream, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := d.Ingest(s.Chunk(i)); err != nil {
			t.Fatalf("ingest chunk %d: %v", i, err)
		}
	}
}

// payloadBytes is the deployment's whole state as bytes — the snapshot
// payload of its published version: model, optimizer and every stateful
// component's statistics. Equal state is equal bytes (DESIGN.md §5n), so
// bit-identity of two deployments is bytes.Equal of these.
func payloadBytes(t *testing.T, d *Deployer) []byte {
	t.Helper()
	return frameOf(t, d).Payload
}

// frameOf is d's published state framed, as every consumer takes it.
func frameOf(t testing.TB, d *Deployer) snapstream.Frame {
	t.Helper()
	f, err := d.Current().Frame()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := liveConfig(ModeOnline)
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	ingestChunks(t, d, driftStream{chunks: 10, rows: 20, drift: 2, seed: 5}, 0, 3)

	snap := d.Current()
	info, err := WriteCheckpointFile(dir, snap)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != snap.Version() {
		t.Fatalf("info version %d, want %d", info.Version, snap.Version())
	}
	frame, err := snapstream.ReadFile(info.Path)
	if err != nil {
		t.Fatal(err)
	}
	if frame.Version != snap.Version() {
		t.Fatalf("read version %d, want %d", frame.Version, snap.Version())
	}
	// The payload must restore into an identically-configured deployment
	// and reproduce the source's whole state exactly.
	d2, err := NewDeployer(liveConfig(ModeOnline))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Shutdown()
	if err := d2.SnapshotSink().Apply(frame); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payloadBytes(t, d), payloadBytes(t, d2)) {
		t.Fatal("restored state differs from source")
	}
}

// TestRecentLossIsNotCheckpointed: the recent loss describes what a process
// has scored, not the state it resumes from — the payload does not carry it
// (no byte of the format moved for it), so a deployer that restored a payload
// or recovered a directory reports it empty.
func TestRecentLossIsNotCheckpointed(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDeployer(liveConfig(ModeOnline))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	ingestChunks(t, d, driftStream{chunks: 10, rows: 20, drift: 2, seed: 5}, 0, 3)
	if got := d.Stats().RecentCount; got != 60 {
		t.Fatalf("recent loss has seen %d records after 3 chunks of 20", got)
	}
	if _, err := WriteCheckpointFile(dir, d.Current()); err != nil {
		t.Fatal(err)
	}
	for name, load := range map[string]func(*Deployer) error{
		"restored":  func(d2 *Deployer) error { return d2.SnapshotSink().Apply(frameOf(t, d)) },
		"recovered": func(d2 *Deployer) error { _, err := d2.RecoverFromDir(dir); return err },
	} {
		d2, err := NewDeployer(liveConfig(ModeOnline))
		if err != nil {
			t.Fatal(err)
		}
		defer d2.Shutdown()
		if err := load(d2); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := d2.Stats(); got.RecentCount != 0 || got.RecentLoss != 0 || d2.Published().Version() < 2 {
			t.Fatalf("%s deployer at version %d reports recent loss %v over %d records, want none",
				name, d2.Published().Version(), got.RecentLoss, got.RecentCount)
		}
	}
}

func TestCheckpointFileCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDeployer(liveConfig(ModeOnline))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	ingestChunks(t, d, driftStream{chunks: 4, rows: 20, drift: 2, seed: 5}, 0, 2)
	info, err := WriteCheckpointFile(dir, d.Current())
	if err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(info.Path)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"torn", whole[:len(whole)/2], "torn"},
		{"bad-magic", append([]byte("NOTACKPT"), whole[8:]...), "not a checkpoint"},
		{"bit-flip", func() []byte {
			b := append([]byte(nil), whole...)
			b[len(b)/2] ^= 0x40 // inside the payload
			return b
		}(), "CRC"},
		{"empty", nil, "not a checkpoint"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(dir, "corrupt-"+tc.name+".ckpt")
			if err := os.WriteFile(p, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := snapstream.ReadFile(p); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestRecoverFromDirColdStart(t *testing.T) {
	d, err := NewDeployer(liveConfig(ModeOnline))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	if _, err := d.RecoverFromDir(t.TempDir()); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: err = %v, want ErrNoCheckpoint", err)
	}
	if _, err := d.RecoverFromDir(filepath.Join(t.TempDir(), "missing")); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("missing dir: err = %v, want ErrNoCheckpoint", err)
	}
}

func TestAutoCheckpointWritesAndPrunes(t *testing.T) {
	dir := t.TempDir()
	cfg := liveConfig(ModeOnline)
	cfg.AutoCheckpoint = &CheckpointPolicy{Dir: dir, EveryTicks: 1, Keep: 2}
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Drop a stray temp file: a crash artifact the next listing must clear.
	stray := filepath.Join(dir, "ckpt-0000000000000099.ckpt.tmp")
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	stream := driftStream{chunks: 12, rows: 20, drift: 2, seed: 5}
	ingestChunks(t, d, stream, 0, 8)
	d.Shutdown() // waits for the in-flight write; queued-but-unstarted may drop

	files, err := snapstream.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 || len(files) > 2 {
		t.Fatalf("retention kept %d files, want 1..2", len(files))
	}
	for i := 1; i < len(files); i++ {
		if files[i-1].Version <= files[i].Version {
			t.Fatalf("listing not newest-first: %v", files)
		}
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stray tmp file not cleaned up: %v", err)
	}
	info, ok := d.LastCheckpoint()
	if !ok {
		t.Fatal("no LastCheckpoint after auto-checkpointed ingests")
	}
	if info.Version != files[0].Version {
		t.Fatalf("LastCheckpoint version %d, newest file %d", info.Version, files[0].Version)
	}
	// Every retained file must be independently valid.
	for _, f := range files {
		if _, err := snapstream.ReadFile(f.Path); err != nil {
			t.Fatalf("retained checkpoint %s invalid: %v", f.Path, err)
		}
	}
}

func TestCheckpointNowIsSynchronous(t *testing.T) {
	dir := t.TempDir()
	cfg := liveConfig(ModeOnline)
	// Triggers that never fire on their own: only CheckpointNow writes.
	cfg.AutoCheckpoint = &CheckpointPolicy{Dir: dir, EveryTicks: 1 << 30, Keep: 3}
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	ingestChunks(t, d, driftStream{chunks: 4, rows: 20, drift: 2, seed: 5}, 0, 2)

	info, err := d.CheckpointNow()
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != d.Current().Version() {
		t.Fatalf("checkpointed version %d, published %d", info.Version, d.Current().Version())
	}
	if _, err := os.Stat(info.Path); err != nil {
		t.Fatalf("checkpoint file missing right after CheckpointNow: %v", err)
	}
	// A second call with no new publish writes nothing and reports the
	// checkpoint that already covers the snapshot — never a zero
	// CheckpointInfo a caller could mistake for a fresh write.
	again, err := d.CheckpointNow()
	if err != nil {
		t.Fatal(err)
	}
	if again.Version != info.Version || again.Path != info.Path {
		t.Fatalf("duplicate CheckpointNow = %+v, want the existing checkpoint %+v", again, info)
	}
	files, err := snapstream.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("duplicate CheckpointNow left %d files, want 1", len(files))
	}
}

// waitDurable waits for the checkpoint writer to have written version v.
func waitDurable(t *testing.T, d *Deployer, v uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if last, _ := d.LastCheckpoint(); last.Version >= v {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the checkpoint writer never wrote version %d", v)
		}
	}
}

// waitPulled waits until the checkpoint writer has taken the pending poke.
func waitPulled(t *testing.T, d *Deployer) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); len(d.ckpt.poke) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the checkpoint writer never took the pending poke")
		}
	}
}

// TestCheckpointShutdownHandoffGuarantee: a due checkpoint that finds one
// already pending is coalesced into it and counted as skipped; a checkpoint
// due before Shutdown is durable once Shutdown returns, even when it is
// still pending behind a write in flight; and a publish after Shutdown
// writes nothing and does not hang.
func TestCheckpointShutdownHandoffGuarantee(t *testing.T) {
	dir := t.TempDir()
	cfg := liveConfig(ModeOnline)
	cfg.AutoCheckpoint = &CheckpointPolicy{Dir: dir, EveryTicks: 1, Keep: 100}
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := driftStream{chunks: 4, rows: 20, drift: 2, seed: 5}
	// Stall the writer (it takes wmu for every file write): version 2's
	// checkpoint is pulled and blocks in flight, version 3's poke is pending
	// behind it, and version 4's finds the poke slot full.
	d.ckpt.wmu.Lock()
	ingestChunks(t, d, stream, 0, 1)
	waitPulled(t, d)
	ingestChunks(t, d, stream, 1, 3)
	if n := d.ckpt.skips.Value(); n != 1 {
		t.Fatalf("skipped checkpoints = %d, want 1 (version 4 coalesced into version 3's pending poke)", n)
	}
	shut := make(chan struct{})
	go func() {
		d.Shutdown()
		close(shut)
	}()
	d.ckpt.wmu.Unlock()
	<-shut
	files, err := snapstream.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if v := d.Published().Version(); len(files) == 0 || files[0].Version != v {
		t.Fatalf("the checkpoint due at version %d is not durable after Shutdown: files = %v", v, files)
	}

	// Publishes after Shutdown (one fills the poke slot, the next finds it
	// full): nobody reads them.
	d.mu.Lock()
	d.publish()
	d.publish()
	d.mu.Unlock()
	after, err := snapstream.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(files) {
		t.Fatalf("a publish after Shutdown wrote a checkpoint: %v", after)
	}
}

// gateScheduler is due at every tick; armed, its next Due blocks until
// release is closed — a tick held in flight between its online step and
// its proactive training.
type gateScheduler struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *gateScheduler) Due(time.Time) bool {
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
	return true
}

func (g *gateScheduler) TrainingDone(time.Time, time.Duration, time.Duration) {}

// TestShutdownTakesTheDueCheckpointBeforeCancelling: a checkpoint is
// pending when Shutdown runs, and a tick that has already stepped the
// optimizer online is in flight. The checkpoint due before Shutdown is
// durable when Shutdown returns: the writer pulls the version published
// before the tick, which the tick (failed by the cancel or not) never
// rewrites.
func TestShutdownTakesTheDueCheckpointBeforeCancelling(t *testing.T) {
	gate := &gateScheduler{entered: make(chan struct{}), release: make(chan struct{})}
	cfg := liveConfig(ModeContinuous)
	cfg.Scheduler = gate
	cfg.AutoCheckpoint = &CheckpointPolicy{Dir: t.TempDir(), EveryTicks: 1, Keep: 100}
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := driftStream{chunks: 4, rows: 20, drift: 2, seed: 41}
	// The writer pulls version 2 and stalls in its write; version 3's poke
	// stays pending.
	d.ckpt.wmu.Lock()
	ingestChunks(t, d, stream, 0, 1)
	waitPulled(t, d)
	ingestChunks(t, d, stream, 1, 2)
	due := d.Published().Version()

	gate.armed.Store(true)
	tick := make(chan error, 1)
	go func() { tick <- d.Ingest(stream.Chunk(2)) }()
	<-gate.entered
	shut := make(chan struct{})
	go func() {
		d.Shutdown()
		close(shut)
	}()
	<-d.ckpt.stop // Shutdown has begun
	close(gate.release)
	tickErr := <-tick
	d.ckpt.wmu.Unlock()
	<-shut
	if last, _ := d.LastCheckpoint(); last.Version < due {
		t.Fatalf("the checkpoint due at version %d is not durable after Shutdown: newest is version %d (tick in flight: %v)",
			due, last.Version, tickErr)
	}
}

// gatedWriter blocks inside its first Write until released, emulating an
// arbitrarily slow checkpoint consumer (stalled HTTP client, saturated
// disk).
type gatedWriter struct {
	entered chan struct{}
	release chan struct{}
	once    bool
	buf     bytes.Buffer
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	if !g.once {
		g.once = true
		close(g.entered)
		<-g.release
	}
	return g.buf.Write(p)
}

// TestCheckpointDoesNotBlockIngest is the regression test for the
// writer-lock bug: Checkpoint used to gob-encode into the caller's writer
// while holding the writer mutex, so one slow checkpoint consumer froze
// all training. A download (FrameSince, behind GET .../snapshot) must be
// framed from the immutable published snapshot and written with no lock
// held, so Ingest proceeds while its consumer stalls.
func TestCheckpointDoesNotBlockIngest(t *testing.T) {
	d, err := NewDeployer(liveConfig(ModeOnline))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	stream := driftStream{chunks: 6, rows: 20, drift: 2, seed: 5}
	ingestChunks(t, d, stream, 0, 2)

	gw := &gatedWriter{entered: make(chan struct{}), release: make(chan struct{})}
	ckptDone := make(chan error, 1)
	go func() {
		f, _, err := d.FrameSince(0)
		if err == nil {
			_, err = gw.Write(snapstream.EncodeFrame(f))
		}
		ckptDone <- err
	}()
	<-gw.entered // the download is now stalled mid-stream

	ingested := make(chan error, 1)
	go func() { ingested <- d.Ingest(stream.Chunk(2)) }()
	select {
	case err := <-ingested:
		if err != nil {
			t.Fatalf("ingest during stalled checkpoint: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Ingest blocked behind a stalled checkpoint consumer")
	}

	close(gw.release)
	if err := <-ckptDone; err != nil {
		t.Fatalf("checkpoint after release: %v", err)
	}
	// The stalled download captured the pre-ingest snapshot; it must still
	// be a valid, restorable frame.
	d2, err := NewDeployer(liveConfig(ModeOnline))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Shutdown()
	f, err := snapstream.DecodeFrame("download", gw.buf.Bytes())
	if err == nil {
		err = d2.SnapshotSink().Apply(f)
	}
	if err != nil {
		t.Fatalf("restoring the slow-consumer checkpoint: %v", err)
	}
}

// TestRestoreOfAnOlderFrameMovesForward: a frame not newer than the
// published snapshot is published at the next version, and the CheckpointNow
// right after it writes that version — the restored state becomes durable
// instead of being mistaken for a checkpoint already on disk. A newer frame
// is published at its own version.
func TestRestoreOfAnOlderFrameMovesForward(t *testing.T) {
	dir := t.TempDir()
	cfg := liveConfig(ModeOnline)
	cfg.AutoCheckpoint = &CheckpointPolicy{Dir: dir, EveryTicks: 1 << 20, Keep: 10}
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	stream := driftStream{chunks: 12, rows: 20, drift: 2, seed: 5}
	ingestChunks(t, d, stream, 0, 2)
	old := frameOf(t, d)
	ingestChunks(t, d, stream, 2, 12)
	if _, err := d.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	at := d.Published().Version()
	if err := d.SnapshotSink().Apply(old); err != nil {
		t.Fatal(err)
	}
	if got := d.Published().Version(); got != at+1 {
		t.Fatalf("restoring version %d at version %d published version %d, want %d", old.Version, at, got, at+1)
	}
	info, err := d.CheckpointNow()
	if err != nil {
		t.Fatal(err)
	}
	f, err := snapstream.ReadFile(info.Path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != at+1 || !bytes.Equal(f.Payload, old.Payload) {
		t.Fatalf("CheckpointNow after the restore wrote version %d (restored payload: %v), want version %d",
			info.Version, bytes.Equal(f.Payload, old.Payload), at+1)
	}
	newer := snapstream.Frame{Version: at + 10, Payload: old.Payload}
	if err := d.SnapshotSink().Apply(newer); err != nil || d.Published().Version() != newer.Version {
		t.Fatalf("restoring a newer frame: version %d (err %v), want %d", d.Published().Version(), err, newer.Version)
	}
}

// TestRestoreThenLoggedTicksRecover: an older frame restored into a
// checkpointing, logging deployment, three logged ticks on it, and a kill —
// no Shutdown. Recovery finds the restored state's checkpoint and replays the
// three logged chunks on it: the recovered deployment is the live one. (When
// a restore could move the version back, the checkpoint writer took the
// ticks after it for duplicates and the log's replay filter took their
// commits as covered: nothing replayed, three acknowledged chunks lost.)
func TestRestoreThenLoggedTicksRecover(t *testing.T) {
	dir := t.TempDir()
	ckDir := filepath.Join(dir, "ckpt")
	logOpts := wal.Options{Dir: filepath.Join(dir, "wal")}
	stream := driftStream{chunks: 15, rows: 20, drift: 2, seed: 41}
	src, err := NewDeployer(liveConfig(ModeOnline))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Shutdown()
	ingestChunks(t, src, stream, 0, 2)
	old := frameOf(t, src)
	ingestChunks(t, src, stream, 2, 12)

	cfg := liveConfig(ModeOnline)
	cfg.AutoCheckpoint = &CheckpointPolicy{Dir: ckDir, EveryTicks: 1, Keep: 3}
	cfg.IngestLog = &logOpts
	victim, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Shutdown() // after the recovery: the kill skips it
	// durable waits for the checkpoint writer to have written version v.
	durable := func(v uint64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			if last, _ := victim.LastCheckpoint(); last.Version >= v {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("the checkpoint writer never wrote version %d", v)
			}
		}
	}
	if err := victim.SnapshotSink().Apply(frameOf(t, src)); err != nil {
		t.Fatal(err)
	}
	durable(victim.Published().Version()) // the writer is idle: the restore's poke is taken
	if err := victim.SnapshotSink().Apply(old); err != nil {
		t.Fatal(err)
	}
	durable(victim.Published().Version())
	ingestLogged(t, victim, stream, 2, 5)
	live := payloadBytes(t, victim)

	rcfg := liveConfig(ModeOnline)
	rcfg.IngestLog = &logOpts
	revived, err := NewDeployer(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer revived.Shutdown()
	info, err := revived.RecoverFromDir(ckDir)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := revived.WALStats()
	if !bytes.Equal(payloadBytes(t, revived), live) {
		t.Fatalf("recovered checkpoint %d and replayed %d chunks to a state that is not the live one", info.Version, st.Replayed)
	}
}

package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cdml/internal/snapstream"
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
	f, err := d.Current().Frame()
	if err != nil {
		t.Fatal(err)
	}
	return f.Payload
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
	if err := d2.RestoreCheckpoint(bytes.NewReader(frame.Payload)); err != nil {
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
		"restored":  func(d2 *Deployer) error { return d2.RestoreCheckpoint(bytes.NewReader(payloadBytes(t, d))) },
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

// TestCheckpointShutdownHandoffGuarantee covers the publish/shutdown race:
// a snapshot accepted into the hand-off channel must be durable once
// Shutdown returns (written by the loop or by its final drain), and a
// publish that races past Shutdown must be dropped cleanly — never
// stranded in the channel as an "accepted" hand-off nobody will write.
func TestCheckpointShutdownHandoffGuarantee(t *testing.T) {
	dir := t.TempDir()
	cfg := liveConfig(ModeOnline)
	cfg.AutoCheckpoint = &CheckpointPolicy{Dir: dir, EveryTicks: 1, Keep: 100}
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One tick: the publish hands version 2 to the idle manager (the
	// capacity-1 channel is empty, so the hand-off is always accepted).
	ingestChunks(t, d, driftStream{chunks: 4, rows: 20, drift: 2, seed: 5}, 0, 1)
	d.Shutdown()
	files, err := snapstream.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 || files[0].Version != 2 {
		t.Fatalf("accepted hand-off not durable after Shutdown: files = %v", files)
	}

	// A late hand-off (publish racing Shutdown) observes the stopped flag
	// and backs off: no hang, no new file, even for a due, newer snapshot.
	late := *d.Current()
	late.version++
	if d.ckpt.due() {
		t.Fatal("a stopped manager reported a checkpoint due")
	}
	d.ckpt.handOff(&late)
	after, err := snapstream.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(files) {
		t.Fatalf("post-shutdown hand-off wrote a checkpoint: %v", after)
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
// all training. Checkpoint must stream from the immutable published
// snapshot and let Ingest proceed concurrently.
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
	go func() { ckptDone <- d.Checkpoint(gw) }()
	<-gw.entered // checkpoint is now stalled mid-stream

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
	// The stalled checkpoint captured the pre-ingest snapshot; it must
	// still be a valid, restorable stream.
	d2, err := NewDeployer(liveConfig(ModeOnline))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Shutdown()
	if err := d2.RestoreCheckpoint(bytes.NewReader(gw.buf.Bytes())); err != nil {
		t.Fatalf("restoring the slow-consumer checkpoint: %v", err)
	}
}

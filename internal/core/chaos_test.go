package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cdml/internal/data"
	"cdml/internal/snapstream"
	"cdml/internal/wal"
)

// The chaos tests exercise the durability layer under injected failure:
// process kill + recovery, torn checkpoint files, and flaky storage
// backends. They are skipped under -short (CI's default test run) and run
// by `make chaos` with -race.

func skipInShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("chaos test; run via `make chaos`")
	}
}

var errChaosStore = errors.New("chaos: injected store failure")

// TestChaosKillRecoverKillRecover crashes, recovers, ticks, crashes, and
// recovers again. It pins down the regression where the recovered header
// version was not restored into the publish sequence: the new process's
// versions restarted at 2 while the manager's duplicate suppression
// remembered the recovered version N, so every checkpoint until the count
// re-passed N was silently skipped — and once versions did pass N the
// header's version↔ticks contract was off by the recovered progress, so a
// second recovery re-ingested chunks the state already contained. The
// second incarnation must therefore (a) republish at exactly the header
// version, (b) write new checkpoints beyond the recovered one within a few
// ticks, and (c) leave a third incarnation resuming from post-recovery
// progress, ending bit-identical to an uninterrupted run.
func TestChaosKillRecoverKillRecover(t *testing.T) {
	skipInShort(t)
	stream := driftStream{chunks: 24, rows: 25, drift: 2, seed: 21}
	dir := t.TempDir()
	newDep := func() *Deployer {
		t.Helper()
		cfg := liveConfig(ModeOnline)
		cfg.AutoCheckpoint = &CheckpointPolicy{Dir: dir, EveryTicks: 2, Keep: 3}
		d, err := NewDeployer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	// First incarnation: ingest, then crash.
	d1 := newDep()
	ingestChunks(t, d1, stream, 0, 9)
	d1.Shutdown()

	// Second incarnation: recover, tick a few chunks, crash again.
	d2 := newDep()
	info1, err := d2.RecoverFromDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.Current().Version(); got != info1.Version {
		t.Fatalf("restored snapshot version %d, want the header version %d", got, info1.Version)
	}
	resume1 := int(info1.Version) - 1
	ingestChunks(t, d2, stream, resume1, resume1+5)
	d2.Shutdown()
	if last, ok := d2.LastCheckpoint(); !ok || last.Version <= info1.Version {
		t.Fatalf("auto-checkpointing did not resume after recovery: last = %+v, recovered version %d",
			last, info1.Version)
	}

	// Third incarnation: recovery must resume from the second
	// incarnation's progress, not from the pre-crash checkpoint.
	d3 := newDep()
	defer d3.Shutdown()
	info2, err := d3.RecoverFromDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Version <= info1.Version {
		t.Fatalf("second recovery found version %d, want beyond the first recovery's %d", info2.Version, info1.Version)
	}
	resume2 := int(info2.Version) - 1
	if resume2 <= resume1 || resume2 > resume1+5 {
		t.Fatalf("second resume position %d, want in (%d, %d]", resume2, resume1, resume1+5)
	}
	ingestChunks(t, d3, stream, resume2, stream.chunks)

	// Reference: one uninterrupted run over the same stream.
	ref, err := NewDeployer(liveConfig(ModeOnline))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Shutdown()
	ingestChunks(t, ref, stream, 0, stream.chunks)
	if !bytes.Equal(payloadBytes(t, d3), payloadBytes(t, ref)) {
		t.Fatalf("doubly-recovered run is not bit-identical to the uninterrupted run (resumed at %d, then %d)",
			resume1, resume2)
	}
}

// TestChaosTornCheckpointFallsBack truncates the newest checkpoint file —
// the on-disk image of a crash mid-write — and requires recovery to skip it
// and restore the next-older valid checkpoint.
func TestChaosTornCheckpointFallsBack(t *testing.T) {
	skipInShort(t)
	dir := t.TempDir()
	stream := driftStream{chunks: 10, rows: 20, drift: 2, seed: 11}
	cfg := liveConfig(ModeOnline)
	cfg.AutoCheckpoint = &CheckpointPolicy{Dir: dir, EveryTicks: 1 << 30, Keep: 10}
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	// Three synchronous checkpoints at versions 2, 3, 4.
	for i := 0; i < 3; i++ {
		ingestChunks(t, d, stream, i, i+1)
		if _, err := d.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	files, err := snapstream.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 {
		t.Fatalf("have %d checkpoints, want 3", len(files))
	}

	// Tear the newest: keep the header intact but cut the payload short.
	newest := files[0]
	fi, err := os.Stat(newest.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newest.Path, fi.Size()-fi.Size()/3); err != nil {
		t.Fatal(err)
	}

	revived, err := NewDeployer(liveConfig(ModeOnline))
	if err != nil {
		t.Fatal(err)
	}
	defer revived.Shutdown()
	info, err := revived.RecoverFromDir(dir)
	if err != nil {
		t.Fatalf("recovery with one torn file: %v", err)
	}
	if info.Version != files[1].Version {
		t.Fatalf("recovered version %d, want fallback to %d", info.Version, files[1].Version)
	}

	// Tear every file: recovery must fail loudly, naming the rejects, and
	// must not be ErrNoCheckpoint (files exist, they are just unusable).
	for _, f := range files[1:] {
		if err := os.Truncate(f.Path, 10); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := revived.RecoverFromDir(dir); err == nil || errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("all-torn recovery: err = %v, want a hard error", err)
	}
}

// ingestLogged pushes one chunk through the logged ingest path exactly as
// the serve layer does: durable append first (the 202 ack point), then the
// consuming tick.
func ingestLogged(t *testing.T, d *Deployer, s Stream, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		chunk := s.Chunk(i)
		seq, err := d.AppendIngestLog(chunk)
		if err != nil {
			t.Fatalf("append chunk %d: %v", i, err)
		}
		if err := d.IngestLogged(context.Background(), chunk, time.Time{}, seq); err != nil {
			t.Fatalf("logged ingest chunk %d: %v", i, err)
		}
	}
}

// openSegmentPath returns the WAL's single active segment file.
func openSegmentPath(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".seg.open") {
			return filepath.Join(dir, e.Name())
		}
	}
	t.Fatalf("no active .seg.open segment in %s", dir)
	return ""
}

// TestChaosWALTornTailReplaysIntactPrefix kills the process mid-append: the
// active segment ends in half a record. Opening the log must cut the torn
// tail (that chunk was never acked, so the client retries it) and replay
// every intact record, converging to the uninterrupted run. No checkpoint
// is involved — this exercises the cold-start replay path.
func TestChaosWALTornTailReplaysIntactPrefix(t *testing.T) {
	skipInShort(t)
	stream := driftStream{chunks: 12, rows: 20, drift: 2, seed: 35}
	const (
		consumed = 4 // ticked before the kill
		appended = 7 // durably appended; the 7th record is torn mid-write
	)
	dir := t.TempDir()
	newCfg := func() Config {
		cfg := liveConfig(ModeOnline)
		cfg.IngestLog = &wal.Options{Dir: dir}
		return cfg
	}
	victim, err := NewDeployer(newCfg())
	if err != nil {
		t.Fatal(err)
	}
	ingestLogged(t, victim, stream, 0, consumed)
	for i := consumed; i < appended; i++ {
		if _, err := victim.AppendIngestLog(stream.Chunk(i)); err != nil {
			t.Fatalf("append queued chunk %d: %v", i, err)
		}
	}
	victim.Shutdown()

	// Tear the tail: cut into the last record's frame.
	seg := openSegmentPath(t, dir)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	revived, err := NewDeployer(newCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer revived.Shutdown()
	st, _ := revived.WALStats()
	if st.Truncations != 1 {
		t.Fatalf("torn-tail truncations = %d, want 1", st.Truncations)
	}
	// Cold start: no checkpoint, so replay rebuilds from every intact
	// logged record — all but the torn final one.
	n, err := revived.ReplayIngestLog()
	if err != nil {
		t.Fatal(err)
	}
	if n != appended-1 {
		t.Fatalf("replayed %d records, want %d (torn tail dropped)", n, appended-1)
	}

	// The torn chunk was never acked; the client re-sends it and the
	// stream continues. End state must match the uninterrupted run.
	ingestLogged(t, revived, stream, appended-1, stream.chunks)
	ref, err := NewDeployer(liveConfig(ModeOnline))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Shutdown()
	ingestChunks(t, ref, stream, 0, stream.chunks)
	if !bytes.Equal(payloadBytes(t, revived), payloadBytes(t, ref)) {
		t.Fatal("torn-tail recovery is not bit-identical to the uninterrupted run")
	}
}

// chaosStore builds a Store whose backend is Fault over Memory: the
// server's memory store with a programmable failure layer over it.
func chaosStore() (*data.Store, *data.FaultBackend) {
	fault := data.NewFaultBackend(data.NewMemoryBackend())
	return data.NewStore(fault), fault
}

// TestChaosFailedPutFailsTickCleanly: a raw chunk the store refuses fails
// the tick with the injected error surfaced, no snapshot may be published,
// and the deployment must keep working once the fault clears.
func TestChaosFailedPutFailsTickCleanly(t *testing.T) {
	skipInShort(t)
	store, fault := chaosStore()
	cfg := liveConfig(ModeOnline)
	cfg.Store = store
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	stream := driftStream{chunks: 4, rows: 20, drift: 2, seed: 13}
	ingestChunks(t, d, stream, 0, 1)
	before := d.Current().Version()

	fault.FailN(data.OpPutRaw, 100, errChaosStore)
	err = d.Ingest(stream.Chunk(1))
	if !errors.Is(err, errChaosStore) {
		t.Fatalf("failed-put tick: err = %v, want wrapped injected error", err)
	}
	if got := d.Current().Version(); got != before {
		t.Fatalf("failed tick published: version %d, want unchanged %d", got, before)
	}

	// Clear the fault; the deployment is not wedged.
	fault.Reset()
	if err := d.Ingest(stream.Chunk(1)); err != nil {
		t.Fatalf("tick after fault cleared: %v", err)
	}
	if got := d.Current().Version(); got != before+1 {
		t.Fatalf("post-recovery version %d, want %d", got, before+1)
	}
}

// TestChaosPhantomChunkNeverSampled: a raw chunk the backend refused does
// not enter the store's history. A continuous deployment whose put fails
// once fails that tick; every later tick trains on a sample of every
// retained id and succeeds, and the refused chunk's timestamp goes to the
// next chunk the backend takes.
func TestChaosPhantomChunkNeverSampled(t *testing.T) {
	skipInShort(t)
	store, fault := chaosStore()
	cfg := liveConfig(ModeContinuous)
	cfg.Store = store
	cfg.ProactiveEvery, cfg.SampleChunks = 1, 1<<10 // every tick samples the whole history
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	stream := driftStream{chunks: 8, rows: 20, drift: 2, seed: 13}
	ingestChunks(t, d, stream, 0, 2)

	fault.FailN(data.OpPutRaw, 100, errChaosStore)
	if err := d.Ingest(stream.Chunk(2)); !errors.Is(err, errChaosStore) {
		t.Fatalf("failed-put tick: err = %v, want wrapped injected error", err)
	}
	fault.Reset()

	runs := d.Stats().ProactiveRuns
	ingestChunks(t, d, stream, 2, stream.chunks)
	if got := d.Stats().ProactiveRuns - runs; got != stream.chunks-2 {
		t.Fatalf("%d proactive trainings over %d ticks, want one each", got, stream.chunks-2)
	}
	ids := store.RawIDs()
	for i, id := range ids {
		if id != data.Timestamp(i) {
			t.Fatalf("RawIDs = %v, want 0..%d", ids, stream.chunks-1)
		}
	}
	if len(ids) != stream.chunks {
		t.Fatalf("RawIDs = %v, want %d chunks", ids, stream.chunks)
	}
}

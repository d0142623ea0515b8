package core

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"cdml/internal/data"
	"cdml/internal/dataset"
	"cdml/internal/eval"
	"cdml/internal/model"
	"cdml/internal/opt"
	"cdml/internal/pipeline"
	"cdml/internal/snapstream"
)

// These tests pin the resume-state rule of DESIGN.md §5l: a snapshot's
// optimizer is exact or absent, never mixed. Exact means "the bytes the
// always-cloning publish of the previous design would have kept for that
// version"; the reference below is that design, kept as test code.

// alwaysCloneBytes is the always-clone reference: the whole payload of a
// snapshot built from the live writer state between ticks — pipeline and
// weights cloned and the optimizer encoded there and then, as a publish that
// copies all three on every tick holds them for the version it just
// published.
func alwaysCloneBytes(t *testing.T, d *Deployer) []byte {
	t.Helper()
	d.mu.Lock()
	pipe, mdl := d.pipe.Snapshot(), d.mdl.Clone()
	resume, err := opt.Encode(d.optm)
	d.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Snapshot{pipe: pipe, mdl: mdl, resume: resume}).payload()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestResumeStateMatchesAlwaysClone(t *testing.T) {
	optimizers := map[string]func() opt.Optimizer{
		"adam":     func() opt.Optimizer { return opt.NewAdam(0.05) },
		"rmsprop":  func() opt.Optimizer { return opt.NewRMSProp(0.05) },
		"momentum": func() opt.Optimizer { return opt.NewMomentum(0.05) },
	}
	stream := driftStream{chunks: 16, rows: 20, drift: 2, seed: 23}
	for name, newOpt := range optimizers {
		for _, every := range []int{0, 8} {
			t.Run(name+map[int]string{0: "/no-policy", 8: "/every-8"}[every], func(t *testing.T) {
				cfg := liveConfig(ModeOnline)
				cfg.NewOptimizer = newOpt
				if every > 0 {
					cfg.AutoCheckpoint = &CheckpointPolicy{Dir: t.TempDir(), EveryTicks: every}
				}
				d, err := NewDeployer(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer d.Shutdown()
				refCfg := liveConfig(ModeOnline)
				refCfg.NewOptimizer = newOpt
				ref, err := NewDeployer(refCfg)
				if err != nil {
					t.Fatal(err)
				}
				defer ref.Shutdown()

				// check asks for the current version as a frame and compares it
				// with the reference; wantCadence/wantDemand are the clones
				// that must have been paid for so far.
				var wantCadence, wantDemand int64
				check := func() {
					t.Helper()
					want := alwaysCloneBytes(t, ref)
					f, err := d.Current().Frame()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(f.Payload, want) {
						t.Fatalf("version %d: the frame differs from the always-clone reference", f.Version)
					}
					if c, dm := d.obs.resumeCadence.Value(), d.obs.resumeOnDemand.Value(); c != wantCadence || dm != wantDemand {
						t.Fatalf("version %d: resume clones cadence=%d demand=%d, want %d/%d", f.Version, c, dm, wantCadence, wantDemand)
					}
					// And the whole frame is a resume point: it restores.
					fresh, err := NewDeployer(refCfg)
					if err != nil {
						t.Fatal(err)
					}
					defer fresh.Shutdown()
					if err := fresh.SnapshotSink().Apply(f); err != nil {
						t.Fatalf("restoring version %d: %v", f.Version, err)
					}
					if !bytes.Equal(payloadBytes(t, fresh), want) {
						t.Fatalf("version %d restored to a different state", f.Version)
					}
				}
				tick := func(from, to int) {
					t.Helper()
					ingestChunks(t, d, stream, from, to)
					ingestChunks(t, ref, stream, from, to)
				}

				for i := 0; i < 7; i++ {
					tick(i, i+1)
					if d.current().resume != nil {
						t.Fatalf("tick %d published resume state nobody asked for", i+1)
					}
				}
				tick(7, 8)
				if every == 8 {
					// The 8th publish pokes the checkpoint writer, whose pull
					// completes it, so asking for it on demand costs nothing more.
					waitDurable(t, d, d.current().version)
					if d.current().resume == nil {
						t.Fatal("the version the checkpoint writer pulled carries no resume state")
					}
					wantCadence = 1
				} else {
					if d.current().resume != nil {
						t.Fatal("a deployment without a policy published resume state")
					}
					wantDemand = 1
				}
				check()
				check() // asked again: same version, no second clone
				tick(8, 13)
				wantDemand++
				check()
			})
		}
	}
}

// TestResumeClonesFollowTheHandOff: a plain publish captures nothing, and
// each cadence checkpoint is exactly one cause="cadence" capture — the
// writer's pull of the version it writes.
func TestResumeClonesFollowTheHandOff(t *testing.T) {
	const every = 3
	cfg := liveConfig(ModeOnline)
	cfg.AutoCheckpoint = &CheckpointPolicy{Dir: t.TempDir(), EveryTicks: every, Keep: 100}
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	stream := driftStream{chunks: 40, rows: 20, drift: 2, seed: 29}

	for i := 1; i <= 4*every; i++ {
		ingestChunks(t, d, stream, i-1, i)
		if i%every == 0 {
			waitDurable(t, d, d.current().version)
			if d.current().resume == nil {
				t.Fatalf("tick %d: the checkpointed version carries no resume state", i)
			}
		} else if d.current().resume != nil {
			t.Fatalf("tick %d: a plain publish carries resume state", i)
		}
		if c, w := d.obs.resumeCadence.Value(), d.ckpt.writes.Value(); c != int64(i/every) || w != c {
			t.Fatalf("tick %d: %d cadence captures for %d checkpoints, want %d of each", i, c, w, i/every)
		}
	}
	if d.obs.resumeOnDemand.Value() != 0 || d.ckpt.skips.Value() != 0 {
		t.Fatalf("demand captures = %d, skips = %d with no on-demand consumer and an idle writer",
			d.obs.resumeOnDemand.Value(), d.ckpt.skips.Value())
	}
}

// TestResumePointUnderConcurrentConsumers (run it under -race): ticks on
// one goroutine, every on-demand consumer hammering from others. Every
// frame any of them produced must be a real resume point — restored into a
// fresh deployer, the next tick lands bit for bit where the original's tick
// at that version did.
func TestResumePointUnderConcurrentConsumers(t *testing.T) {
	const ticks = 30
	stream := driftStream{chunks: ticks + 1, rows: 20, drift: 2, seed: 31}
	newCfg := func() Config { return liveConfig(ModeOnline) }

	// The uninterrupted trajectory: after[v] is the whole state behind
	// version v.
	ref, err := NewDeployer(newCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Shutdown()
	after := map[uint64][]byte{1: alwaysCloneBytes(t, ref)}
	for i := 0; i <= ticks; i++ {
		ingestChunks(t, ref, stream, i, i+1)
		after[uint64(i+2)] = alwaysCloneBytes(t, ref)
	}

	cfg := newCfg()
	cfg.AutoCheckpoint = &CheckpointPolicy{Dir: t.TempDir(), EveryTicks: 3, Keep: 100}
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()

	var (
		mu     sync.Mutex
		frames = map[uint64][][]byte{} // version → payloads seen
		wg     sync.WaitGroup
		stop   = make(chan struct{})
		ops    atomic.Int64 // consumer calls completed
	)
	keep := func(version uint64, payload []byte) {
		mu.Lock()
		frames[version] = append(frames[version], payload)
		mu.Unlock()
	}
	consumers := []func() error{
		func() error { // POST .../checkpoint
			info, err := d.CheckpointNow()
			if err != nil {
				return err
			}
			f, err := snapstream.ReadFile(info.Path)
			if err != nil {
				return err
			}
			keep(f.Version, f.Payload)
			return nil
		},
		func() error { // GET .../snapshot and the replication feed
			f, ok, err := d.FrameSince(0)
			if err != nil || !ok {
				return err
			}
			keep(f.Version, f.Payload)
			return nil
		},
		func() error {
			f, err := d.Current().Frame()
			if err != nil {
				return err
			}
			keep(f.Version, f.Payload)
			return nil
		},
	}
	errs := make(chan error, len(consumers))
	for _, c := range consumers {
		wg.Add(1)
		go func(c func() error) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := c(); err != nil {
					errs <- err
					return
				}
				ops.Add(1)
			}
		}(c)
	}
	for i := 0; i < ticks; i++ {
		ingestChunks(t, d, stream, i, i+1)
		// Let the consumers in between ticks, so that they see most versions
		// and race the next tick rather than an idle deployment.
		for target := ops.Load() + 3; ops.Load() < target && len(errs) == 0; {
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("on-demand consumer: %v", err)
	}

	if len(frames) < 2 {
		t.Fatalf("consumers captured %d versions; the hammer did not overlap the ticks", len(frames))
	}
	for version, payloads := range frames {
		want := after[version]
		for _, p := range payloads {
			if !bytes.Equal(p, want) {
				t.Fatalf("version %d: a consumer saw a state the deployment was never in", version)
			}
		}
		// One restore per version: the payloads are the same bytes.
		fresh, err := NewDeployer(newCfg())
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.SnapshotSink().Apply(snapstream.Frame{Version: version, Payload: payloads[0]}); err != nil {
			t.Fatalf("restoring version %d: %v", version, err)
		}
		ingestChunks(t, fresh, stream, int(version)-1, int(version))
		if !bytes.Equal(payloadBytes(t, fresh), after[version+1]) {
			t.Fatalf("version %d: the tick after the restore diverged from the original's", version)
		}
		fresh.Shutdown()
	}
}

// TestFailedTickWindow: a tick that fails after its online step (here the
// proactive gather hits a broken store) leaves the optimizer ahead of the
// published snapshot. Until the next successful tick every on-demand
// consumer answers ErrResumeUnavailable — never version V's weights with a
// later optimizer — and the last durable checkpoint stays what it was.
func TestFailedTickWindow(t *testing.T) {
	dir := t.TempDir()
	fault := data.NewFaultBackend(data.NewMemoryBackend())
	cfg := liveConfig(ModeContinuous)
	cfg.Store = data.NewStore(fault)
	cfg.ProactiveEvery = 1
	cfg.AutoCheckpoint = &CheckpointPolicy{Dir: dir, EveryTicks: 1 << 20}
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	stream := driftStream{chunks: 8, rows: 20, drift: 2, seed: 37}
	ingestChunks(t, d, stream, 0, 2)
	durable, err := d.CheckpointNow()
	if err != nil {
		t.Fatal(err)
	}
	ingestChunks(t, d, stream, 2, 3)
	before := d.Published()
	if before.resume != nil {
		t.Fatal("setup: the snapshot before the fault already carries resume state")
	}

	fault.FailN(data.OpGetFeatures, 1<<20, errChaosStore)
	if err := d.Ingest(stream.Chunk(3)); !errors.Is(err, errChaosStore) {
		t.Fatalf("tick with a failing gather: err = %v, want the injected error", err)
	}
	if d.Published() != before {
		t.Fatal("the failed tick published")
	}
	if _, err := d.CheckpointNow(); !errors.Is(err, ErrResumeUnavailable) {
		t.Fatalf("CheckpointNow in the window: %v, want ErrResumeUnavailable", err)
	}
	if _, ok, err := d.FrameSince(0); ok || !errors.Is(err, ErrResumeUnavailable) {
		t.Fatalf("FrameSince in the window: ok=%v err=%v, want ErrResumeUnavailable", ok, err)
	}
	if _, ok, err := d.FrameSince(before.Version()); ok || err != nil {
		t.Fatalf("an up-to-date poll in the window: ok=%v err=%v, want the idle answer", ok, err)
	}
	cur := d.Current()
	if cur != before {
		t.Fatal("Current in the window swapped the published snapshot")
	}
	if _, err := cur.Frame(); !errors.Is(err, ErrResumeUnavailable) {
		t.Fatalf("Frame of the window's snapshot: %v, want ErrResumeUnavailable", err)
	}
	if _, err := WriteCheckpointFile(t.TempDir(), cur); !errors.Is(err, ErrResumeUnavailable) {
		t.Fatalf("WriteCheckpointFile of the window's snapshot: %v, want ErrResumeUnavailable", err)
	}
	if d.obs.resumeOnDemand.Value() != 1 { // the CheckpointNow before the fault
		t.Fatalf("demand clones = %d: a refused request still cloned", d.obs.resumeOnDemand.Value())
	}
	if last, ok := d.LastCheckpoint(); !ok || last != durable {
		t.Fatalf("last durable checkpoint moved in the window: %+v, want %+v", last, durable)
	}
	revived, err := NewDeployer(liveConfig(ModeContinuous))
	if err != nil {
		t.Fatal(err)
	}
	defer revived.Shutdown()
	if info, err := revived.RecoverFromDir(dir); err != nil || info.Version != durable.Version {
		t.Fatalf("recovering in the window: %+v, %v", info, err)
	}

	// The next successful tick publishes a consistent pair again.
	fault.Reset()
	ingestChunks(t, d, stream, 4, 5)
	info, err := d.CheckpointNow()
	if err != nil {
		t.Fatalf("CheckpointNow after the window: %v", err)
	}
	if info.Version != before.Version()+1 {
		t.Fatalf("checkpoint after the window is version %d, want %d", info.Version, before.Version()+1)
	}
	f, err := d.Current().Frame()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Payload, alwaysCloneBytes(t, d)) {
		t.Fatal("the frame after the window does not pair the published weights with their optimizer")
	}
}

// TestEncodeWithoutResumeStateIsAnError: a snapshot that carries no
// optimizer refuses to encode before writing a byte.
func TestEncodeWithoutResumeStateIsAnError(t *testing.T) {
	d, err := NewDeployer(liveConfig(ModeOnline))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	bare := d.Published()
	if bare.resume != nil {
		t.Fatal("the initial publish cloned the optimizer")
	}
	if f, err := bare.Frame(); !errors.Is(err, ErrResumeUnavailable) || f.Payload != nil {
		t.Fatalf("Frame without resume state: err=%v after %d bytes", err, len(f.Payload))
	}
	if bare.buf == nil {
		t.Fatal("the initial publish did not serve from a ring buffer")
	}
	// Completing it builds a new value at the same version; the published
	// one is never written. The copy can be encoded, so it owns its weights
	// (the private-copy rule) and shares only the pipeline.
	full := d.Current()
	if full == bare || bare.resume != nil || full.resume == nil || full.Version() != bare.Version() ||
		full.pipe != bare.pipe || full.mdl == bare.mdl || full.buf != nil {
		t.Fatal("Current must swap in a copy sharing the pipeline and owning its weights, leaving the published value untouched")
	}
	if !sameBits(full.mdl.Weights(), bare.mdl.Weights()) {
		t.Fatal("the completed snapshot's weights differ from the published ones")
	}
	if d.Published() != full {
		t.Fatal("the completed snapshot was not swapped in")
	}
}

// TestPublishDoesNotReadTheCurve: publish is O(1) in uptime. After 50 000
// ticks' worth of error curve every recorded point is poisoned behind
// Append's back; a publish that still summed the curve would report NaN.
func TestPublishDoesNotReadTheCurve(t *testing.T) {
	d, err := NewDeployer(liveConfig(ModeOnline))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	d.mu.Lock()
	res := d.result
	var sum float64
	for i := 0; i < 50000; i++ {
		y := 0.25 + float64(i%7)/64
		res.ErrorCurve.Append(float64(i), y)
		sum += y
	}
	for i := range res.ErrorCurve.Ys {
		res.ErrorCurve.Ys[i] = math.NaN()
	}
	d.publish()
	d.mu.Unlock()
	if got, want := d.Stats().AvgError, sum/50000; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("AvgError after the publish = %v, want %v: publish read the curve", got, want)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestTickGarbageIsChunkSized: what a live tick allocates is its chunk, not
// the model. Quadrupling the URL model (2^15 → 2^17 hashed features, same
// chunks) must add less than a tenth of one weight vector's bytes per tick:
// the publish recycles a ring buffer instead of cloning the weights, and
// nothing else — not the optimizer's slots, not a dense gradient
// accumulator — is sized by the dimension.
func TestTickGarbageIsChunkSized(t *testing.T) {
	if testing.Short() {
		t.Skip("warms two URL deployments")
	}
	if raceEnabled() {
		t.Skip("under the race detector sync.Pool drops a quarter of its Puts on purpose, so accumulators are re-allocated at random")
	}
	perTick := func(hashDim int) float64 {
		gen := dataset.DefaultURLConfig()
		gen.Days, gen.ChunksPerDay, gen.RowsPerChunk, gen.Vocab = 100, 1, 80, 5000
		stream := dataset.NewURL(gen)
		cfg := liveConfig(ModeOnline)
		cfg.NewPipeline = func() *pipeline.Pipeline { return dataset.NewURLPipeline(hashDim) }
		cfg.NewModel = func() model.Model { return dataset.NewURLModel(hashDim, 1e-3) }
		cfg.Metric = &eval.Misclassification{}
		d, err := NewDeployer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Shutdown()
		const warm, measured = 40, 40
		// No collection while counting: a cycle may empty the accumulator
		// pool, and a re-allocated accumulator is noise here, not garbage
		// per tick.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		for i := 0; i < warm; i++ {
			if err := d.Ingest(stream.Chunk(i)); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := warm; i < warm+measured; i++ {
			if err := d.Ingest(stream.Chunk(i)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / measured
	}
	small, large := perTick(1<<15), perTick(1<<17)
	oneVector := float64((1<<17)-(1<<15)) * 8
	t.Logf("bytes allocated per tick: %.0f at 2^15, %.0f at 2^17", small, large)
	if extra := large - small; extra >= 0.10*oneVector {
		t.Fatalf("a tick at 2^17 allocates %.0f B more than at 2^15 (%.0f vs %.0f); the bound is a tenth of one weight vector, %.0f B",
			extra, large, small, 0.10*oneVector)
	}
}

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
	"time"

	"cdml/internal/data"
	"cdml/internal/dataset"
	"cdml/internal/eval"
	"cdml/internal/model"
	"cdml/internal/opt"
	"cdml/internal/pipeline"
	"cdml/internal/snapstream"
)

// These tests pin the resume-state rule of DESIGN.md §5l: every published
// version carries its own weights and optimizer, exact — "the bytes the
// always-cloning publish of an earlier design would have kept for that
// version"; the reference below is that design, kept as test code.

// alwaysCloneBytes is the always-clone reference: the whole payload of the
// live writer state between ticks — pipeline, weights and optimizer encoded
// there and then, under the writer lock, as a publish that copies all three
// on every tick holds them for the version it just published.
func alwaysCloneBytes(t *testing.T, d *Deployer) []byte {
	t.Helper()
	d.mu.Lock()
	b, err := (&Snapshot{pipe: d.pipe.Snapshot(), mdl: d.mdl, optm: d.optm}).payload()
	d.mu.Unlock()
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
				// with the reference.
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

				check()
				tick(0, 8)
				if every == 8 {
					// The 8th publish pokes the checkpoint writer: its file is
					// the reference's bytes too.
					waitDurable(t, d, d.current().version)
					last, _ := d.LastCheckpoint()
					f, err := snapstream.ReadFile(last.Path)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(f.Payload, alwaysCloneBytes(t, ref)) {
						t.Fatalf("the cadence checkpoint of version %d differs from the always-clone reference", f.Version)
					}
				}
				check()
				tick(8, 13)
				check()
			})
		}
	}
}

// TestCadenceCheckpointsFollowTheHandOff: each cadence checkpoint is the
// version of the publish that poked the writer, and a plain publish writes
// nothing.
func TestCadenceCheckpointsFollowTheHandOff(t *testing.T) {
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
		}
		if w := d.ckpt.writes.Value(); w != int64(i/every) {
			t.Fatalf("tick %d: %d checkpoints written, want %d", i, w, i/every)
		}
	}
	if d.ckpt.skips.Value() != 0 {
		t.Fatalf("skips = %d with an idle writer", d.ckpt.skips.Value())
	}
}

// TestEncodersNeverTakeTheWriterLock: with d.mu held — a tick in flight, as
// far as an encoder can tell — Current().Frame(), FrameSince(0) and
// CheckpointNow each return the published version's frame, each on a
// version nobody has encoded yet.
func TestEncodersNeverTakeTheWriterLock(t *testing.T) {
	cfg := liveConfig(ModeOnline)
	cfg.AutoCheckpoint = &CheckpointPolicy{Dir: t.TempDir(), EveryTicks: 1 << 20}
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	stream := driftStream{chunks: 8, rows: 20, drift: 2, seed: 43}
	encoders := []struct {
		name  string
		frame func() (snapstream.Frame, error)
	}{
		{"Current().Frame()", func() (snapstream.Frame, error) { return d.Current().Frame() }},
		{"FrameSince(0)", func() (snapstream.Frame, error) {
			f, _, err := d.FrameSince(0)
			return f, err
		}},
		{"CheckpointNow()", func() (snapstream.Frame, error) {
			info, err := d.CheckpointNow()
			if err != nil {
				return snapstream.Frame{}, err
			}
			return snapstream.ReadFile(info.Path)
		}},
	}
	type result struct {
		f   snapstream.Frame
		err error
	}
	for i, e := range encoders {
		ingestChunks(t, d, stream, i, i+1)
		want, version := alwaysCloneBytes(t, d), d.Published().Version()
		done := make(chan result, 1)
		d.mu.Lock()
		go func() {
			f, err := e.frame()
			done <- result{f, err}
		}()
		var r result
		select {
		case r = <-done:
			d.mu.Unlock()
		case <-time.After(5 * time.Second):
			d.mu.Unlock()
			<-done
			t.Fatalf("%s waited for the writer lock", e.name)
		}
		if r.err != nil || r.f.Version != version || !bytes.Equal(r.f.Payload, want) {
			t.Fatalf("%s with the writer lock held: version %d (err %v), want version %d's frame", e.name, r.f.Version, r.err, version)
		}
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
// proactive gather hits a broken store) publishes nothing. Until the next
// successful tick every consumer gets version V's own frame — byte-equal to
// one taken before the failing tick — and a deployer revived from the
// checkpoint written in the window recovers V.
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
	ingestChunks(t, d, stream, 0, 3)
	before := d.Published()
	want, ok, err := d.FrameSince(0)
	if err != nil || !ok || want.Version != before.Version() {
		t.Fatalf("setup: frame of version %d: ok=%v err=%v", want.Version, ok, err)
	}

	fault.FailN(data.OpGetFeatures, 1<<20, errChaosStore)
	if err := d.Ingest(stream.Chunk(3)); !errors.Is(err, errChaosStore) {
		t.Fatalf("tick with a failing gather: err = %v, want the injected error", err)
	}
	if d.Published() != before {
		t.Fatal("the failed tick published")
	}
	isV := func(what string, f snapstream.Frame, err error) {
		t.Helper()
		if err != nil || f.Version != want.Version || !bytes.Equal(f.Payload, want.Payload) {
			t.Fatalf("%s in the window: version %d (err %v), want version %d's frame", what, f.Version, err, want.Version)
		}
	}
	info, err := d.CheckpointNow()
	if err != nil {
		t.Fatal(err)
	}
	f, err := snapstream.ReadFile(info.Path)
	isV("CheckpointNow", f, err)
	f, ok, err = d.FrameSince(0)
	isV("FrameSince(0)", f, err)
	if !ok {
		t.Fatal("FrameSince(0) in the window framed nothing")
	}
	if _, ok, err := d.FrameSince(before.Version()); ok || err != nil {
		t.Fatalf("an up-to-date poll in the window: ok=%v err=%v, want the idle answer", ok, err)
	}
	f, err = d.Current().Frame()
	isV("Current().Frame()", f, err)

	revived, err := NewDeployer(liveConfig(ModeContinuous))
	if err != nil {
		t.Fatal(err)
	}
	defer revived.Shutdown()
	if info, err := revived.RecoverFromDir(dir); err != nil || info.Version != want.Version {
		t.Fatalf("recovering the window's checkpoint: %+v, %v", info, err)
	}
	if !bytes.Equal(payloadBytes(t, revived), want.Payload) {
		t.Fatal("the revived deployer is not in version V's state")
	}

	// The next successful tick publishes the live state.
	fault.Reset()
	ingestChunks(t, d, stream, 4, 5)
	if info, err = d.CheckpointNow(); err != nil || info.Version != before.Version()+1 {
		t.Fatalf("checkpoint after the window: version %d (err %v), want %d", info.Version, err, before.Version()+1)
	}
	if !bytes.Equal(payloadBytes(t, d), alwaysCloneBytes(t, d)) {
		t.Fatal("the frame after the window does not pair the published weights with their optimizer")
	}
}

// TestEncodeWithoutResumeStateIsAnError: a snapshot whose optimizer state
// cannot be encoded in place — one carrying no optimizer, or the published
// one, whose weights and optimizer are the writer's ring buffer — refuses to
// encode before writing a byte. Current copies the published snapshot into
// one at the same version that shares only the pipeline, owns its weights
// and optimizer, and leaves the published value as it was.
func TestEncodeWithoutResumeStateIsAnError(t *testing.T) {
	d, err := NewDeployer(liveConfig(ModeOnline))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	bare := &Snapshot{pipe: d.Published().pipe, mdl: d.Model(), version: 1}
	if f, err := bare.Frame(); err == nil || f.Payload != nil {
		t.Fatalf("Frame without an optimizer: err=%v after %d bytes", err, len(f.Payload))
	}
	ingestChunks(t, d, smallStream, 0, 5)
	p := d.Published()
	if p.buf == nil {
		t.Fatal("the published snapshot does not serve from a ring buffer")
	}
	if f, err := p.Frame(); err == nil || f.Payload != nil {
		t.Fatalf("Frame of a ring-backed snapshot: err=%v after %d bytes", err, len(f.Payload))
	}
	c := d.Current()
	if c == p || c.buf != nil || c.Version() != p.Version() || c.pipe != p.pipe ||
		c.mdl == p.mdl || c.optm == p.optm || d.Published() != p || p.buf == nil {
		t.Fatal("Current must return a copy sharing the pipeline and owning its weights and optimizer, leaving the published value untouched")
	}
	if !sameBits(c.mdl.Weights(), p.mdl.Weights()) {
		t.Fatal("the copy's weights differ from the published ones")
	}
	if _, err := c.Frame(); err != nil {
		t.Fatalf("Frame of the copy: %v", err)
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

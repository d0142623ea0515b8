package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cdml/internal/data"
	"cdml/internal/dataset"
	"cdml/internal/drift"
	"cdml/internal/linalg"
	"cdml/internal/model"
	"cdml/internal/opt"
	"cdml/internal/pipeline"
)

// ringState returns the ring's buffers.
func ringState(d *Deployer) []*weightBuf {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Clone(d.ring.bufs)
}

// TestPinnedSnapshotKeepsItsWeights: a pinned snapshot's buffer is never
// rewritten, however many publishes go by — twice round a ring's worth.
func TestPinnedSnapshotKeepsItsWeights(t *testing.T) {
	d, err := NewDeployer(liveConfig(ModeOnline))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	ingestChunks(t, d, smallStream, 0, 3)
	s := d.pin()
	if s.buf == nil {
		t.Fatal("the published snapshot does not serve from a ring buffer")
	}
	want := slices.Clone(s.mdl.Weights())
	ingestChunks(t, d, smallStream, 3, 3+2*ringSize)
	if got := s.mdl.Weights(); !sameBits(got, want) {
		t.Fatalf("pinned weights changed across %d publishes: %v, want %v", 2*ringSize, got, want)
	}
	if sameBits(d.Model().Weights(), want) {
		t.Fatal("the deployed weights did not move: the test exercises nothing")
	}
	unpin(s)
}

// TestPublishWithEveryBufferPinned: when every buffer is pinned a publish
// still succeeds, on a clone the ring does not keep, and the ring never
// holds more than ringSize buffers.
func TestPublishWithEveryBufferPinned(t *testing.T) {
	d, err := NewDeployer(liveConfig(ModeOnline))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	type held struct {
		s *Snapshot
		w []float64
	}
	var pins []held
	private := 0
	for i := 0; i < 2*ringSize; i++ {
		s := d.pin()
		pins = append(pins, held{s, slices.Clone(s.mdl.Weights())})
		ingestChunks(t, d, smallStream, i, i+1)
		bufs := ringState(d)
		if len(bufs) > ringSize {
			t.Fatalf("the ring grew to %d buffers", len(bufs))
		}
		p := d.Published()
		if !sameBits(p.mdl.Weights(), d.Model().Weights()) {
			t.Fatalf("publish %d does not serve the deployed weights", p.Version())
		}
		if p.buf == nil {
			private++
			for _, b := range bufs {
				if b.mdl == p.mdl {
					t.Fatal("the fallback clone was kept in a full ring")
				}
			}
		}
	}
	if private == 0 {
		t.Fatal("no publish fell back to a private clone: the test exercises nothing")
	}
	for _, h := range pins {
		if !sameBits(h.s.mdl.Weights(), h.w) {
			t.Fatalf("the weights of pinned version %d changed", h.s.Version())
		}
		unpin(h.s)
	}
}

// TestApplyRecyclesTheRing: a restore keeps the ring's buffers — the
// restored model has the deployed one's shape — and its publish and the ones
// after it recycle them, each holding the deployed state bit for bit, the
// first of them the restored payload's.
func TestApplyRecyclesTheRing(t *testing.T) {
	d, err := NewDeployer(sparseURLConfig(ModeOnline))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	ingestChunks(t, d, sparseURLStream, 0, 4)
	f := frameOf(t, d)
	ingestChunks(t, d, sparseURLStream, 4, 8)
	old := ringState(d)
	if len(old) == 0 {
		t.Fatal("no ring buffers before the restore")
	}
	if err := d.SnapshotSink().Apply(f); err != nil {
		t.Fatal(err)
	}
	requirePublishedIsDeployed(t, d, old)
	if !bytes.Equal(payloadBytes(t, d), f.Payload) {
		t.Fatal("the recycled buffer does not hold the restored state")
	}
	for i := 8; i < 12; i++ {
		ingestChunks(t, d, sparseURLStream, i, i+1)
		requirePublishedIsDeployed(t, d, old)
	}
	if bufs := ringState(d); !slices.Equal(bufs, old) {
		t.Fatal("the restore replaced the ring's buffers")
	}
}

// TestCurrentOwnsItsWeights: a snapshot that can be encoded is not in the
// ring, so its frame is the same bytes however many publishes follow.
func TestCurrentOwnsItsWeights(t *testing.T) {
	d, err := NewDeployer(liveConfig(ModeOnline))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	ingestChunks(t, d, smallStream, 0, 5)
	c := d.Current()
	if c.buf != nil {
		t.Fatal("Current returned a snapshot that shares a ring buffer")
	}
	before, err := c.Frame()
	if err != nil {
		t.Fatal(err)
	}
	ingestChunks(t, d, smallStream, 5, 15)
	after, err := c.Frame()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Payload, after.Payload) {
		t.Fatal("the frame of a Current() snapshot changed across 10 publishes")
	}
}

// TestPinsAcrossPublishesKeepWeightsAndSlots: with every ring buffer pinned,
// three more publishes fall back to private copies, and each pinned buffer's
// weights and optimizer slots stay what they were when it was pinned.
func TestPinsAcrossPublishesKeepWeightsAndSlots(t *testing.T) {
	d, err := NewDeployer(liveConfig(ModeOnline))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	type held struct {
		s     *Snapshot
		w     []float64
		slots []byte
	}
	var pins []held
	for i := 0; i < ringSize; i++ {
		ingestChunks(t, d, smallStream, i, i+1)
		s := d.pin()
		slots, err := opt.Encode(s.optm)
		if err != nil {
			t.Fatal(err)
		}
		pins = append(pins, held{s, slices.Clone(s.mdl.Weights()), slots})
	}
	for i := ringSize; i < 2*ringSize; i++ {
		ingestChunks(t, d, smallStream, i, i+1)
		if p := d.Published(); p.buf != nil {
			t.Fatalf("publish %d with every buffer pinned took a ring buffer", p.Version())
		}
		if !bytes.Equal(payloadBytes(t, d), alwaysCloneBytes(t, d)) {
			t.Fatalf("the private copy of version %d is not the live state", d.Published().Version())
		}
	}
	if sameBits(d.Model().Weights(), pins[0].w) {
		t.Fatal("the deployed weights did not move: the test exercises nothing")
	}
	for _, h := range pins {
		slots, err := opt.Encode(h.s.optm)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(h.s.mdl.Weights(), h.w) || !bytes.Equal(slots, h.slots) {
			t.Fatalf("the weights or slots of pinned version %d changed", h.s.Version())
		}
		unpin(h.s)
	}
}

// ringRig is a deployed model and optimizer with their weight ring, stepped
// and published the way a Deployer does it: every step marks the ring
// (stepDeployed), every publish takes a buffer.
type ringRig struct {
	mdl  model.Model
	optm opt.Optimizer
	ring weightRing
}

func (g *ringRig) step(t *testing.T, batch []data.Instance) {
	t.Helper()
	grad, _, err := step(context.Background(), g.mdl, g.optm, batch)
	if err != nil {
		t.Fatal(err)
	}
	g.ring.mark(grad)
}

// apply is a step with a given gradient.
func (g *ringRig) apply(grad linalg.Vector) {
	g.mdl.Apply(grad, g.optm)
	g.ring.mark(grad)
}

// take is a publish: it takes a buffer and requires it to hold the deployed
// weights and optimizer bit for bit.
func (g *ringRig) take(t *testing.T, published *weightBuf) *weightBuf {
	t.Helper()
	mdl, optm, buf := g.ring.take(g.mdl, g.optm, published)
	requireSameState(t, mdl, optm, g.mdl, g.optm)
	return buf
}

// requireSameState fails unless the weights are equal bit for bit and the
// optimizers encode to the same bytes.
func requireSameState(t *testing.T, mdl model.Model, optm opt.Optimizer, wantMdl model.Model, wantOpt opt.Optimizer) {
	t.Helper()
	if !sameBits(mdl.Weights(), wantMdl.Weights()) {
		t.Fatal("the buffer's weights are not the deployed weights")
	}
	got, err := opt.Encode(optm)
	if err != nil {
		t.Fatal(err)
	}
	want, err := opt.Encode(wantOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the buffer's optimizer is not the deployed optimizer")
	}
}

var optimizerKinds = []string{"sgd", "momentum", "adam", "rmsprop", "adadelta", "ftrl"}

// ringCase is a model with the batches it steps on: the url model's sparse
// steps, narrow enough to stay under the whole-copy bound across
// ringSize + 1 versions or wide enough to cross it, and the taxi model's
// dense steps.
type ringCase struct {
	name  string
	model func() model.Model
	batch func(r *rand.Rand) []data.Instance
}

func ringCases() []ringCase {
	const urlDim = 1 << 10
	sparse := func(rows int) func(r *rand.Rand) []data.Instance {
		return func(r *rand.Rand) []data.Instance {
			out := make([]data.Instance, rows)
			for k := range out {
				idx, val := make([]int32, 4), make([]float64, 4)
				for j := range idx {
					idx[j], val[j] = int32(r.Intn(urlDim)), r.NormFloat64()
				}
				out[k] = data.Instance{X: linalg.NewSparse(urlDim, idx, val), Y: float64(2*r.Intn(2) - 1)}
			}
			return out
		}
	}
	return []ringCase{
		{"url", func() model.Model { return dataset.NewURLModel(urlDim, 1e-3) }, sparse(2)},
		{"url-wide", func() model.Model { return dataset.NewURLModel(urlDim, 1e-3) }, sparse(60)},
		{"taxi", func() model.Model { return dataset.NewTaxiModel(1e-4) }, func(r *rand.Rand) []data.Instance {
			out := make([]data.Instance, 3)
			for k := range out {
				x := make(linalg.Dense, dataset.TaxiFeatureDim)
				for j := range x {
					x[j] = r.NormFloat64()
				}
				out[k] = data.Instance{X: x, Y: r.NormFloat64()}
			}
			return out
		}},
	}
}

// TestRingRefreshEqualsWholeCopy: a buffer brought up to date after k
// versions of steps — k = 1 … ringSize+1, pinned in between so that the
// publishes skip it — holds exactly what a whole copy would: the weights bit
// for bit and the optimizer's Encode bytes. So does every buffer the
// publishes in between take. That holds for every optimizer kind, for the
// sparse url model (copied by its stale coordinates), the dense taxi model
// (copied whole), and for a buffer first copied from a fresh optimizer,
// whose slots the first step allocates.
func TestRingRefreshEqualsWholeCopy(t *testing.T) {
	for _, c := range ringCases() {
		for _, kind := range optimizerKinds {
			for _, fresh := range []bool{true, false} {
				for k := 1; k <= ringSize+1; k++ {
					t.Run(fmt.Sprintf("%s/%s/fresh=%v/k=%d", c.name, kind, fresh, k), func(t *testing.T) {
						r := rand.New(rand.NewSource(int64(k)))
						o, err := opt.New(kind, 0.05)
						if err != nil {
							t.Fatal(err)
						}
						g := &ringRig{mdl: c.model(), optm: o}
						if !fresh {
							g.step(t, c.batch(r))
						}
						x := g.take(t, nil)
						x.readers.Add(1)
						published := x
						for v := 1; v < k; v++ {
							g.step(t, c.batch(r))
							published = g.take(t, published)
							if published == x {
								t.Fatal("a publish took a pinned buffer")
							}
						}
						x.readers.Add(-1)
						for _, b := range g.ring.bufs {
							if b != x {
								b.readers.Add(1)
							}
						}
						g.step(t, c.batch(r))
						g.step(t, c.batch(r))
						if c.name == "url" && !fresh && (x.stale.all || len(x.stale.idx) == 0) {
							t.Fatal("the buffer is not refreshed by its stale coordinates: the test exercises nothing")
						}
						if got := g.take(t, nil); got != x {
							t.Fatal("the publish did not take the one unpinned buffer")
						}
					})
				}
			}
		}
	}
}

// alwaysDrift reports drift on every observation, so that every tick ends
// in a drift-triggered proactive training of DriftBoost steps.
type alwaysDrift struct{}

func (alwaysDrift) Name() string                { return "always" }
func (alwaysDrift) Observe(float64) drift.State { return drift.StateDrift }
func (alwaysDrift) State() drift.State          { return drift.StateDrift }
func (alwaysDrift) Reset()                      {}

// firstChunks is the first n chunks of a stream.
type firstChunks struct {
	Stream
	n int
}

func (s firstChunks) NumChunks() int { return s.n }

// requirePublishedIsDeployed fails unless the published snapshot's weights
// and optimizer are the deployed ones bit for bit, refreshed in a buffer the
// ring held before the path ran.
func requirePublishedIsDeployed(t *testing.T, d *Deployer, before []*weightBuf) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.current()
	if p.buf == nil || !slices.Contains(before, p.buf) {
		t.Fatal("the publish did not refresh a recycled buffer: the test exercises nothing")
	}
	requireSameState(t, p.mdl, p.optm, d.mdl, d.optm)
}

// sparseURLConfig is a url deployment of 2^14 features, trained on
// sparseURLStream. Its steps are sparse, so its ring buffers are refreshed
// by their stale coordinates, and a write that leaves the ring unmarked
// leaves a recycled buffer stale.
func sparseURLConfig(mode Mode) Config {
	cfg := liveConfig(mode)
	cfg.NewPipeline = func() *pipeline.Pipeline { return dataset.NewURLPipeline(sparseURLDim) }
	cfg.NewModel = func() model.Model { return dataset.NewURLModel(sparseURLDim, 1e-3) }
	cfg.ProactiveEvery, cfg.RetrainEvery = 1<<30, 1<<30
	return cfg
}

const sparseURLDim = 1 << 14

var sparseURLStream = func() Stream {
	gen := dataset.DefaultURLConfig()
	gen.Days, gen.ChunksPerDay, gen.RowsPerChunk, gen.Vocab, gen.HashDim = 4, 3, 20, 2000, sparseURLDim
	return dataset.NewURL(gen)
}()

// TestEveryWritePathMarksTheRing: after each way the deployed model and
// optimizer are written — an online tick, a drift-triggered proactive
// training of DriftBoost > 1 steps, a warm-start and a cold periodical
// retraining, Run's initial training, a restore — the buffer the following
// publish took holds them bit for bit, and it is a buffer the ring held
// before. The deployment is a sparseURLConfig one.
func TestEveryWritePathMarksTheRing(t *testing.T) {
	config, stream := sparseURLConfig, sparseURLStream
	retraining := func(warm bool) func() Config {
		return func() Config {
			cfg := config(ModePeriodical)
			cfg.RetrainEvery, cfg.WarmStart = 4, warm
			return cfg
		}
	}
	// Three ticks warm the ring up to two buffers; each path then writes
	// and publishes, and its publish takes the older of the two.
	tick := func(t *testing.T, d *Deployer) { ingestChunks(t, d, stream, 3, 4) }
	paths := []struct {
		name   string
		config func() Config
		write  func(t *testing.T, d *Deployer)
	}{
		{"online tick", func() Config { return config(ModeOnline) }, tick},
		{"drift-boosted proactive training", func() Config {
			cfg := config(ModeContinuous)
			cfg.DriftDetector, cfg.DriftBoost = alwaysDrift{}, 3
			return cfg
		}, tick},
		{"warm-start retraining", retraining(true), tick},
		{"cold retraining", retraining(false), tick},
		{"initial training", func() Config {
			cfg := config(ModeOnline)
			cfg.InitialChunks = 3
			return cfg
		}, func(t *testing.T, d *Deployer) {
			// Run on a deployment that has published: its initial training
			// steps the model the ring holds copies of, and Run's one
			// publish recycles a buffer.
			if _, err := d.Run(firstChunks{stream, 4}); err != nil {
				t.Fatal(err)
			}
		}},
		{"restore", func() Config { return config(ModeOnline) }, func(t *testing.T, d *Deployer) {
			f := frameOf(t, d)
			ingestChunks(t, d, stream, 3, 5)
			if err := d.SnapshotSink().Apply(f); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			d, err := NewDeployer(p.config())
			if err != nil {
				t.Fatal(err)
			}
			defer d.Shutdown()
			ingestChunks(t, d, stream, 0, 3)
			before := ringState(d)
			p.write(t, d)
			requirePublishedIsDeployed(t, d, before)
			// The ring after the path recycles its buffers on their marks.
			before = ringState(d)
			ingestChunks(t, d, stream, 5, 7)
			requirePublishedIsDeployed(t, d, before)
		})
	}
}

// FuzzRingRefresh drives a deployed model and optimizer and their ring
// through a mix, read from the input, of sparse steps (some wide enough to
// cross the whole-copy bound), dense steps, pins, unpins and publishes.
// Every buffer a publish takes must hold the deployed weights and optimizer
// bit for bit, and a pinned buffer must keep its weights until unpinned.
// The first byte picks the optimizer kind; the input also seeds the step
// values, so a run is a pure function of it.
func FuzzRingRefresh(f *testing.F) {
	f.Add([]byte{2, 0, 4, 0, 4, 0, 4, 0, 4})
	f.Add([]byte{5, 0, 2, 4, 8, 4, 3, 0, 4, 9, 4, 1, 4, 7, 0, 4, 4})
	f.Add([]byte{0, 1, 4, 5, 4, 2, 2, 2, 4, 4, 4, 3, 3, 3, 10, 4})
	f.Add(append([]byte{3}, bytes.Repeat([]byte{0, 0, 4}, 40)...))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		const dim = 256
		seed := int64(1)
		for _, b := range ops {
			seed = seed*31 + int64(b)
		}
		r := rand.New(rand.NewSource(seed))
		o, err := opt.New(optimizerKinds[int(ops[0])%len(optimizerKinds)], 0.05)
		if err != nil {
			t.Fatal(err)
		}
		g := &ringRig{mdl: model.NewSVM(dim, 1e-3), optm: o}
		type held struct {
			b *weightBuf
			w []float64
		}
		var pins []held
		var published *weightBuf
		for _, b := range ops[1:] {
			switch b % 5 {
			case 0: // a sparse step on up to 8 coordinates, or up to 64
				n := 1 + r.Intn(8)
				if b&0x80 != 0 {
					n = 1 + r.Intn(64)
				}
				idx, val := make([]int32, n), make([]float64, n)
				for k := range idx {
					idx[k], val[k] = int32(r.Intn(dim+1)), r.NormFloat64()
				}
				g.apply(linalg.NewSparse(dim+1, idx, val))
			case 1: // a dense step
				grad := make(linalg.Dense, dim+1)
				for k := range grad {
					grad[k] = r.NormFloat64()
				}
				g.apply(grad)
			case 2: // a reader pins a buffer of the ring
				if len(g.ring.bufs) > 0 {
					pb := g.ring.bufs[int(b>>3)%len(g.ring.bufs)]
					pb.readers.Add(1)
					pins = append(pins, held{pb, slices.Clone(pb.mdl.Weights())})
				}
			case 3: // the oldest pin is released
				if len(pins) > 0 {
					h := pins[0]
					pins = pins[1:]
					if !sameBits(h.b.mdl.Weights(), h.w) {
						t.Fatal("a pinned buffer's weights changed")
					}
					h.b.readers.Add(-1)
				}
			case 4: // a publish
				published = g.take(t, published)
			}
			if len(g.ring.bufs) > ringSize {
				t.Fatalf("the ring grew to %d buffers", len(g.ring.bufs))
			}
		}
	})
}

package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"cdml/internal/data"
	"cdml/internal/dataset"
	"cdml/internal/eval"
	"cdml/internal/model"
	"cdml/internal/obs"
	"cdml/internal/pipeline"
)

func TestLiveIngestPredictStats(t *testing.T) {
	d, err := NewDeployer(baseConfig(ModeContinuous))
	if err != nil {
		t.Fatal(err)
	}
	s := smallStream
	for i := 0; i < 20; i++ {
		if err := d.Ingest(s.Chunk(i)); err != nil {
			t.Fatal(err)
		}
	}
	preds, err := d.Predict(s.Chunk(21))
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != s.rows {
		t.Fatalf("predictions = %d", len(preds))
	}
	for _, p := range preds {
		if p != 1 && p != -1 {
			t.Fatalf("prediction %v not a label", p)
		}
	}
	st := d.Stats()
	if st.Evaluated != int64(20*s.rows) {
		t.Fatalf("evaluated = %d", st.Evaluated)
	}
	if st.ProactiveRuns == 0 {
		t.Fatal("no proactive training via Ingest")
	}
	if st.FinalError <= 0 || st.FinalError >= 0.5 {
		t.Fatalf("live error = %v", st.FinalError)
	}
	if st.ErrorCurve.Len() != 20 {
		t.Fatalf("curve points = %d", st.ErrorCurve.Len())
	}
}

// TestLiveCurvesAreBounded: a live deployment's curves gained a point a tick
// for as long as the process lived, and /stats read the chunk count off their
// length. Far more ticks than curvePoints: the curves stay inside the
// budget and still span the whole run, the chunk count and the average error
// are those of every tick, and a Stats result taken before the curves were
// thinned keeps the points it had.
func TestLiveCurvesAreBounded(t *testing.T) {
	d, err := NewDeployer(liveConfig(ModeOnline))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	const ticks = 2*curvePoints + curvePoints/2 + 7
	s := driftStream{chunks: ticks, rows: 2, drift: 1, seed: 11}
	var (
		sum   float64
		early Result
		held  []float64
	)
	for i := 0; i < ticks; i++ {
		ingestChunks(t, d, s, i, i+1)
		sum += d.Stats().FinalError
		if i == curvePoints-1 {
			early = d.Stats()
			held = append([]float64(nil), early.ErrorCurve.Ys...)
		}
	}
	st := d.Stats()
	if st.Chunks != ticks {
		t.Fatalf("Chunks = %d after %d ticks", st.Chunks, ticks)
	}
	for _, c := range []*eval.Series{st.ErrorCurve, st.CostCurve} {
		if c.Len() > curvePoints || c.Len() < curvePoints/2 {
			t.Fatalf("%s holds %d points after %d ticks, budget %d", c.Name, c.Len(), ticks, curvePoints)
		}
		if first, last := c.Xs[0], c.Xs[c.Len()-1]; first != 1 || last <= ticks-4 {
			t.Fatalf("%s spans x = %v..%v of a %d-tick run", c.Name, first, last, ticks)
		}
	}
	if got, want := st.AvgError, sum/ticks; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("AvgError = %v, the mean over every tick is %v", got, want)
	}
	if len(held) != curvePoints || !slices.Equal(early.ErrorCurve.Ys, held) {
		t.Fatalf("thinning the live curve rewrote a published one (%d points held)", len(held))
	}
}

func TestLiveMatchesRun(t *testing.T) {
	// Driving the deployment chunk-by-chunk through Ingest must produce the
	// same final model error as Run over the same stream (with
	// InitialChunks=0 so both paths see identical data).
	mk := func() Config {
		cfg := baseConfig(ModeContinuous)
		cfg.InitialChunks = 0
		cfg.Store = data.NewStore(data.NewMemoryBackend())
		return cfg
	}
	s := driftStream{chunks: 40, rows: 30, drift: 1, seed: 31}

	runDep, err := NewDeployer(mk())
	if err != nil {
		t.Fatal(err)
	}
	runRes, err := runDep.Run(s)
	if err != nil {
		t.Fatal(err)
	}

	liveDep, err := NewDeployer(mk())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.chunks; i++ {
		if err := liveDep.Ingest(s.Chunk(i)); err != nil {
			t.Fatal(err)
		}
	}
	liveRes := liveDep.Stats()
	if runRes.FinalError != liveRes.FinalError {
		t.Fatalf("Run error %v != live error %v", runRes.FinalError, liveRes.FinalError)
	}
	if runRes.ProactiveRuns != liveRes.ProactiveRuns {
		t.Fatalf("Run trainings %d != live trainings %d", runRes.ProactiveRuns, liveRes.ProactiveRuns)
	}
}

// countingParser and counted count the calls a tick makes into its pipeline.
type countingParser struct {
	driftParser
	parses int
}

func (p *countingParser) Parse(records [][]byte) (*data.Frame, error) {
	p.parses++
	return p.driftParser.Parse(records)
}

type counted struct {
	pipeline.Component
	transforms int
}

func (c *counted) Transform(f *data.Frame) (*data.Frame, error) {
	c.transforms++
	return c.Component.Transform(f)
}

// recordingMetric keeps every prequential score the deployment observes.
type recordingMetric struct {
	eval.Misclassification
	preds []float64
}

func (m *recordingMetric) Observe(pred, actual float64) {
	m.preds = append(m.preds, pred)
	m.Misclassification.Observe(pred, actual)
}

// TestTickParsesOnce: a tick runs the parser and the pipeline's stateless
// head once, and only the rest of the pipeline twice (serve, then online),
// while scoring exactly what a ProcessServe before a ProcessOnline of each
// chunk scores.
func TestTickParsesOnce(t *testing.T) {
	const ticks = 12
	newComps := func() []pipeline.Component {
		return []pipeline.Component{
			pipeline.NewInteraction([][2]string{{"x0", "x1"}}),
			pipeline.NewStandardScaler([]string{"x0", "x1"}),
			pipeline.NewAssembler([]string{"x0", "x1", "x0*x1"}, nil, "features"),
		}
	}
	comps := newComps()
	parser := &countingParser{}
	head, stateful, tail := &counted{Component: comps[0]}, &counted{Component: comps[1]}, &counted{Component: comps[2]}
	metric := &recordingMetric{}
	cfg := baseConfig(ModeOnline)
	cfg.InitialChunks = 0
	cfg.Predict = RegressionPredictor
	cfg.Metric = metric
	cfg.NewModel = func() model.Model { return model.NewSVM(3, 1e-4) }
	cfg.NewPipeline = func() *pipeline.Pipeline { return pipeline.New(parser, head, stateful, tail) }
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	ingestChunks(t, d, smallStream, 0, ticks)
	for _, c := range []struct {
		what      string
		got, want int
	}{
		{"parser", parser.parses, ticks},
		{"stateless head", head.transforms, ticks},
		{"stateful component", stateful.transforms, 2 * ticks},
		{"stateless tail", tail.transforms, 2 * ticks},
	} {
		if c.got != c.want {
			t.Errorf("%s ran %d times over %d ticks, want %d", c.what, c.got, ticks, c.want)
		}
	}

	ref := pipeline.New(driftParser{}, newComps()...)
	mdl, om := cfg.NewModel(), cfg.NewOptimizer()
	var want []float64
	for i := 0; i < ticks; i++ {
		served, err := ref.ProcessServe(smallStream.Chunk(i))
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range served {
			want = append(want, RegressionPredictor(mdl, in.X))
		}
		online, err := ref.ProcessOnline(smallStream.Chunk(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Step(context.Background(), mdl, om, online); err != nil {
			t.Fatal(err)
		}
	}
	if len(metric.preds) != len(want) {
		t.Fatalf("%d prequential scores, want %d", len(metric.preds), len(want))
	}
	for i := range want {
		if math.Float64bits(metric.preds[i]) != math.Float64bits(want[i]) {
			t.Fatalf("prequential score %d = %v, want %v", i, metric.preds[i], want[i])
		}
	}
}

// TestURLTickHashesTokensOnce: the URL pipeline's token hasher is part of
// its stateless head, so a tick runs it once; the hasher that folds the
// scaled numerics in comes after the stateful components and runs on both
// passes. Wrapped, the fold is no *pipeline.FeatureHasher, so the online
// pass runs its Transform; unwrapped, it rewrites the served rows instead
// (dataset:TestURLPipelineMatchesOneHasher counts the chunks it does not).
func TestURLTickHashesTokensOnce(t *testing.T) {
	const ticks, dim = 12, 256
	p := dataset.NewURLPipeline(dim)
	last := len(p.Components) - 1
	tokens, fold := &counted{Component: p.Components[0]}, &counted{Component: p.Components[last]}
	p.Components[0], p.Components[last] = tokens, fold
	cfg := baseConfig(ModeOnline)
	cfg.InitialChunks = 0
	cfg.NewModel = func() model.Model { return dataset.NewURLModel(dim, 1e-3) }
	cfg.NewPipeline = func() *pipeline.Pipeline { return p }
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	gen := dataset.DefaultURLConfig()
	gen.Days, gen.ChunksPerDay, gen.RowsPerChunk, gen.Vocab = ticks, 1, 40, 400
	ingestChunks(t, d, dataset.NewURL(gen), 0, ticks)
	if tokens.transforms != ticks || fold.transforms != 2*ticks {
		t.Fatalf("over %d ticks the token hasher ran %d times and the fold %d, want %d and %d",
			ticks, tokens.transforms, fold.transforms, ticks, 2*ticks)
	}
}

func TestLiveConcurrentAccess(t *testing.T) {
	d, err := NewDeployer(baseConfig(ModeContinuous))
	if err != nil {
		t.Fatal(err)
	}
	s := smallStream
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if g%2 == 0 {
					if err := d.Ingest(s.Chunk((g*10 + i) % s.chunks)); err != nil {
						errs <- err
						return
					}
				} else {
					if _, err := d.Predict(s.Chunk(i)); err != nil {
						errs <- err
						return
					}
					_ = d.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// failingBackend injects storage failures after a configurable number of
// operations.
type failingBackend struct {
	data.Backend
	mu        sync.Mutex
	failAfter int
	ops       int
}

func (f *failingBackend) tick() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops++
	if f.ops > f.failAfter {
		return fmt.Errorf("injected storage failure (op %d)", f.ops)
	}
	return nil
}

func (f *failingBackend) PutRaw(rc data.RawChunk) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.Backend.PutRaw(rc)
}

func (f *failingBackend) PutFeatures(fc data.FeatureChunk) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.Backend.PutFeatures(fc)
}

func (f *failingBackend) GetRaw(id data.Timestamp) (data.RawChunk, error) {
	if err := f.tick(); err != nil {
		return data.RawChunk{}, err
	}
	return f.Backend.GetRaw(id)
}

func (f *failingBackend) GetFeatures(id data.Timestamp) (data.FeatureChunk, error) {
	if err := f.tick(); err != nil {
		return data.FeatureChunk{}, err
	}
	return f.Backend.GetFeatures(id)
}

func TestStorageFailuresSurface(t *testing.T) {
	for _, failAfter := range []int{0, 5, 25} {
		cfg := baseConfig(ModeContinuous)
		cfg.Store = data.NewStore(&failingBackend{
			Backend:   data.NewMemoryBackend(),
			failAfter: failAfter,
		})
		d, err := NewDeployer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Run(smallStream); err == nil {
			t.Fatalf("failAfter=%d: storage failure swallowed", failAfter)
		}
	}
}

// TestFailedTickIsTraced: the tick an operator wants to see is the one that
// failed. Its span tree is recorded like any other and ends at the stage that
// failed, and no span is left open behind it.
func TestFailedTickIsTraced(t *testing.T) {
	cfg := liveConfig(ModeOnline)
	// Two store writes a tick: the third tick's first write fails.
	cfg.Store = data.NewStore(&failingBackend{Backend: data.NewMemoryBackend(), failAfter: 4})
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	ingestChunks(t, d, smallStream, 0, 2)
	if err := d.Ingest(smallStream.Chunk(2)); err == nil {
		t.Fatal("storage failure swallowed")
	}
	if got := d.Tracer().Total(); got != 3 {
		t.Fatalf("%d ticks recorded after two that succeeded and one that failed", got)
	}
	tick := d.Tracer().Last(1)[0]
	if n := len(tick.Children); n == 0 || tick.Children[n-1].Name != "materialize" || tick.DurationNS <= 0 {
		t.Fatalf("the failed tick's tree: %+v, want it finished and ending at materialize", tick)
	}
	d.mu.Lock()
	open := d.tickSpan
	d.mu.Unlock()
	if open != nil {
		t.Fatal("the failed tick's span is still the tick in flight")
	}
}

// TestTickSpanEndsAfterPublish: a successful tick's span tree closes after
// its publish, which is its last stage, and the snapshot it published
// carries the tick's trace id. Only the last tick of a batch publishes.
func TestTickSpanEndsAfterPublish(t *testing.T) {
	d, err := NewDeployer(liveConfig(ModeOnline))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	carrier := &obs.Span{TraceID: obs.NewTraceID()}
	if err := d.IngestLogged(obs.ContextWithSpan(context.Background(), carrier), smallStream.Chunk(0), time.Time{}, 0); err != nil {
		t.Fatal(err)
	}
	tick := d.Tracer().Last(1)[0]
	n := len(tick.Children)
	if n == 0 || tick.Children[n-1].Name != "publish" {
		t.Fatalf("the tick's last stage is not its publish: %+v", tick.Children)
	}
	pub := tick.Children[n-1]
	if end, tickEnd := pub.Start.Add(pub.Duration()), tick.Start.Add(tick.Duration()); end.After(tickEnd) {
		t.Fatalf("the publish ended %v after its tick", end.Sub(tickEnd))
	}
	if got := d.Published().traceID; got != carrier.TraceID || tick.TraceID != carrier.TraceID {
		t.Fatalf("snapshot trace id %q, tick %q, want %q", got, tick.TraceID, carrier.TraceID)
	}
	if _, err := d.Warm(3, smallStream.Chunk); err != nil {
		t.Fatal(err)
	}
	for i, sp := range d.Tracer().Last(3) { // newest first
		published := slices.ContainsFunc(sp.Children, func(c *obs.Span) bool { return c.Name == "publish" })
		if published != (i == 0) {
			t.Fatalf("warm-up tick %d of 3 has a publish stage: %v", 3-i, published)
		}
	}
}

func TestRetrainStorageFailureSurfaces(t *testing.T) {
	cfg := baseConfig(ModePeriodical)
	cfg.RetrainEvery = 10
	// Enough budget for ingestion of ~25 chunks, then fail during the
	// retraining's bulk fetch.
	cfg.Store = data.NewStore(&failingBackend{
		Backend:   data.NewMemoryBackend(),
		failAfter: 60,
	})
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(smallStream); err == nil {
		t.Fatal("retraining storage failure swallowed")
	}
}

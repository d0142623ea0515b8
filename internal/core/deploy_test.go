package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"cdml/internal/data"
	"cdml/internal/eval"
	"cdml/internal/linalg"
	"cdml/internal/model"
	"cdml/internal/opt"
	"cdml/internal/pipeline"
	"cdml/internal/sample"
)

// driftStream is a tiny synthetic classification stream whose decision
// boundary rotates over time. Records: "label,x0,x1".
type driftStream struct {
	chunks int
	rows   int
	drift  float64
	seed   int64
}

func (s driftStream) Name() string   { return "drift" }
func (s driftStream) NumChunks() int { return s.chunks }

func (s driftStream) Chunk(i int) [][]byte {
	r := rand.New(rand.NewSource(s.seed ^ int64(i+1)*2654435761))
	// boundary normal rotates with time
	theta := s.drift * float64(i) / float64(s.chunks)
	w0, w1 := 1.0, theta
	recs := make([][]byte, s.rows)
	for k := range recs {
		x0, x1 := r.NormFloat64(), r.NormFloat64()
		y := "+1"
		if w0*x0+w1*x1+0.2*r.NormFloat64() < 0 {
			y = "-1"
		}
		recs[k] = []byte(fmt.Sprintf("%s,%.4f,%.4f", y, x0, x1))
	}
	return recs
}

// driftParser parses driftStream records.
type driftParser struct{}

func (driftParser) Name() string { return "drift-parser" }

func (driftParser) Parse(records [][]byte) (*data.Frame, error) {
	var ys, x0s, x1s []float64
	for _, rec := range records {
		var y, x0, x1 float64
		parts := splitComma(string(rec))
		if len(parts) != 3 {
			continue
		}
		y, e1 := strconv.ParseFloat(parts[0], 64)
		x0, e2 := strconv.ParseFloat(parts[1], 64)
		x1, e3 := strconv.ParseFloat(parts[2], 64)
		if e1 != nil || e2 != nil || e3 != nil {
			continue
		}
		ys = append(ys, y)
		x0s = append(x0s, x0)
		x1s = append(x1s, x1)
	}
	f := data.NewFrame(len(ys))
	f.SetFloat("label", ys)
	f.SetFloat("x0", x0s)
	f.SetFloat("x1", x1s)
	return f, nil
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == ',' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}

func newDriftPipeline() *pipeline.Pipeline {
	return pipeline.New(driftParser{},
		pipeline.NewStandardScaler([]string{"x0", "x1"}),
		pipeline.NewAssembler([]string{"x0", "x1"}, nil, "features"),
	)
}

func baseConfig(mode Mode) Config {
	return Config{
		Mode:        mode,
		NewPipeline: newDriftPipeline,
		NewModel:    func() model.Model { return model.NewSVM(2, 1e-4) },
		NewOptimizer: func() opt.Optimizer {
			return opt.NewAdam(0.05)
		},
		Store:          data.NewStore(data.NewMemoryBackend()),
		Sampler:        sample.NewTime(1),
		SampleChunks:   5,
		ProactiveEvery: 4,
		RetrainEvery:   20,
		WarmStart:      true,

		InitialChunks: 5,
		Metric:        &eval.Misclassification{},
		Predict:       ClassifyPredictor,
		Seed:          1,
	}
}

func run(t *testing.T, cfg Config, s Stream) *Result {
	t.Helper()
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

var smallStream = driftStream{chunks: 60, rows: 40, drift: 2.5, seed: 3}

func TestOnlineDeploymentRuns(t *testing.T) {
	res := run(t, baseConfig(ModeOnline), smallStream)
	if res.Evaluated == 0 {
		t.Fatal("nothing evaluated")
	}
	if res.FinalError <= 0 || res.FinalError >= 0.5 {
		t.Fatalf("online error = %v, want learnable (0, 0.5)", res.FinalError)
	}
	if res.ProactiveRuns != 0 || res.Retrains != 0 {
		t.Fatal("online mode must not proactively train or retrain")
	}
	if res.ErrorCurve.Len() == 0 || res.CostCurve.Len() == 0 {
		t.Fatal("curves not recorded")
	}
}

func TestContinuousDeploymentRuns(t *testing.T) {
	res := run(t, baseConfig(ModeContinuous), smallStream)
	if res.ProactiveRuns == 0 {
		t.Fatal("no proactive training executed")
	}
	if res.Retrains != 0 {
		t.Fatal("continuous mode must not retrain")
	}
	if res.FinalError >= 0.5 {
		t.Fatalf("continuous error = %v", res.FinalError)
	}
	if res.AvgProactive() <= 0 {
		t.Fatal("proactive timing not recorded")
	}
	if res.MatStats.Ops == 0 {
		t.Fatal("sampling accounting missing")
	}
}

func TestPeriodicalDeploymentRuns(t *testing.T) {
	res := run(t, baseConfig(ModePeriodical), smallStream)
	if res.Retrains == 0 {
		t.Fatal("no retraining executed")
	}
	if res.ProactiveRuns != 0 {
		t.Fatal("periodical mode must not proactively train")
	}
	if res.FinalError >= 0.5 {
		t.Fatalf("periodical error = %v", res.FinalError)
	}
}

func TestPeriodicalCostExceedsContinuous(t *testing.T) {
	// The headline claim (Figure 4b/4d): periodical retraining costs a
	// multiple of continuous deployment.
	big := driftStream{chunks: 100, rows: 60, drift: 2, seed: 5}
	cont := run(t, baseConfig(ModeContinuous), big)

	cfg := baseConfig(ModePeriodical)
	cfg.Store = data.NewStore(data.NewMemoryBackend())
	cfg.RetrainEvery = 10
	per := run(t, cfg, big)

	if per.Cost.Total() <= cont.Cost.Total() {
		t.Fatalf("periodical cost %v should exceed continuous %v",
			per.Cost.Total(), cont.Cost.Total())
	}
}

func TestContinuousBeatsOnlineOnDrift(t *testing.T) {
	// On a drifting stream, training on sampled history + online data
	// should not be worse than pure online learning (paper Figure 4a/4c:
	// continuous ≤ online error).
	big := driftStream{chunks: 150, rows: 50, drift: 3, seed: 7}
	on := run(t, baseConfig(ModeOnline), big)
	cfg := baseConfig(ModeContinuous)
	cfg.Store = data.NewStore(data.NewMemoryBackend())
	cont := run(t, cfg, big)
	if cont.AvgError > on.AvgError*1.15 {
		t.Fatalf("continuous avg error %v much worse than online %v", cont.AvgError, on.AvgError)
	}
}

func TestNoOptimizationCostsMorePreprocessing(t *testing.T) {
	big := driftStream{chunks: 80, rows: 50, drift: 2, seed: 11}
	withOpt := run(t, baseConfig(ModeContinuous), big)

	cfg := baseConfig(ModeContinuous)
	cfg.Store = data.NewStore(data.NewMemoryBackend())
	cfg.NoOptimization = true
	noOpt := run(t, cfg, big)

	if noOpt.Cost.Get(eval.CatPreprocess) <= withOpt.Cost.Get(eval.CatPreprocess) {
		t.Fatalf("NoOptimization preprocess %v should exceed optimized %v",
			noOpt.Cost.Get(eval.CatPreprocess), withOpt.Cost.Get(eval.CatPreprocess))
	}
	// Without materialization every sampled chunk is a miss.
	if noOpt.MatStats.Hits != 0 {
		t.Fatalf("NoOptimization should have no materialization hits, got %d", noOpt.MatStats.Hits)
	}
}

func TestDynamicMaterializationAccounting(t *testing.T) {
	cfg := baseConfig(ModeContinuous)
	cfg.Store = data.NewStore(data.NewMemoryBackend(), data.WithCapacity(10))
	cfg.Sampler = sample.NewUniform(3)
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(driftStream{chunks: 80, rows: 30, drift: 1, seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	st := res.MatStats
	if st.Misses == 0 {
		t.Fatal("capacity-bounded store should force re-materializations")
	}
	if st.Rematerializations != st.Misses {
		t.Fatalf("rematerializations %d != misses %d", st.Rematerializations, st.Misses)
	}
	if mu := st.Mu(); mu <= 0 || mu >= 1 {
		t.Fatalf("μ = %v, want in (0,1)", mu)
	}

	// One gather over a held and an evicted chunk each way round: a held
	// chunk comes back as stored, an evicted one re-materialized through the
	// deployed pipeline, and the batch is the chunks in sample order.
	ids := cfg.Store.RawIDs()
	sampled := []data.Timestamp{ids[len(ids)-1], ids[0], ids[1], ids[len(ids)-2]}
	var want []data.Instance
	evicted := 0
	for _, id := range sampled {
		ins, ok, err := cfg.Store.Features(id)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			evicted++
			raw, err := cfg.Store.Raw(id)
			if err != nil {
				t.Fatal(err)
			}
			if ins, err = d.pipe.ProcessServe(raw.Records); err != nil {
				t.Fatal(err)
			}
		}
		want = append(want, ins...)
	}
	if evicted != 2 {
		t.Fatalf("%d of the sampled chunks are evicted, want the oldest two", evicted)
	}
	before := cfg.Store.Stats()
	d.mu.Lock()
	got, err := d.gatherOptimized(sampled)
	d.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the gathered batch is not the sampled chunks in sample order")
	}
	after := cfg.Store.Stats()
	if after.Hits-before.Hits != 2 || after.Misses-before.Misses != 2 || after.Rematerializations-before.Rematerializations != 2 {
		t.Fatalf("gather counted %d hits, %d misses, %d re-materializations; want 2 each",
			after.Hits-before.Hits, after.Misses-before.Misses, after.Rematerializations-before.Rematerializations)
	}
}

func TestWarmStartRetainsQualityAdvantage(t *testing.T) {
	big := driftStream{chunks: 80, rows: 40, drift: 1.5, seed: 17}
	warm := baseConfig(ModePeriodical)
	warm.RetrainEvery = 15
	wres := run(t, warm, big)

	cold := baseConfig(ModePeriodical)
	cold.Store = data.NewStore(data.NewMemoryBackend())
	cold.RetrainEvery = 15
	cold.WarmStart = false
	cres := run(t, cold, big)

	// Cold start recomputes statistics → strictly more preprocessing.
	if cres.Cost.Get(eval.CatPreprocess) <= wres.Cost.Get(eval.CatPreprocess) {
		t.Fatalf("cold-start preprocess %v should exceed warm-start %v",
			cres.Cost.Get(eval.CatPreprocess), wres.Cost.Get(eval.CatPreprocess))
	}
	// Both should still learn.
	if wres.FinalError >= 0.5 || cres.FinalError >= 0.5 {
		t.Fatalf("errors too high: warm %v cold %v", wres.FinalError, cres.FinalError)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.NewPipeline = nil },
		func(c *Config) { c.NewModel = nil },
		func(c *Config) { c.NewOptimizer = nil },
		func(c *Config) { c.Metric = nil },
		func(c *Config) { c.Predict = nil },
		func(c *Config) { c.Store = nil },
		func(c *Config) { c.Mode = Mode(99) },
		func(c *Config) { c.Mode = ModeContinuous; c.Sampler = nil },
		func(c *Config) { c.Mode = ModeContinuous; c.SampleChunks = 0 },
		func(c *Config) { c.Mode = ModeContinuous; c.ProactiveEvery = 0 },
		func(c *Config) { c.Mode = ModePeriodical; c.RetrainEvery = 0 },
	}
	for i, mutate := range cases {
		cfg := baseConfig(ModeContinuous)
		mutate(&cfg)
		if _, err := NewDeployer(cfg); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestInitialChunksTooLarge(t *testing.T) {
	cfg := baseConfig(ModeOnline)
	cfg.InitialChunks = 1000
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(smallStream); err == nil {
		t.Fatal("expected error when InitialChunks exceeds stream")
	}
}

func TestModeString(t *testing.T) {
	if ModeOnline.String() != "online" || ModePeriodical.String() != "periodical" || ModeContinuous.String() != "continuous" {
		t.Fatal("mode strings wrong")
	}
	if Mode(42).String() == "" {
		t.Fatal("unknown mode should render")
	}
}

func TestPredictors(t *testing.T) {
	svm := model.NewSVM(1, 0)
	svm.SetWeights([]float64{1, 0})
	if ClassifyPredictor(svm, linalg.Dense{5}) != 1 || ClassifyPredictor(svm, linalg.Dense{-5}) != -1 {
		t.Fatal("ClassifyPredictor wrong")
	}
	lr := model.NewLinearRegression(1, 0)
	lr.SetWeights([]float64{2, 1})
	if RegressionPredictor(lr, linalg.Dense{3}) != 7 {
		t.Fatal("RegressionPredictor wrong")
	}
}

func TestDeployerAccessors(t *testing.T) {
	d, err := NewDeployer(baseConfig(ModeOnline))
	if err != nil {
		t.Fatal(err)
	}
	if d.Model() == nil || d.Pipeline() == nil {
		t.Fatal("accessors returned nil")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := run(t, baseConfig(ModeContinuous), smallStream)
	cfg := baseConfig(ModeContinuous)
	cfg.Store = data.NewStore(data.NewMemoryBackend())
	b := run(t, cfg, smallStream)
	if a.FinalError != b.FinalError {
		t.Fatalf("non-deterministic deployment: %v vs %v", a.FinalError, b.FinalError)
	}
}

func TestEvaluationSkipsInitialChunks(t *testing.T) {
	cfg := baseConfig(ModeOnline)
	cfg.InitialChunks = 10
	res := run(t, cfg, smallStream)
	wantEval := int64((smallStream.chunks - 10) * smallStream.rows)
	if res.Evaluated != wantEval {
		t.Fatalf("evaluated %d records, want %d", res.Evaluated, wantEval)
	}
}

// One proactive training must not allocate in proportion to the deployment's
// age: Store.RawIDs used to copy the whole id history on every call (8 bytes
// a chunk, for ever). The time-based sampler allocates O(sample size), so
// what is left is what the sampled chunks themselves cost.
func TestProactiveTrainAllocationDoesNotGrowWithHistory(t *testing.T) {
	cfg := baseConfig(ModeContinuous)
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	s := driftStream{chunks: 1, rows: 10, seed: 5}
	records := s.Chunk(0)
	ins, err := d.pipe.ProcessOnline(records)
	if err != nil {
		t.Fatal(err)
	}
	grow := func(to int) {
		for cfg.Store.NumRaw() < to {
			id, err := cfg.Store.AppendRaw(records)
			if err != nil {
				t.Fatal(err)
			}
			if err := cfg.Store.PutFeatures(id, ins); err != nil {
				t.Fatal(err)
			}
		}
	}
	perRun := func() uint64 {
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			for _, recent := range []bool{false, true} {
				if err := d.proactiveTrain(recent); err != nil {
					t.Fatal(err)
				}
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	grow(1000)
	perRun() // first-use allocations (pools, lazily built state) are not the subject
	small := perRun()
	grow(50000)
	large := perRun()
	t.Logf("a proactive training and a drift training allocate %d bytes over 1 000 chunks, %d over 50 000", small, large)
	if large > small+small/4+1024 {
		t.Fatalf("allocation grew with the history: %d bytes over 1 000 chunks, %d over 50 000", small, large)
	}
}

// Package experiment reproduces every table and figure of the paper's
// evaluation (§5) over the synthetic URL and Taxi workloads:
//
//	Figure 4  — model quality and training cost for online / periodical /
//	            continuous deployment (Exp. 1)
//	Table 3   — hyperparameter grid during initial training (Exp. 2)
//	Figure 5  — deployed-model quality per learning-rate adaptation (Exp. 2)
//	Figure 6  — deployed-model quality per sampling strategy (Exp. 2)
//	Table 4   — empirical vs theoretical materialization utilization μ (Exp. 3)
//	Figure 7  — deployment cost vs materialization rate and sampling
//	            strategy, plus the NoOptimization baseline (Exp. 3)
//	Figure 8  — average quality vs total cost trade-off (Exp. 3 discussion)
//
// Each experiment returns a structured result with a Render method that
// prints the same rows/series the paper reports. Absolute numbers differ
// from the paper (different hardware, synthetic data, scaled-down streams);
// the relative shapes are the reproduction target — see EXPERIMENTS.md.
package experiment

import (
	"fmt"
	"math"

	"cdml/internal/core"
	"cdml/internal/data"
	"cdml/internal/dataset"
	"cdml/internal/eval"
	"cdml/internal/model"
	"cdml/internal/opt"
	"cdml/internal/pipeline"
	"cdml/internal/sample"
)

// Scale selects how much of the paper's workload sizes to run.
type Scale int

// Workload scales.
const (
	// ScaleSmall is for tests and quick benchmarks (~100 chunks).
	ScaleSmall Scale = iota
	// ScaleMedium is the default experiment size (~1,200 chunks).
	ScaleMedium
	// ScaleFull approaches the paper's 12,000 chunks.
	ScaleFull
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case ScaleSmall:
		return "small"
	case ScaleMedium:
		return "medium"
	case ScaleFull:
		return "full"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// ParseScale converts "small"/"medium"/"full".
func ParseScale(s string) (Scale, error) {
	switch s {
	case "small":
		return ScaleSmall, nil
	case "medium":
		return ScaleMedium, nil
	case "full":
		return ScaleFull, nil
	default:
		return 0, fmt.Errorf("experiment: unknown scale %q", s)
	}
}

// Workload binds a stream to its pipeline, model, and deployment
// parameters — everything an experiment needs to deploy it.
type Workload struct {
	// Name is "url" or "taxi".
	Name string
	// Stream supplies the raw chunks.
	Stream core.Stream
	// NewPipeline builds a fresh deployed pipeline.
	NewPipeline func() *pipeline.Pipeline
	// NewModel builds a fresh model with the given L2 regularization.
	NewModel func(reg float64) model.Model
	// NewMetric builds the workload's error metric.
	NewMetric func() eval.Metric
	// MetricName labels the metric in rendered output.
	MetricName string
	// Predict maps model output to the metric's label space.
	Predict core.Predictor
	// DriftLoss is the metric's per-record loss on [0, 1], the signal a drift
	// detector and the threshold monitor watch. Nil is core's default, 0/1
	// mismatch — the URL metric, record by record; for a regression every
	// prediction mismatches, so Taxi bounds its absolute error instead.
	DriftLoss func(pred, actual float64) float64
	// InitialChunks are consumed by initial training (the paper's day 0 /
	// Jan15).
	InitialChunks int
	// ProactiveEvery is the static proactive-training period in chunks
	// (the paper trains every 5 minutes / 5 hours, i.e. every 5 chunks).
	ProactiveEvery int
	// RetrainEvery is the periodical baseline's retraining period in
	// chunks (the paper retrains every 10 days / 1 month).
	RetrainEvery int
	// SampleChunks is the proactive-training sample size in chunks.
	SampleChunks int
	// WindowChunks is the window-based sampler's window size (the paper
	// uses half the total chunks).
	WindowChunks int
	// BestOpt and BestLR and BestReg are the hyperparameters the Table 3
	// grid search selects; Figure 4/6/7 deployments use them.
	BestOpt string
	BestLR  float64
	BestReg float64
	// Drifting records whether the stream's distribution changes over
	// time (true for URL, false for Taxi) — it decides the expected
	// Figure 6 outcome.
	Drifting bool
}

// NewOptimizer builds an optimizer by adaptation-technique name with the
// workload's learning rate.
func (w *Workload) NewOptimizer(name string, lr float64) opt.Optimizer {
	o, err := opt.New(name, lr)
	if err != nil {
		panic(err)
	}
	return o
}

// newSampler builds a sampling strategy by name with the workload's window
// size.
func (w *Workload) newSampler(name string, seed int64) sample.Strategy {
	s, err := sample.New(name, w.WindowChunks, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// urlHashDim returns the feature-hashing dimensionality per scale (the real
// dataset has ~3.2M features; we scale down).
func urlHashDim(s Scale) int {
	switch s {
	case ScaleSmall:
		return 1 << 14
	case ScaleMedium:
		return 1 << 16
	default:
		return 1 << 18
	}
}

// URLWorkload builds the URL deployment scenario at the given scale.
func URLWorkload(s Scale) *Workload {
	cfg := dataset.DefaultURLConfig()
	switch s {
	case ScaleSmall:
		cfg.Days, cfg.ChunksPerDay, cfg.RowsPerChunk, cfg.Vocab = 24, 5, 40, 3000
	case ScaleMedium:
		cfg.Days, cfg.ChunksPerDay, cfg.RowsPerChunk, cfg.Vocab = 120, 10, 100, 20000
	default:
		cfg.Days, cfg.ChunksPerDay, cfg.RowsPerChunk, cfg.Vocab = 120, 100, 200, 50000
	}
	cfg.HashDim = urlHashDim(s)
	return NewURLWorkload(cfg)
}

// NewURLWorkload binds a URL stream of cfg's shape to the URL pipeline, SVM
// and deployment parameters: the one place the URL row of the "workload →
// pipeline, model, hyperparameters, metric" table is written down.
func NewURLWorkload(cfg dataset.URLConfig) *Workload {
	gen := dataset.NewURL(cfg)
	n := gen.NumChunks()
	return &Workload{
		Name:   "url",
		Stream: gen,
		NewPipeline: func() *pipeline.Pipeline {
			return dataset.NewURLPipeline(cfg.HashDim)
		},
		NewModel: func(reg float64) model.Model {
			return dataset.NewURLModel(cfg.HashDim, reg)
		},
		NewMetric:      func() eval.Metric { return &eval.Misclassification{} },
		MetricName:     "misclassification",
		Predict:        core.ClassifyPredictor,
		InitialChunks:  cfg.ChunksPerDay,      // day 0
		ProactiveEvery: 5,                     // every 5 chunks ~ every 5 minutes
		RetrainEvery:   10 * cfg.ChunksPerDay, // every 10 days
		SampleChunks:   max(4, n/100),
		WindowChunks:   n / 2,
		BestOpt:        "adam",
		BestLR:         0.05,
		BestReg:        1e-3,
		Drifting:       true,
	}
}

// TaxiWorkload builds the Taxi deployment scenario at the given scale.
func TaxiWorkload(s Scale) *Workload {
	cfg := dataset.DefaultTaxiConfig()
	// Every scale spans the paper's 18 months (≈13,128 hours) so the
	// weekly and daily cycles are always covered; smaller scales use
	// coarser chunks.
	switch s {
	case ScaleSmall:
		cfg.Chunks, cfg.HoursPerChunk, cfg.RowsPerChunk = 120, 109, 50
	case ScaleMedium:
		cfg.Chunks, cfg.HoursPerChunk, cfg.RowsPerChunk = 1200, 11, 150
	default:
		cfg.Chunks, cfg.HoursPerChunk, cfg.RowsPerChunk = 12000, 1, 200
	}
	return NewTaxiWorkload(cfg)
}

// NewTaxiWorkload binds a Taxi stream of cfg's shape to the Taxi pipeline,
// linear regression and deployment parameters — the table's Taxi row.
func NewTaxiWorkload(cfg dataset.TaxiConfig) *Workload {
	gen := dataset.NewTaxi(cfg)
	n := gen.NumChunks()
	monthChunks := max(4, n/18) // the stream spans ~18 months
	initial := monthChunks
	return &Workload{
		Name:   "taxi",
		Stream: gen,
		NewPipeline: func() *pipeline.Pipeline {
			return dataset.NewTaxiPipeline()
		},
		NewModel: func(reg float64) model.Model {
			return dataset.NewTaxiModel(reg)
		},
		// The Taxi model predicts log1p(duration); RMSE over that equals
		// RMSLE over raw durations, the Kaggle measure.
		NewMetric:      func() eval.Metric { return &eval.RMSE{} },
		MetricName:     "rmsle",
		Predict:        core.RegressionPredictor,
		DriftLoss:      func(pred, actual float64) float64 { return math.Min(math.Abs(pred-actual), 1) },
		InitialChunks:  initial,     // Jan15
		ProactiveEvery: 5,           // every 5 hours
		RetrainEvery:   monthChunks, // monthly
		SampleChunks:   max(4, n/17),
		WindowChunks:   n / 2,
		BestOpt:        "rmsprop",
		BestLR:         0.1,
		BestReg:        1e-4,
		Drifting:       false,
	}
}

// newStore builds a fresh in-memory chunk store with the given
// materialization capacity (negative = unlimited).
func newStore(capacity int) *data.Store {
	if capacity < 0 {
		return data.NewStore(data.NewMemoryBackend())
	}
	return data.NewStore(data.NewMemoryBackend(), data.WithCapacity(capacity))
}

// Deployment returns the part of a deployment config the workload fixes:
// its pipeline, its model and optimizer at the hyperparameters the Table 3
// grid selects, a fresh metric and the predictor. The experiments (through
// BaseConfig), cmd/cdml and cmd/cdml-serve all start from it.
func (w *Workload) Deployment() core.Config {
	return core.Config{
		NewPipeline:  w.NewPipeline,
		NewModel:     func() model.Model { return w.NewModel(w.BestReg) },
		NewOptimizer: func() opt.Optimizer { return w.NewOptimizer(w.BestOpt, w.BestLR) },
		Metric:       w.NewMetric(),
		Predict:      w.Predict,
		DriftLoss:    w.DriftLoss,
	}
}

// BaseConfig assembles the deployment config the experiments share;
// callers override mode-specific fields.
func (w *Workload) BaseConfig(mode core.Mode, seed int64) core.Config {
	cfg := w.Deployment()
	cfg.Mode = mode
	cfg.Store = newStore(-1)
	cfg.Sampler = w.newSampler("time", seed)
	cfg.SampleChunks = w.SampleChunks
	cfg.ProactiveEvery = w.ProactiveEvery
	cfg.RetrainEvery = w.RetrainEvery
	cfg.RetrainBatchRows = 128
	cfg.InitialEpochs = 25
	cfg.WarmStart = true
	cfg.InitialChunks = w.InitialChunks
	cfg.Seed = seed
	return cfg
}

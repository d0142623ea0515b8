// Package cdml is a continuous deployment platform for machine learning
// pipelines — a from-scratch Go reproduction of "Continuous Deployment of
// Machine Learning Pipelines" (Derakhshan, Rezaei Mahdiraji, Rabl, Markl;
// EDBT 2019).
//
// A deployed pipeline preprocesses incoming training data and prediction
// queries through the same components, guaranteeing train/serve
// consistency. Instead of periodically retraining on the full history, the
// platform keeps the deployed model fresh with:
//
//   - online learning on every incoming data chunk,
//   - proactive training — regular mini-batch SGD iterations over samples
//     of the historical data, which replaces full retraining,
//   - online statistics computation — pipeline components maintain their
//     statistics incrementally while data streams through, and
//   - dynamic materialization — preprocessed feature chunks are cached up
//     to a capacity and transparently rebuilt from raw chunks when a sample
//     hits an evicted chunk.
//
// # Quick start
//
// Assemble a pipeline, wrap everything in a Config, and run a Deployer over
// a chunked stream:
//
//	p := cdml.NewPipeline(myParser,
//	    cdml.NewStandardScaler([]string{"x"}),
//	    cdml.NewAssembler([]string{"x"}, nil, "features"),
//	)
//	cfg := cdml.Config{
//	    Mode:           cdml.ModeContinuous,
//	    NewPipeline:    func() *cdml.Pipeline { return p },
//	    NewModel:       func() cdml.Model { return cdml.NewSVM(dim, 1e-4) },
//	    NewOptimizer:   func() cdml.Optimizer { return cdml.NewAdam(0.05) },
//	    Store:          cdml.NewStore(cdml.NewMemoryBackend()),
//	    Sampler:        cdml.NewTimeSampler(1),
//	    SampleChunks:   8,
//	    ProactiveEvery: 5,
//	    Metric:         &cdml.Misclassification{},
//	    Predict:        cdml.ClassifyPredictor,
//	}
//	d, err := cdml.NewDeployer(cfg)
//	res, err := d.Run(stream)
//
// See examples/ for complete programs and DESIGN.md for the architecture.
package cdml

import (
	"time"

	"cdml/internal/core"
	"cdml/internal/data"
	"cdml/internal/drift"
	"cdml/internal/engine"
	"cdml/internal/eval"
	"cdml/internal/linalg"
	"cdml/internal/model"
	"cdml/internal/opt"
	"cdml/internal/pipeline"
	"cdml/internal/sample"
	"cdml/internal/sched"
	"cdml/internal/serve"
)

// ---------------------------------------------------------------------------
// Vectors

// Vector is a read-only feature vector (dense or sparse).
type Vector = linalg.Vector

// Dense is a dense vector.
type Dense = linalg.Dense

// Sparse is a sparse vector in sorted coordinate format.
type Sparse = linalg.Sparse

// NewSparse builds a sparse vector from (index, value) pairs.
func NewSparse(dim int, idx []int32, val []float64) *Sparse {
	return linalg.NewSparse(dim, idx, val)
}

// ---------------------------------------------------------------------------
// Data: frames, chunks, stores

// Frame is a columnar batch of records flowing through a pipeline.
type Frame = data.Frame

// NewFrame returns an empty frame with the given row count.
func NewFrame(rows int) *Frame { return data.NewFrame(rows) }

// Missing is the sentinel for a missing float cell.
var Missing = data.Missing

// Instance is one preprocessed training example.
type Instance = data.Instance

// Timestamp identifies a chunk and encodes its recency.
type Timestamp = data.Timestamp

// Store is the data manager's chunk store with dynamic materialization.
type Store = data.Store

// Backend is the physical chunk storage layer.
type Backend = data.Backend

// NewStore layers eviction and materialization accounting over a backend.
func NewStore(b Backend, opts ...data.StoreOption) *Store { return data.NewStore(b, opts...) }

// WithCapacity bounds the number of materialized feature chunks.
func WithCapacity(m int) data.StoreOption { return data.WithCapacity(m) }

// WithRawCapacity bounds the number of retained raw chunks (the paper's N);
// sampling ignores dropped history.
func WithRawCapacity(n int) data.StoreOption { return data.WithRawCapacity(n) }

// NewMemoryBackend returns an in-memory chunk backend.
func NewMemoryBackend() *data.MemoryBackend { return data.NewMemoryBackend() }

// NewDiskBackend returns a chunk backend storing flat chunk files under dir.
func NewDiskBackend(dir string) (*data.DiskBackend, error) { return data.NewDiskBackend(dir) }

// FaultBackend decorates a backend with programmable failpoints for
// resilience testing.
type FaultBackend = data.FaultBackend

// NewFaultBackend wraps a backend with programmable failpoints (fail the
// next N calls of an operation) for resilience testing.
func NewFaultBackend(base Backend) *FaultBackend { return data.NewFaultBackend(base) }

// ---------------------------------------------------------------------------
// Pipelines

// Pipeline is a parser plus ordered components deployed alongside a model.
type Pipeline = pipeline.Pipeline

// Component is one pipeline stage with Update (online statistics) and
// Transform methods.
type Component = pipeline.Component

// Parser converts raw records into the initial frame.
type Parser = pipeline.Parser

// NewPipeline assembles a pipeline with default column names ("features",
// "label").
func NewPipeline(p Parser, comps ...Component) *Pipeline { return pipeline.New(p, comps...) }

// NewImputer fills missing values with the running mean (floats) or mode
// (strings).
func NewImputer(floatCols, stringCols []string) *pipeline.Imputer {
	return pipeline.NewImputer(floatCols, stringCols)
}

// NewStandardScaler standardizes float columns with online moments.
func NewStandardScaler(cols []string) *pipeline.StandardScaler {
	return pipeline.NewStandardScaler(cols)
}

// NewMinMaxScaler rescales float columns to [0,1] with online extrema.
func NewMinMaxScaler(cols []string) *pipeline.MinMaxScaler {
	return pipeline.NewMinMaxScaler(cols)
}

// NewOneHotEncoder expands a categorical column into indicator vectors.
func NewOneHotEncoder(col, out string, size int) *pipeline.OneHotEncoder {
	return pipeline.NewOneHotEncoder(col, out, size)
}

// NewFeatureHasher hashes token and numeric columns into a fixed-size
// sparse vector.
func NewFeatureHasher(tokenCols, numCols []string, out string, size int) *pipeline.FeatureHasher {
	return pipeline.NewFeatureHasher(tokenCols, numCols, out, size)
}

// NewFilter drops rows failing a predicate (e.g. anomaly detection).
func NewFilter(what string, keep func(f *Frame, i int) bool) *pipeline.Filter {
	return pipeline.NewFilter(what, keep)
}

// NewMapper applies a stateless user-defined row transformation.
func NewMapper(what string, outs []string, fn func(f *Frame, i int, out []float64)) *pipeline.Mapper {
	return pipeline.NewMapper(what, outs, fn)
}

// NewTokenizer normalizes a raw text column into tokens for the feature
// hasher.
func NewTokenizer(col, out string) *pipeline.Tokenizer { return pipeline.NewTokenizer(col, out) }

// Persistent is the optional interface components implement to join
// deployment checkpoints.
type Persistent = pipeline.Persistent

// NewAssembler concatenates columns into the final feature vector.
func NewAssembler(floatCols, vecCols []string, out string) *pipeline.Assembler {
	return pipeline.NewAssembler(floatCols, vecCols, out)
}

// NewNormalizer rescales each row of a vector column to unit L2 norm.
func NewNormalizer(col string) *pipeline.Normalizer { return pipeline.NewNormalizer(col) }

// NewBinarizer thresholds float columns to {0,1}.
func NewBinarizer(cols []string, threshold float64) *pipeline.Binarizer {
	return pipeline.NewBinarizer(cols, threshold)
}

// NewInteraction appends products of column pairs.
func NewInteraction(pairs [][2]string) *pipeline.Interaction {
	return pipeline.NewInteraction(pairs)
}

// NewStdClipper winsorizes float columns to mean ± k·std with online
// moments.
func NewStdClipper(cols []string, k float64) *pipeline.StdClipper {
	return pipeline.NewStdClipper(cols, k)
}

// ---------------------------------------------------------------------------
// Models and optimizers

// Model is an SGD-trainable predictor.
type Model = model.Model

// NewSVM returns a linear SVM with hinge loss (labels ±1).
func NewSVM(dim int, reg float64) *model.SVM { return model.NewSVM(dim, reg) }

// NewLinearRegression returns least-squares linear regression.
func NewLinearRegression(dim int, reg float64) *model.LinearRegression {
	return model.NewLinearRegression(dim, reg)
}

// NewLogisticRegression returns binary logistic regression (labels 0/1).
func NewLogisticRegression(dim int, reg float64) *model.LogisticRegression {
	return model.NewLogisticRegression(dim, reg)
}

// NewKMeans returns mini-batch k-means expressed as an SGD model (labels
// ignored; Predict returns the nearest centroid index).
func NewKMeans(k, dim int) *model.KMeans { return model.NewKMeans(k, dim) }

// NewMF returns biased matrix factorization for rating prediction over
// 2-hot (user, item) instance vectors.
func NewMF(users, items, factors int, reg float64, seed int64) *model.MF {
	return model.NewMF(users, items, factors, reg, seed)
}

// EncodePair builds the 2-hot instance vector MF consumes.
func EncodePair(users, items, u, i int) *Sparse { return model.EncodePair(users, items, u, i) }

// Optimizer applies gradient steps with optional per-coordinate adaptation.
type Optimizer = opt.Optimizer

// NewSGD returns plain SGD.
func NewSGD(lr float64) *opt.SGD { return opt.NewSGD(lr) }

// NewMomentum returns SGD with heavy-ball momentum.
func NewMomentum(lr float64) *opt.Momentum { return opt.NewMomentum(lr) }

// NewAdam returns the Adam optimizer.
func NewAdam(lr float64) *opt.Adam { return opt.NewAdam(lr) }

// NewRMSProp returns the RMSProp optimizer.
func NewRMSProp(lr float64) *opt.RMSProp { return opt.NewRMSProp(lr) }

// NewAdaDelta returns the AdaDelta optimizer (no learning rate).
func NewAdaDelta() *opt.AdaDelta { return opt.NewAdaDelta() }

// NewFTRL returns the FTRL-Proximal optimizer with L1-induced sparsity.
func NewFTRL(l1, l2 float64) *opt.FTRL { return opt.NewFTRL(l1, l2) }

// NewOptimizer constructs an optimizer by name ("sgd", "momentum", "adam",
// "rmsprop", "adadelta").
func NewOptimizer(name string, lr float64) (Optimizer, error) { return opt.New(name, lr) }

// ---------------------------------------------------------------------------
// Sampling

// Sampler draws without-replacement chunk samples for proactive training.
type Sampler = sample.Strategy

// NewUniformSampler samples every chunk with equal probability.
func NewUniformSampler(seed int64) *sample.Uniform { return sample.NewUniform(seed) }

// NewWindowSampler samples uniformly from the w most recent chunks.
func NewWindowSampler(w int, seed int64) *sample.Window { return sample.NewWindow(w, seed) }

// NewTimeSampler samples with recency-increasing probability.
func NewTimeSampler(seed int64) *sample.Time { return sample.NewTime(seed) }

// NewSampler constructs a strategy by name ("uniform", "window", "time").
func NewSampler(name string, w int, seed int64) (Sampler, error) { return sample.New(name, w, seed) }

// MuUniform is the analytical materialization utilization rate of uniform
// sampling (paper Formula 4).
func MuUniform(N, m int) float64 { return sample.MuUniform(N, m) }

// MuWindow is the analytical materialization utilization rate of
// window-based sampling (paper Formula 5).
func MuWindow(N, m, w int) float64 { return sample.MuWindow(N, m, w) }

// ---------------------------------------------------------------------------
// Scheduling

// Scheduler decides when proactive training runs.
type Scheduler = sched.Scheduler

// NewStaticScheduler fires at a fixed interval.
func NewStaticScheduler(interval Duration) *sched.Static { return sched.NewStatic(interval) }

// NewDynamicScheduler derives the interval from prediction load
// (paper Formula 6: T' = S·T·pr·pl).
func NewDynamicScheduler(slack float64, minInterval Duration) *sched.Dynamic {
	return sched.NewDynamic(slack, minInterval)
}

// ---------------------------------------------------------------------------
// Concept drift detection (the paper's future-work extension)

// DriftDetector watches the prequential loss stream for concept drift.
type DriftDetector = drift.Detector

// Drift detector states.
const (
	DriftStable  = drift.StateStable
	DriftWarning = drift.StateWarning
	DriftDrift   = drift.StateDrift
)

// NewPageHinkley returns a Page-Hinkley drift detector (gradual drift).
func NewPageHinkley() *drift.PageHinkley { return drift.NewPageHinkley() }

// NewDDM returns a DDM drift detector (abrupt drift, warning + drift
// envelopes).
func NewDDM() *drift.DDM { return drift.NewDDM() }

// ---------------------------------------------------------------------------
// Evaluation

// Metric is a cumulative error measure.
type Metric = eval.Metric

// Misclassification is the fraction of wrong label predictions.
type Misclassification = eval.Misclassification

// RMSE is the root mean squared error.
type RMSE = eval.RMSE

// RMSLE is the root mean squared logarithmic error.
type RMSLE = eval.RMSLE

// MAE is the mean absolute error.
type MAE = eval.MAE

// LogLoss is the mean binary cross-entropy.
type LogLoss = eval.LogLoss

// CostClock attributes deployment time to preprocessing, training,
// prediction, and IO.
type CostClock = eval.CostClock

// Series is an (x, y) curve recorded over a deployment.
type Series = eval.Series

// NewFading returns a prequential error estimator with exponential
// forgetting — it tracks the recent error level rather than the cumulative
// one.
func NewFading(alpha float64) *eval.Fading { return eval.NewFading(alpha) }

// NewFadedRMSE returns a recent-window RMSE with forgetting factor alpha.
func NewFadedRMSE(alpha float64) *eval.FadedRMSE { return eval.NewFadedRMSE(alpha) }

// NewAUC returns a bounded-memory streaming AUC estimator.
func NewAUC(capEach int, seed int64) *eval.AUC { return eval.NewAUC(capEach, seed) }

// ---------------------------------------------------------------------------
// Platform

// Mode selects the deployment strategy.
type Mode = core.Mode

// Deployment strategies.
const (
	ModeOnline     = core.ModeOnline
	ModePeriodical = core.ModePeriodical
	ModeContinuous = core.ModeContinuous
	// ModeThreshold is the Velox-style baseline: retrain when the recent
	// error exceeds Config.RetrainThreshold.
	ModeThreshold = core.ModeThreshold
)

// Config assembles one deployment.
type Config = core.Config

// Deployer executes a deployment over a stream.
type Deployer = core.Deployer

// Result summarizes a deployment run.
type Result = core.Result

// Stream supplies raw data chunks in deployment order.
type Stream = core.Stream

// Predictor maps model output to the metric's label space.
type Predictor = core.Predictor

// ClassifyPredictor maps an SVM margin to a ±1 label.
var ClassifyPredictor Predictor = core.ClassifyPredictor

// RegressionPredictor passes the regression score through.
var RegressionPredictor Predictor = core.RegressionPredictor

// NewDeployer validates a config and builds the deployment.
func NewDeployer(cfg Config) (*Deployer, error) { return core.NewDeployer(cfg) }

// CheckpointPolicy configures automatic crash-safe checkpointing of a live
// deployment (set Config.AutoCheckpoint).
type CheckpointPolicy = core.CheckpointPolicy

// CheckpointInfo identifies one durable checkpoint on disk.
type CheckpointInfo = core.CheckpointInfo

// ErrNoCheckpoint reports a recovery directory without any checkpoint
// files — a cold start, not a failure.
var ErrNoCheckpoint = core.ErrNoCheckpoint

// NewEngine returns an execution engine with the given parallelism
// (≤ 0 selects all CPUs).
func NewEngine(workers int) *engine.Engine { return engine.New(workers) }

// NewServer exposes a live deployment over HTTP as the deployment named
// "default": POST /v1/deployments/default/train, POST .../predict,
// GET .../stats, GET /v1/healthz (see internal/serve for the full surface).
func NewServer(d *Deployer) *serve.Server { return serve.New(d) }

// Duration aliases time.Duration for the scheduler constructors.
type Duration = time.Duration

// Confusion accumulates a binary confusion matrix (accuracy, precision,
// recall, F1) and doubles as a misclassification Metric.
type Confusion = eval.Confusion

// AUCMetric aliases the streaming AUC estimator type.
type AUCMetric = eval.AUC

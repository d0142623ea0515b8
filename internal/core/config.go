// Package core assembles the substrates into the paper's continuous
// deployment platform (§4): the pipeline manager that owns the deployed
// pipeline and model, the data manager that stores and samples chunks, the
// proactive trainer that runs SGD iterations on sampled history (§3.3), and
// the three deployment strategies the evaluation compares (§5.2):
//
//   - Online: online gradient descent on each incoming chunk only.
//   - Periodical: online learning plus a full retraining every K chunks,
//     optionally warm-started (TFX-style).
//   - Continuous: online learning plus proactive training on samples of the
//     history every k chunks — the paper's contribution.
//
// Deployment time is discretized in chunks: one chunk arrives per tick,
// is first used to evaluate the deployed model (prequential evaluation) and
// then to train it.
package core

import (
	"fmt"
	"time"

	"cdml/internal/data"
	"cdml/internal/drift"
	"cdml/internal/engine"
	"cdml/internal/eval"
	"cdml/internal/linalg"
	"cdml/internal/model"
	"cdml/internal/obs"
	"cdml/internal/opt"
	"cdml/internal/pipeline"
	"cdml/internal/sample"
	"cdml/internal/sched"
	"cdml/internal/wal"
)

// Stream supplies raw data chunks in deployment order. Both dataset
// generators satisfy it.
type Stream interface {
	// Name identifies the stream.
	Name() string
	// Chunk returns the raw records of chunk i.
	Chunk(i int) [][]byte
	// NumChunks returns the total number of chunks.
	NumChunks() int
}

// Mode selects the deployment strategy.
type Mode int

// Deployment strategies.
const (
	ModeOnline Mode = iota
	ModePeriodical
	ModeContinuous
	// ModeThreshold is the Velox-style baseline the paper's related work
	// describes (§6): online learning plus a full retraining whenever the
	// recent (fading) error exceeds a threshold. It shares the periodical
	// strategy's drawbacks — retraining is expensive and the trigger reacts
	// only after quality has already degraded.
	ModeThreshold
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeOnline:
		return "online"
	case ModePeriodical:
		return "periodical"
	case ModeContinuous:
		return "continuous"
	case ModeThreshold:
		return "threshold"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Predictor maps a deployed model's output into the metric's label space
// (e.g. SVM margin → class label, regression score → value).
type Predictor func(m model.Model, x linalg.Vector) float64

// ClassifyPredictor returns the ±1 class label of an SVM-style model.
func ClassifyPredictor(m model.Model, x linalg.Vector) float64 {
	if m.Predict(x) >= 0 {
		return 1
	}
	return -1
}

// RegressionPredictor returns the raw regression score.
func RegressionPredictor(m model.Model, x linalg.Vector) float64 {
	return m.Predict(x)
}

// recentAlpha is the fading factor of every deployment's recent-loss
// estimate (an effective window of ~200 records). It is one constant, not a
// setting: a promotion compares two deployments' recent losses, and the
// comparison is fair only when both forget at the same rate.
//
// retrainCooldown is the minimum number of chunks between threshold-triggered
// retrainings, which prevents retrain storms while the estimate recovers.
//
// retrainEpochs is the number of mini-batch SGD epochs per full retraining.
const (
	recentAlpha     = 0.995
	retrainCooldown = 10
	retrainEpochs   = 3
)

// Config assembles one deployment run.
type Config struct {
	// Mode selects the deployment strategy.
	Mode Mode
	// NewPipeline constructs a fresh deployed pipeline. The factory is also
	// used by the NoOptimization path and by cold-start retraining, which
	// must recompute statistics from scratch.
	NewPipeline func() *pipeline.Pipeline
	// NewModel constructs a fresh model of the deployed type.
	NewModel func() model.Model
	// NewOptimizer constructs a fresh optimizer.
	NewOptimizer func() opt.Optimizer
	// Store is the data manager's chunk store; its capacity is the
	// materialization budget m.
	Store *data.Store
	// Sampler selects historical chunks for proactive training.
	Sampler sample.Strategy
	// SampleChunks is the number of chunks per proactive-training sample.
	SampleChunks int
	// ProactiveEvery triggers proactive training every k incoming chunks
	// (static scheduling in chunk time; continuous mode only).
	ProactiveEvery int
	// Scheduler, when set (continuous mode), replaces the chunk-count
	// trigger with wall-clock scheduling: the platform reports serving
	// load and training durations to it and trains whenever it is due.
	// Use sched.NewDynamic for the paper's Formula (6) policy (§4.1).
	Scheduler sched.Scheduler
	// RetrainEvery triggers a full retraining every K incoming chunks
	// (periodical mode only).
	RetrainEvery int
	// RetrainThreshold triggers a full retraining when the recent (fading)
	// per-record loss — Result.RecentLoss — exceeds this value (threshold mode
	// only); retrainings are at least retrainCooldown chunks apart and each
	// starts the recent loss over.
	RetrainThreshold float64
	// InitialEpochs is the number of epochs for the initial batch training
	// (the paper trains the initial model to convergence with a sampling
	// ratio of 1.0; defaults to 20).
	InitialEpochs int
	// RetrainBatchRows is the mini-batch size (rows) during retraining and
	// initial training.
	RetrainBatchRows int
	// WarmStart reuses pipeline statistics, model weights, and optimizer
	// state across retrainings (TFX-style; periodical mode only).
	WarmStart bool
	// NoOptimization disables the online statistics computation + dynamic
	// materialization optimizations (§3.1–3.2), running the NoOptimization
	// baseline of Figure 7: nothing is materialized and every proactive
	// sample re-reads raw chunks and recomputes component statistics from
	// scratch. The zero value is the fully optimized platform.
	NoOptimization bool
	// InitialChunks are consumed for initial batch training before
	// deployment begins (the paper's "day 0" / "Jan15" training set); they
	// are not evaluated.
	InitialChunks int
	// DriftDetector, when set (continuous mode), watches the per-record
	// prequential loss and triggers an immediate extra proactive training
	// whenever a drift is detected — the paper's future-work extension of
	// native drift alleviation (§7).
	DriftDetector drift.Detector
	// DriftLoss maps a (prediction, actual) pair to the per-record loss the
	// drift detector consumes and Result.RecentLoss fades; it defaults to 0/1
	// exact mismatch, which suits classification. Regression deployments
	// should supply a bounded loss (e.g. clipped absolute error).
	DriftLoss func(pred, actual float64) float64
	// DriftBoost is the number of SGD iterations a drift-triggered
	// training performs over the recent chunks (default 3) — one step
	// cannot outpace the drift, several re-anchor the model on the new
	// concept.
	DriftBoost int
	// Metric accumulates the prequential error.
	Metric eval.Metric
	// Predict maps model output to the metric's label space.
	Predict Predictor
	// Engine runs parallel chunk work — gather, transform, and gradient
	// shards; nil defaults to a single worker. Seeded runs are bit-identical
	// at any worker count (fixed shard partitions, ordered reduces), so the
	// parallelism knob is purely a throughput choice.
	Engine *engine.Engine
	// Metrics receives the deployment's counters, gauges, and latency
	// histograms (plus bridged store/engine/scheduler/cost-clock stats).
	// nil creates a private registry, so instrumentation is always on;
	// supply one to expose the metrics (e.g. through serve's /metrics).
	Metrics *obs.Registry
	// Labels are stamped on every metric series this deployment registers
	// (and on its store bridge), so several deployments can share one
	// Metrics registry without their series colliding — the deployment
	// registry labels each deployer with deployment=<name> plus a
	// generation. Empty keeps the unlabeled single-deployment series.
	// Deployments sharing a registry must also share their Engine: engine
	// series are registered unlabeled, and the registry keeps the first
	// registration.
	Labels []obs.Label
	// AutoCheckpoint, when set, persists published snapshots to disk
	// automatically, every EveryTicks ticks, so a crashed process can resume
	// from the last completed tick via RecoverFromDir. The writes happen on a
	// background goroutine off the tick path; see CheckpointPolicy.
	AutoCheckpoint *CheckpointPolicy
	// IngestLog, when set, opens a durable write-ahead ingest log (see
	// internal/wal): chunks appended via AppendIngestLog are fsynced before
	// the async ingest path acknowledges them, the drainer's IngestLogged
	// ticks mark consumption, and RecoverFromDir replays every logged chunk
	// the recovered checkpoint does not cover — making crash recovery exact
	// rather than checkpoint-granular. Retention is coupled to checkpoint
	// pruning: segments fully covered by the oldest retained checkpoint are
	// reclaimed after each checkpoint prune.
	IngestLog *wal.Options
	// Seed drives the retraining shuffles.
	Seed int64
}

func (c *Config) validate() error {
	if c.NewPipeline == nil || c.NewModel == nil || c.NewOptimizer == nil {
		return fmt.Errorf("core: NewPipeline, NewModel, and NewOptimizer are required")
	}
	if c.Metric == nil || c.Predict == nil {
		return fmt.Errorf("core: Metric and Predict are required")
	}
	if c.Store == nil {
		return fmt.Errorf("core: Store is required")
	}
	switch c.Mode {
	case ModeOnline:
	case ModeContinuous:
		if c.Sampler == nil {
			return fmt.Errorf("core: continuous mode requires a Sampler")
		}
		if c.SampleChunks <= 0 {
			return fmt.Errorf("core: continuous mode requires positive SampleChunks, got %d", c.SampleChunks)
		}
		if c.ProactiveEvery <= 0 && c.Scheduler == nil {
			return fmt.Errorf("core: continuous mode requires positive ProactiveEvery or a Scheduler")
		}
	case ModePeriodical:
		if c.RetrainEvery <= 0 {
			return fmt.Errorf("core: periodical mode requires positive RetrainEvery, got %d", c.RetrainEvery)
		}
	case ModeThreshold:
		if c.RetrainThreshold <= 0 {
			return fmt.Errorf("core: threshold mode requires positive RetrainThreshold, got %v", c.RetrainThreshold)
		}
	default:
		return fmt.Errorf("core: unknown mode %v", c.Mode)
	}
	if c.InitialEpochs <= 0 {
		c.InitialEpochs = 20
	}
	if c.RetrainBatchRows <= 0 {
		c.RetrainBatchRows = 512
	}
	if c.Engine == nil {
		c.Engine = engine.New(1)
	}
	if c.DriftBoost <= 0 {
		c.DriftBoost = 3
	}
	if c.AutoCheckpoint != nil && c.AutoCheckpoint.Dir == "" {
		return fmt.Errorf("core: AutoCheckpoint requires a Dir")
	}
	if c.IngestLog != nil && c.IngestLog.Dir == "" {
		return fmt.Errorf("core: IngestLog requires a Dir")
	}
	if c.DriftLoss == nil {
		c.DriftLoss = func(pred, actual float64) float64 {
			//lint:allow floateq: 0/1 loss compares exact class labels
			if pred != actual {
				return 1
			}
			return 0
		}
	}
	return nil
}

// curvePoints bounds each curve of a Result, which is given a point a tick
// for as long as the deployment runs: past it the curves keep the whole x
// range at half the resolution (see eval.Series.Max).
const curvePoints = 1024

// Result summarizes one deployment: what Run returns and what Stats answers.
type Result struct {
	// Mode echoes the strategy.
	Mode Mode
	// ErrorCurve is the cumulative prequential error over chunk time — x is
	// the number of chunks trained, InitialChunks + Chunks — one point a tick.
	// The curves are bounded (curvePoints): old history thins out, the x range
	// and AvgError do not change.
	ErrorCurve *eval.Series
	// CostCurve is the cumulative deployment cost (seconds) over chunk
	// time.
	CostCurve *eval.Series
	// FinalError is the cumulative error at the end of the deployment.
	FinalError float64
	// AvgError is the mean of the cumulative error after every tick — the
	// paper's "average error rate over the deployment".
	AvgError float64
	// Cost is the per-category cost breakdown.
	Cost *eval.CostClock
	// MatStats is the materialization accounting (continuous mode).
	MatStats data.MatStats
	// ProactiveRuns counts proactive trainings executed.
	ProactiveRuns int
	// DriftEvents counts drifts detected (and the extra proactive
	// trainings they triggered).
	DriftEvents int
	// Retrains counts full retrainings executed.
	Retrains int
	// ProactiveTotal is the wall-clock total of all proactive trainings.
	ProactiveTotal time.Duration
	// RetrainTotal is the wall-clock total of all full retrainings — the
	// §5.5 staleness discussion compares its per-event average against the
	// proactive average.
	RetrainTotal time.Duration
	// Evaluated counts prequentially evaluated records.
	Evaluated int64
	// RecentLoss is the faded mean (recentAlpha) of DriftLoss over the scored
	// records, RecentCount how many it has seen: the error level of the model
	// as it is now, which threshold mode retrains on (and then starts over)
	// and a promotion policy compares between two deployments. It is not part
	// of a checkpoint: a restored deployment starts it at zero.
	RecentLoss  float64
	RecentCount int64
	// Chunks counts the ticks that succeeded: the chunks ingested after the
	// initial training. The curves cannot say: they retain a bounded number of
	// points.
	Chunks int64
}

// AvgProactive returns the mean proactive-training duration.
func (r *Result) AvgProactive() time.Duration {
	if r.ProactiveRuns == 0 {
		return 0
	}
	return r.ProactiveTotal / time.Duration(r.ProactiveRuns)
}

// AvgRetrain returns the mean full-retraining duration.
func (r *Result) AvgRetrain() time.Duration {
	if r.Retrains == 0 {
		return 0
	}
	return r.RetrainTotal / time.Duration(r.Retrains)
}

package core

import (
	"context"
	"time"

	"cdml/internal/eval"
	"cdml/internal/obs"
)

// deployObs bundles the deployment's instruments. Every Deployer has one —
// when the config supplies no registry a private one is created — so the
// instrumentation call sites never branch on "is observability on".
// The write path is atomic increments plus one span tree per tick (a chunk,
// never a record), keeping the hot serving loop allocation-free.
type deployObs struct {
	reg    *obs.Registry
	tracer *obs.Tracer

	ticks            *obs.Counter
	chunksIngested   *obs.Counter
	recordsEvaluated *obs.Counter
	predictQueries   *obs.Counter
	driftFires       *obs.Counter
	proactiveRuns    *obs.Counter
	retrains         *obs.Counter

	predictLatency    *obs.Histogram
	proactiveDuration *obs.Histogram
	retrainDuration   *obs.Histogram

	gatherChunks      *obs.Counter
	snapshotPublishes *obs.Counter

	prequentialError *obs.Gauge
}

// withLabels copies base and appends extra, so repeated calls building
// per-series label sets from one shared base never alias each other.
func withLabels(base []obs.Label, extra ...obs.Label) []obs.Label {
	out := make([]obs.Label, 0, len(base)+len(extra))
	out = append(out, base...)
	return append(out, extra...)
}

// newDeployObs creates the deployment's instruments on the configured
// registry (or a private one) and bridges the surrounding components in:
// CostClock categories, store materialization accounting, engine task
// stats, and — when the scheduler exposes them — the Formula (6) load
// inputs. Every series carries Config.Labels, so deployments sharing a
// registry (the multi-deployment registry's arrangement) stay separable.
func newDeployObs(d *Deployer) *deployObs {
	reg := d.cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ls := d.cfg.Labels
	o := &deployObs{
		reg:    reg,
		tracer: obs.NewTracer(obs.DefaultTraceCapacity),
		ticks: reg.Counter("cdml_ticks_total",
			"Deployment ticks executed (one per ingested chunk).", ls...),
		chunksIngested: reg.Counter("cdml_chunks_ingested_total",
			"Raw chunks ingested into the platform.", ls...),
		recordsEvaluated: reg.Counter("cdml_records_evaluated_total",
			"Records prequentially evaluated by the deployed model.", ls...),
		predictQueries: reg.Counter("cdml_predict_queries_total",
			"Prediction queries answered (serving path).", ls...),
		driftFires: reg.Counter("cdml_drift_fires_total",
			"Drift-detector fires that triggered an immediate proactive training.", ls...),
		proactiveRuns: reg.Counter("cdml_proactive_runs_total",
			"Proactive trainings executed (paper §3.3).", ls...),
		retrains: reg.Counter("cdml_retrains_total",
			"Full retrainings executed (periodical/threshold strategies).", ls...),
		predictLatency: reg.Histogram("cdml_predict_latency_seconds",
			"Latency of answering one prediction batch (chunk or query batch).", ls...),
		proactiveDuration: reg.Histogram("cdml_proactive_train_seconds",
			"Duration of proactive trainings.", ls...),
		retrainDuration: reg.Histogram("cdml_retrain_seconds",
			"Duration of full retrainings.", ls...),
		gatherChunks: reg.Counter("cdml_gather_chunks_total",
			"Chunks gathered for proactive training samples.", ls...),
		snapshotPublishes: reg.Counter("cdml_snapshot_publishes_total",
			"Immutable deployment snapshots published for the lock-free read path.", ls...),
		prequentialError: reg.Gauge("cdml_prequential_error",
			"Cumulative prequential error of the deployed model.", ls...),
	}
	// Bridge the CostClock's per-category accounting into gauges, read at
	// scrape time.
	for _, cat := range []eval.Category{eval.CatPreprocess, eval.CatTrain, eval.CatPredict, eval.CatIO} {
		c := cat
		reg.GaugeFunc("cdml_cost_seconds",
			"Cumulative deployment cost by category (paper §5.2).",
			func() float64 { return d.cost.Get(c).Seconds() },
			withLabels(ls, obs.L("category", string(c)))...)
	}
	// Snapshot staleness and version, read from the atomic publish pointer
	// at scrape time (nil until NewDeployer's initial publish).
	reg.GaugeFunc("cdml_snapshot_age_seconds",
		"Age of the published deployment snapshot (time since last publish).",
		func() float64 {
			s := d.snap.Load()
			if s == nil {
				return 0
			}
			return time.Since(s.builtAt).Seconds()
		}, ls...)
	reg.GaugeFunc("cdml_recent_loss",
		"Faded mean of the per-record drift loss over the records scored so far (Result.RecentLoss): the number threshold mode retrains on and a promotion compares.",
		func() float64 {
			s := d.snap.Load()
			if s == nil {
				return 0
			}
			return s.stats.RecentLoss
		}, ls...)
	reg.GaugeFunc("cdml_snapshot_version",
		"Version of the published deployment snapshot (publish sequence number).",
		func() float64 {
			s := d.snap.Load()
			if s == nil {
				return 0
			}
			return float64(s.version)
		}, ls...)
	d.cfg.Store.Instrument(reg, ls...)
	d.cfg.Engine.Instrument(reg)
	return o
}

// Metrics returns the deployment's metric registry (shared with the config's
// registry when one was supplied).
func (d *Deployer) Metrics() *obs.Registry { return d.obs.reg }

// Tracer returns the deployment's tick tracer.
func (d *Deployer) Tracer() *obs.Tracer { return d.obs.tracer }

// beginTick opens the span tree for one deployment tick and, when ctx carries
// an obs.Span, copies its trace and request ids onto the tick root — the
// receiving half of cross-boundary trace propagation (the sending half is the
// HTTP middleware or the async-ingest drainer putting a carrier span in ctx).
//
//cdml:hotpath
//cdml:locked mu — tickBody's callers hold d.mu around it
func (d *Deployer) beginTick(ctx context.Context) {
	d.tickSpan = obs.StartSpan("tick")
	d.obs.ticks.Inc()
	if carrier := obs.FromContext(ctx); carrier != nil {
		d.tickSpan.TraceID = carrier.TraceID
		d.tickSpan.RequestID = carrier.RequestID
	}
}

// endTick finishes and records the tick's span tree and refreshes the error
// gauge. A successful tick ends after its publish, so the tree shows it; a
// failed tick is recorded too: its tree ends at the stage that failed,
// which is the one an operator following the drainer's trace_id wants to
// see.
//
//cdml:hotpath
//cdml:locked mu — tickBody's callers hold d.mu around it
func (d *Deployer) endTick() {
	d.tickSpan.Finish()
	d.obs.tracer.Record(d.tickSpan)
	d.tickSpan = nil
	d.obs.prequentialError.Set(d.cfg.Metric.Value())
}

// publishTick is the publish that ends a successful tick, recorded as the
// tick's "publish" stage and charged to no cost category: it is the serving
// side's bookkeeping, not one of the paper's cost components.
//
//cdml:locked mu — tickBody's callers hold d.mu around it
func (d *Deployer) publishTick() {
	_, _ = d.timed("publish", "", func() error {
		d.publish()
		return nil
	})
}

// timed runs f as the stage name of the tick in flight and is the one place
// a stage is clocked: a single start/end pair, whose duration is charged to
// the cost category cat (none when empty: a stage made of parts that charge
// their own), recorded as a child of the tick span (dropped outside a tick,
// e.g. during initial training) and returned for every other consumer — the
// histogram, the Result total, the scheduler.
//
//cdml:locked mu — only tick helpers call it
func (d *Deployer) timed(name string, cat eval.Category, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	dur := time.Since(start)
	if cat != "" {
		d.cost.Add(cat, dur)
	}
	d.tickSpan.AddChild(name, start, dur)
	return dur, err
}

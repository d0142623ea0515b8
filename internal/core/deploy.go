package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"cdml/internal/data"
	"cdml/internal/drift"
	"cdml/internal/engine"
	"cdml/internal/eval"
	"cdml/internal/model"
	"cdml/internal/obs"
	"cdml/internal/opt"
	"cdml/internal/pipeline"
	"cdml/internal/wal"
)

// Deployer executes one deployment scenario. It can be driven two ways:
// Run plays a whole recorded stream (the experiment harness), while
// Ingest/Predict drive a live deployment one chunk or query batch at a
// time (the serving path; Warm is its initial training, many Ingests as one
// batch). The two entry points share the same training machinery; use one
// or the other, not both.
type Deployer struct {
	cfg  Config
	pipe *pipeline.Pipeline
	mdl  model.Model
	optm opt.Optimizer
	cost *eval.CostClock
	rng  *rand.Rand
	// driftPending is set when the drift detector fires mid-chunk and is
	// consumed by the next training decision.
	//cdml:guardedby mu
	driftPending bool
	// countdowns for the chunk-count triggers, shared by Run and Ingest.
	//cdml:guardedby mu
	proactiveCountdown int
	//cdml:guardedby mu
	retrainCountdown int
	// threshold-mode state: the recent-error monitor and the retrain
	// cooldown counter.
	//cdml:guardedby mu
	thresholdMonitor *eval.Fading
	//cdml:guardedby mu
	thresholdCooldown int
	// obs holds the deployment's instruments (always non-nil); tickSpan is
	// the span tree of the tick in flight, nil between ticks. Both are
	// guarded by the same serialization as the rest of the deployment
	// state (d.mu for live use; Run is single-threaded).
	obs *deployObs
	//cdml:guardedby mu
	tickSpan *obs.Span
	// lastTickTraceID is the trace id of the most recently completed tick,
	// stashed by endTick and consumed by the next publish (see snapshot.go).
	//cdml:guardedby mu
	lastTickTraceID string
	// ckpt is the auto-checkpoint manager (nil without an AutoCheckpoint
	// policy). The writer only hands it published snapshots; all file IO
	// runs on the manager's goroutine.
	ckpt *ckptManager
	// wal is the durable write-ahead ingest log (nil without an IngestLog
	// config). Appends are fsynced before the async ack; ticks buffer
	// commit records under d.mu before publishing, and the checkpoint
	// writer syncs the log before any checkpoint becomes durable — see
	// internal/wal for the replay-correctness invariant.
	wal *wal.Log
	// ctx gates all engine work dispatched by this deployment; Shutdown
	// cancels it so a draining server stops scheduling new parallel tasks.
	ctx          context.Context
	cancel       context.CancelFunc
	shutdownOnce sync.Once

	// mu serializes the writers (Ingest, Checkpoint, RestoreCheckpoint).
	// Run does not take it; a Run is single-threaded by construction, and
	// its helpers carry //cdml:locked mu to document that the serialization
	// is provided externally. Predict and Stats never take it — they read
	// the published snapshot.
	mu sync.Mutex
	//cdml:guardedby mu
	live *Result // accumulating result for live use, lazily created

	// snap is the published deployment snapshot the lock-free read path
	// serves from; publishSeq is the writer-owned version counter behind
	// Snapshot.Version.
	snap atomic.Pointer[Snapshot]
	//cdml:guardedby mu
	publishSeq uint64
	// optmAhead is true while the live optimizer has stepped since the last
	// publish. Inside a tick that is the normal state; between ticks it is
	// true only after a tick failed past its first optimizer step, and it
	// keeps resumePoint from pairing the published weights with a later
	// optimizer (see ErrResumeUnavailable).
	//cdml:guardedby mu
	optmAhead bool

	// pendingQueries/pendingQueryNanos accumulate the read path's load
	// observations for the dynamic scheduler until the writer drains them
	// (drainQueryLoad) at the next tick.
	pendingQueries    atomic.Int64
	pendingQueryNanos atomic.Int64

	// snapSrc is the snapstream source over the published snapshot (see
	// stream.go); one per deployer so its per-version encode cache is shared
	// by every consumer.
	snapSrc snapshotSource
}

// NewDeployer validates the config and builds the deployment.
//
//cdml:detached the deployment owns its own lifetime root; Shutdown cancels it when the process drains
func NewDeployer(cfg Config) (*Deployer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d := &Deployer{
		cfg:                cfg,
		pipe:               cfg.NewPipeline(),
		mdl:                cfg.NewModel(),
		optm:               cfg.NewOptimizer(),
		cost:               eval.NewCostClock(),
		rng:                rand.New(rand.NewSource(cfg.Seed)),
		proactiveCountdown: cfg.ProactiveEvery,
		retrainCountdown:   cfg.RetrainEvery,
	}
	d.snapSrc.d = d
	if cfg.Mode == ModeThreshold {
		d.thresholdMonitor = eval.NewFading(thresholdAlpha)
	}
	d.ctx, d.cancel = context.WithCancel(context.Background())
	d.obs = newDeployObs(d)
	// Open the ingest log before the checkpoint loop starts: the loop's
	// walSync hook must observe the final d.wal value.
	if cfg.IngestLog != nil {
		if err := d.openIngestLog(*cfg.IngestLog); err != nil {
			d.cancel()
			return nil, err
		}
	}
	// Publish the initial snapshot (version 1) so Predict and Stats answer
	// from the freshly built pipeline and model before the first tick.
	d.publish()
	// Start the checkpoint loop after the initial publish so only real
	// ticks advance its trigger counter.
	if cfg.AutoCheckpoint != nil {
		ckpt, err := newCkptManager(*cfg.AutoCheckpoint, cfg.Labels, d.obs.reg, d.obs.tracer, d.walSyncHook(), d.walPruneHook())
		if err != nil {
			d.cancel()
			if d.wal != nil {
				_ = d.wal.Close()
			}
			return nil, err
		}
		d.ckpt = ckpt
	}
	return d, nil
}

// Shutdown stops dispatching new engine tasks (parallel gather and gradient
// shards): in-flight tasks finish, and subsequent training work fails fast
// with the context error. Prediction answering does not use the engine and
// keeps working, which is exactly the drain behavior a serving deployment
// wants — answer queries, stop starting expensive training. Shutdown also
// stops the auto-checkpoint loop, waiting for an in-flight checkpoint
// write to complete so no *.tmp file is abandoned on a clean exit.
// Idempotent and safe to call concurrently, before or after Run.
func (d *Deployer) Shutdown() {
	d.shutdownOnce.Do(func() {
		d.cancel()
		if d.ckpt != nil {
			d.ckpt.shutdown()
		}
		// Close the ingest log only after the checkpoint loop has drained:
		// its final write may still call the walSync hook.
		if d.wal != nil {
			_ = d.wal.Close()
		}
	})
}

// Model exposes the deployed model (for inspection after Run).
func (d *Deployer) Model() model.Model { return d.mdl }

// Pipeline exposes the deployed pipeline.
func (d *Deployer) Pipeline() *pipeline.Pipeline { return d.pipe }

// Run plays the whole stream through the deployment: the first
// InitialChunks train the initial model in batch mode; every later chunk is
// prequentially evaluated, used for online learning, stored, and — per
// strategy — triggers proactive training or periodical retraining.
//
//cdml:locked mu — a Run is single-threaded by construction (see the Deployer doc): it owns the writer state without taking the lock
func (d *Deployer) Run(s Stream) (*Result, error) {
	res := &Result{
		Mode:       d.cfg.Mode,
		ErrorCurve: &eval.Series{Name: d.cfg.Mode.String() + "-error"},
		CostCurve:  &eval.Series{Name: d.cfg.Mode.String() + "-cost"},
		Cost:       d.cost,
	}
	n := s.NumChunks()
	if d.cfg.InitialChunks >= n {
		return nil, fmt.Errorf("core: InitialChunks %d exceeds stream length %d", d.cfg.InitialChunks, n)
	}
	if err := d.initialTrain(s); err != nil {
		return nil, err
	}
	d.proactiveCountdown = d.cfg.ProactiveEvery
	d.retrainCountdown = d.cfg.RetrainEvery
	for i := d.cfg.InitialChunks; i < n; i++ {
		records := s.Chunk(i)
		d.beginTick()

		// 1. Prequential evaluation: answer the chunk as prediction
		// queries with the currently deployed model.
		if err := d.serveAndScore(records, res); err != nil {
			return nil, err
		}

		// 2. Online learning plus strategy-specific training.
		if err := d.ingest(records, res); err != nil {
			return nil, err
		}
		d.endTick()

		if (i-d.cfg.InitialChunks)%d.cfg.CheckpointEvery == 0 || i == n-1 {
			x := float64(i)
			res.ErrorCurve.Append(x, d.cfg.Metric.Value())
			res.CostCurve.Append(x, d.cost.Total().Seconds())
		}
	}
	res.FinalError = d.cfg.Metric.Value()
	res.AvgError = res.ErrorCurve.Mean()
	res.MatStats = d.cfg.Store.Stats()
	// Publish once at the end so Predict calls after a Run serve the fully
	// trained state. Run does not publish per tick: it is the
	// single-threaded experiment harness with no concurrent readers, and
	// per-tick deep copies would only distort the cost measurements.
	d.publish()
	return res, nil
}

// ingest runs the training half of one deployment tick: online learning on
// the chunk, storage, and the strategy-specific training trigger.
//
//cdml:locked mu — tick helper; ingestTick holds d.mu and Run is single-threaded
func (d *Deployer) ingest(records [][]byte, res *Result) error {
	// Online learning: update pipeline statistics, transform, store, and
	// apply one online gradient step on the fresh chunk.
	if err := d.onlineUpdate(records); err != nil {
		return err
	}
	switch d.cfg.Mode {
	case ModeContinuous:
		d.proactiveCountdown--
		due := false
		recent := false
		switch {
		case d.driftPending:
			// Drift alleviation: adapt immediately with an extra proactive
			// training over the newest chunks instead of waiting for the
			// schedule.
			d.driftPending = false
			res.DriftEvents++
			d.obs.driftFires.Inc()
			due = true
			recent = true
		case d.cfg.Scheduler != nil:
			due = d.cfg.Scheduler.Due(time.Now())
		default:
			due = d.proactiveCountdown <= 0
		}
		if due {
			d.proactiveCountdown = d.cfg.ProactiveEvery
			start := time.Now()
			sp := d.stage("proactive-train")
			if err := d.proactiveTrain(res, recent); err != nil {
				return err
			}
			sp.Finish()
			if d.cfg.Scheduler != nil {
				d.cfg.Scheduler.TrainingDone(time.Now(), time.Since(start))
			}
		}
	case ModePeriodical:
		d.retrainCountdown--
		if d.retrainCountdown <= 0 {
			d.retrainCountdown = d.cfg.RetrainEvery
			sp := d.stage("retrain")
			if err := d.retrain(res); err != nil {
				return err
			}
			sp.Finish()
		}
	case ModeThreshold:
		d.thresholdCooldown--
		if d.thresholdCooldown <= 0 && d.thresholdMonitor.Count() > 0 &&
			d.thresholdMonitor.Value() > d.cfg.RetrainThreshold {
			d.thresholdCooldown = retrainCooldown
			d.thresholdMonitor.Reset()
			sp := d.stage("retrain")
			if err := d.retrain(res); err != nil {
				return err
			}
			sp.Finish()
		}
	}
	return nil
}

// initialTrain consumes the first InitialChunks for batch training: all
// chunks are preprocessed with the online path (building the initial
// pipeline statistics), stored, and the model is trained with
// RetrainEpochs of mini-batch SGD.
func (d *Deployer) initialTrain(s Stream) error {
	if d.cfg.InitialChunks == 0 {
		return nil
	}
	var all []data.Instance
	for i := 0; i < d.cfg.InitialChunks; i++ {
		records := s.Chunk(i)
		var (
			ins []data.Instance
			err error
		)
		d.cost.Time(eval.CatPreprocess, func() {
			ins, err = d.pipe.ProcessOnline(records)
		})
		if err != nil {
			return fmt.Errorf("core: initial training chunk %d: %w", i, err)
		}
		if err := d.store(records, ins); err != nil {
			return err
		}
		all = append(all, ins...)
	}
	return d.cost.TimeErr(eval.CatTrain, func() error {
		return d.sgdEpochs(d.mdl, d.optm, all, d.cfg.InitialEpochs)
	})
}

// serveAndScore preprocesses the chunk on the transform-only path and
// prequentially scores the deployed model on every resulting instance.
//
//cdml:locked mu — tick helper; ingestTick holds d.mu and Run is single-threaded
func (d *Deployer) serveAndScore(records [][]byte, res *Result) error {
	var (
		ins   []data.Instance
		err   error
		start = time.Now()
		sp    = d.stage("serve")
	)
	defer func() {
		sp.Finish()
		// Exemplar: a slow serve observation carries the tick's trace id, so
		// the /v1/metrics top bucket links to the exact tick in .../trace.
		d.obs.predictLatency.ObserveExemplar(time.Since(start), d.tickTraceID())
		d.obs.recordsEvaluated.Add(int64(len(ins)))
	}()
	d.cost.Time(eval.CatPredict, func() {
		ins, err = d.pipe.ProcessServe(records)
		if err != nil {
			return
		}
		for _, in := range ins {
			pred := d.cfg.Predict(d.mdl, in.X)
			d.cfg.Metric.Observe(pred, in.Y)
			if d.cfg.DriftDetector != nil {
				if d.cfg.DriftDetector.Observe(d.cfg.DriftLoss(pred, in.Y)) == drift.StateDrift {
					d.driftPending = true
				}
			}
			if d.thresholdMonitor != nil {
				d.thresholdMonitor.ObserveLoss(d.cfg.DriftLoss(pred, in.Y))
			}
		}
	})
	if err != nil {
		return fmt.Errorf("core: serving chunk: %w", err)
	}
	if d.cfg.Scheduler != nil && len(ins) > 0 {
		d.cfg.Scheduler.ObserveQueries(time.Now(), len(ins), time.Since(start))
	}
	res.Evaluated += int64(len(ins))
	return nil
}

// onlineUpdate runs the online path: Update+Transform through the pipeline
// (computing the online statistics), stores raw and feature chunks, and
// applies one online gradient step.
func (d *Deployer) onlineUpdate(records [][]byte) error {
	var (
		ins []data.Instance
		err error
	)
	d.timeStage("preprocess", func() {
		d.cost.Time(eval.CatPreprocess, func() {
			ins, err = d.pipe.ProcessOnline(records)
		})
	})
	if err != nil {
		return fmt.Errorf("core: online update: %w", err)
	}
	sp := d.stage("materialize")
	if err := d.store(records, ins); err != nil {
		return err
	}
	sp.Finish()
	d.obs.chunksIngested.Inc()
	if len(ins) > 0 {
		var uerr error
		d.timeStage("online-update", func() {
			uerr = d.cost.TimeErr(eval.CatTrain, func() error {
				return d.parallelUpdate(d.mdl, d.optm, ins)
			})
		})
		if uerr != nil {
			return fmt.Errorf("core: online update: %w", uerr)
		}
	}
	return nil
}

// store persists the raw chunk always, and the feature chunk when the
// optimizations are enabled (dynamic materialization needs stored features;
// the NoOptimization baseline stores none).
func (d *Deployer) store(records [][]byte, ins []data.Instance) error {
	return d.cost.TimeErr(eval.CatIO, func() error {
		id, err := d.cfg.Store.AppendRaw(records)
		if err != nil {
			return err
		}
		if !d.cfg.NoOptimization {
			if err := d.cfg.Store.PutFeatures(id, ins); err != nil {
				return err
			}
		}
		return nil
	})
}

// proactiveTrain executes one proactive training (§3.3): sample chunks,
// dynamically materialize the missing ones, and run a single mini-batch SGD
// iteration on their union. A drift-triggered training (recent=true)
// samples the newest chunks instead, so the model adapts to the post-drift
// concept rather than re-learning stale history.
func (d *Deployer) proactiveTrain(res *Result, recent bool) error {
	start := time.Now()
	defer func() {
		res.ProactiveRuns++
		res.ProactiveTotal += time.Since(start)
		d.obs.proactiveRuns.Inc()
		d.obs.proactiveDuration.Observe(time.Since(start))
	}()
	var ids []data.Timestamp
	if recent {
		all := d.cfg.Store.RawIDs()
		if len(all) > d.cfg.SampleChunks {
			all = all[len(all)-d.cfg.SampleChunks:]
		}
		ids = all
	} else {
		ids = d.cfg.Sampler.Sample(d.cfg.Store.RawIDs(), d.cfg.SampleChunks)
	}
	if len(ids) == 0 {
		return nil
	}
	var batch []data.Instance
	var err error
	if !d.cfg.NoOptimization {
		batch, err = d.gatherOptimized(ids)
	} else {
		batch, err = d.gatherNoOptimization(ids)
	}
	if err != nil {
		return err
	}
	if len(batch) == 0 {
		return nil
	}
	iterations := 1
	if recent {
		iterations = d.cfg.DriftBoost
	}
	return d.cost.TimeErr(eval.CatTrain, func() error {
		for it := 0; it < iterations; it++ {
			// iterations of data-parallel mini-batch SGD
			if err := d.parallelUpdate(d.mdl, d.optm, batch); err != nil {
				return err
			}
		}
		return nil
	})
}

// gatherOptimized fetches sampled chunks, reusing materialized features and
// re-materializing evicted ones through the deployed pipeline's
// transform-only path (online statistics are already up to date). Chunks
// are gathered as parallel engine tasks — the feature fetch, the raw
// fallback, and the re-materialization of a miss are all per-chunk
// independent — with the union preserving sample order, so the assembled
// batch is identical at any worker count. Hit/miss accounting is atomic
// and the CostClock serializes its own category charges, keeping per-chunk
// cost attribution safe under concurrency.
func (d *Deployer) gatherOptimized(ids []data.Timestamp) ([]data.Instance, error) {
	var hits, misses atomic.Int64
	d.obs.gatherParallelism.Set(float64(min(d.cfg.Engine.Workers(), len(ids))))
	batch, err := engine.UnionCtx(d.ctx, d.cfg.Engine, len(ids), func(k int) ([]data.Instance, error) {
		id := ids[k]
		var (
			ins []data.Instance
			ok  bool
			err error
		)
		if err = d.cost.TimeErr(eval.CatIO, func() error {
			var e error
			ins, ok, e = d.cfg.Store.Features(id)
			return e
		}); err != nil {
			return nil, fmt.Errorf("core: fetching features %d: %w", id, err)
		}
		if ok {
			hits.Add(1)
			return ins, nil
		}
		misses.Add(1)
		var raw data.RawChunk
		if err = d.cost.TimeErr(eval.CatIO, func() error {
			var e error
			raw, e = d.cfg.Store.Raw(id)
			return e
		}); err != nil {
			return nil, fmt.Errorf("core: fetching raw %d: %w", id, err)
		}
		d.cost.Time(eval.CatPreprocess, func() {
			ins, err = d.pipe.ProcessServe(raw.Records)
		})
		if err != nil {
			return nil, fmt.Errorf("core: re-materializing chunk %d: %w", id, err)
		}
		if err := d.cfg.Store.NoteRematerialized(id, ins); err != nil {
			return nil, err
		}
		return ins, nil
	})
	if err != nil {
		return nil, err
	}
	d.obs.gatherChunks.Add(int64(len(ids)))
	d.cfg.Store.NoteSample(int(hits.Load()), int(misses.Load()))
	return batch, nil
}

// gatherNoOptimization is the Figure 7 baseline: every sampled chunk is
// read raw from storage and preprocessed by a fresh pipeline whose
// component statistics are recomputed by scanning the sample (one full
// Update pass, then Transform).
func (d *Deployer) gatherNoOptimization(ids []data.Timestamp) ([]data.Instance, error) {
	raws, err := d.fetchRaw(ids)
	if err != nil {
		return nil, err
	}
	d.cfg.Store.NoteSample(0, len(ids))
	fresh := d.cfg.NewPipeline()
	var batch []data.Instance
	d.cost.Time(eval.CatPreprocess, func() {
		// First pass: recompute every stateful component's statistics over
		// the sample; second pass: transform.
		for _, rc := range raws {
			var ins []data.Instance
			ins, err = fresh.ProcessOnline(rc.Records)
			if err != nil {
				return
			}
			_ = ins // statistics pass only
		}
		if err != nil {
			return
		}
		batch, err = engine.UnionCtx(d.ctx, d.cfg.Engine, len(raws), func(k int) ([]data.Instance, error) {
			return fresh.ProcessServe(raws[k].Records)
		})
	})
	if err != nil {
		return nil, fmt.Errorf("core: NoOptimization preprocessing: %w", err)
	}
	return batch, nil
}

// fetchRaw reads the raw chunks of ids in parallel on the engine,
// preserving id order and charging the IO cost per task.
func (d *Deployer) fetchRaw(ids []data.Timestamp) ([]data.RawChunk, error) {
	return engine.MapCtx(d.ctx, d.cfg.Engine, len(ids), func(k int) (data.RawChunk, error) {
		var rc data.RawChunk
		if err := d.cost.TimeErr(eval.CatIO, func() error {
			var e error
			rc, e = d.cfg.Store.Raw(ids[k])
			return e
		}); err != nil {
			return data.RawChunk{}, fmt.Errorf("core: fetching raw %d: %w", ids[k], err)
		}
		return rc, nil
	})
}

// retrain executes a full periodical retraining over the entire stored
// history. With warm starting the deployed pipeline statistics, model
// weights, and optimizer state are reused; otherwise everything restarts
// from scratch, including a statistics-recomputation pass over the history.
//
//cdml:locked mu — tick helper; ingestTick holds d.mu and Run is single-threaded
func (d *Deployer) retrain(res *Result) error {
	start := time.Now()
	defer func() {
		res.Retrains++
		res.RetrainTotal += time.Since(start)
		d.obs.retrains.Inc()
		d.obs.retrainDuration.Observe(time.Since(start))
	}()
	ids := d.cfg.Store.RawIDs()
	if len(ids) == 0 {
		return nil
	}
	pipe := d.pipe
	mdl := d.mdl
	om := d.optm
	if !d.cfg.WarmStart {
		pipe = d.cfg.NewPipeline()
		mdl = d.cfg.NewModel()
		om = d.cfg.NewOptimizer()
	}
	raws, err := d.fetchRaw(ids)
	if err != nil {
		return fmt.Errorf("core: retraining fetch: %w", err)
	}
	var all []data.Instance
	d.cost.Time(eval.CatPreprocess, func() {
		if !d.cfg.WarmStart {
			// Cold start: recompute component statistics over the history.
			// The statistics pass mutates component state and must run
			// sequentially.
			for _, rc := range raws {
				if _, err = pipe.ProcessOnline(rc.Records); err != nil {
					return
				}
			}
		}
		// The transform pass only reads component statistics; the execution
		// engine parallelizes it across chunks (the Spark analogue of the
		// prototype's retraining job).
		all, err = engine.UnionCtx(d.ctx, d.cfg.Engine, len(raws), func(k int) ([]data.Instance, error) {
			return pipe.ProcessServe(raws[k].Records)
		})
	})
	if err != nil {
		return fmt.Errorf("core: retraining preprocessing: %w", err)
	}
	if err := d.cost.TimeErr(eval.CatTrain, func() error {
		return d.sgdEpochs(mdl, om, all, d.cfg.RetrainEpochs)
	}); err != nil {
		return err
	}
	// Deploy the retrained artifacts.
	d.pipe = pipe
	d.mdl = mdl
	d.optm = om
	d.optmAhead = true
	return nil
}

// sgdEpochs runs epochs of shuffled mini-batch SGD over the instances;
// each mini-batch updates data-parallel through the engine.
func (d *Deployer) sgdEpochs(mdl model.Model, om opt.Optimizer, all []data.Instance, epochs int) error {
	if len(all) == 0 {
		return nil
	}
	batchRows := d.cfg.RetrainBatchRows
	idx := make([]int, len(all))
	for i := range idx {
		idx[i] = i
	}
	batch := make([]data.Instance, 0, batchRows)
	for e := 0; e < epochs; e++ {
		d.rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		for start := 0; start < len(idx); start += batchRows {
			end := start + batchRows
			if end > len(idx) {
				end = len(idx)
			}
			batch = batch[:0]
			for _, k := range idx[start:end] {
				batch = append(batch, all[k])
			}
			if err := d.parallelUpdate(mdl, om, batch); err != nil {
				return err
			}
		}
	}
	return nil
}

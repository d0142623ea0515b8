package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cdml/internal/data"
	"cdml/internal/drift"
	"cdml/internal/eval"
	"cdml/internal/model"
	"cdml/internal/obs"
	"cdml/internal/opt"
	"cdml/internal/pipeline"
	"cdml/internal/wal"
)

// Deployer is one deployment: a pipeline and a model that every arriving
// chunk is scored against and then trains, one tick at a time. Ingest is the
// tick, followed by a publish of what it trained; Run and Warm are batches of
// the same tick with one publish at their end — Run over a recorded stream,
// after its initial training (the experiment harness, cmd/cdml), Warm over a
// generator, ahead of a server's first request. Predict and Stats answer from
// the published snapshot throughout, and Ingest after a batch continues the
// same deployment.
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
	// countdowns for the chunk-count triggers.
	//cdml:guardedby mu
	proactiveCountdown int
	//cdml:guardedby mu
	retrainCountdown int
	// recent is the faded mean of DriftLoss over every scored record; publish
	// freezes it into Result.RecentLoss / RecentCount.
	//cdml:guardedby mu
	recent *eval.Fading
	// thresholdCooldown counts down to the next chunk a threshold-mode
	// retraining may start on.
	//cdml:guardedby mu
	thresholdCooldown int
	// obs holds the deployment's instruments (always non-nil); tickSpan is
	// the span tree of the tick in flight, nil between ticks.
	obs *deployObs
	//cdml:guardedby mu
	tickSpan *obs.Span
	// ckpt is the auto-checkpoint manager (nil without an AutoCheckpoint
	// policy). A publish only counts and pokes it; the encode and all file
	// IO run on its goroutine.
	ckpt *ckptManager
	// wal is the durable write-ahead ingest log (nil without an IngestLog
	// config). Appends are fsynced before the async ack; ticks buffer
	// commit records under d.mu before publishing, and the checkpoint
	// writer syncs the log before any checkpoint becomes durable — see
	// internal/wal for the replay-correctness invariant.
	wal *wal.Log
	// ctx gates the deployment's training: Step and the warm-up's look-ahead
	// check it, and Shutdown cancels it so a draining server stops training.
	ctx          context.Context
	cancel       context.CancelFunc
	shutdownOnce sync.Once

	// mu serializes the writers (Ingest, Run, Warm, SnapshotSink().Apply).
	// Predict and Stats never take it — they read the published snapshot.
	mu sync.Mutex
	// result is the accumulating result every tick adds to; publish freezes a
	// copy of it into the snapshot Stats answers from.
	//cdml:guardedby mu
	result *Result

	// snap is the published deployment snapshot the lock-free read path
	// serves from; publishSeq is the writer-owned version counter behind
	// Snapshot.Version.
	snap atomic.Pointer[Snapshot]
	//cdml:guardedby mu
	publishSeq uint64
	// ring holds the recycled buffers publish copies the model and the
	// optimizer into (see ring.go).
	//cdml:guardedby mu
	ring weightRing
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
		recent:             eval.NewFading(recentAlpha),
	}
	d.result = &Result{
		Mode:       cfg.Mode,
		ErrorCurve: &eval.Series{Name: cfg.Mode.String() + "-error", Max: curvePoints},
		CostCurve:  &eval.Series{Name: cfg.Mode.String() + "-cost", Max: curvePoints},
		Cost:       d.cost,
	}
	d.ctx, d.cancel = context.WithCancel(context.Background())
	d.obs = newDeployObs(d)
	// The ingest log opens before the checkpoint writer that syncs and
	// prunes it starts, and closes (Shutdown) after that writer drains.
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
		ckpt, err := newCkptManager(*cfg.AutoCheckpoint, cfg.Labels, d.obs.reg, d.obs.tracer, d.wal)
		if err != nil {
			d.cancel()
			if d.wal != nil {
				_ = d.wal.Close()
			}
			return nil, err
		}
		d.ckpt = ckpt
		go d.checkpointLoop()
	}
	return d, nil
}

// Shutdown cancels the deployment's context: a warm-up stops between two
// ticks, its look-ahead with it, and every later training step fails fast
// with the context error (a gather in flight finishes, and the Step after it
// refuses). Prediction answering never reads the context and keeps working,
// which is exactly the drain behavior a serving deployment wants — answer
// queries, stop starting expensive training. Before the cancel it stops the
// checkpoint loop, which writes a checkpoint still due and leaves no *.tmp
// file. Idempotent and concurrency-safe, before or after Run.
func (d *Deployer) Shutdown() {
	d.shutdownOnce.Do(func() {
		if d.ckpt != nil {
			d.ckpt.shutdown()
		}
		d.cancel()
		if d.wal != nil {
			_ = d.wal.Close()
		}
	})
}

// Model exposes the deployed model (for inspection after Run). It is read
// only: the weight ring refreshes its buffers by the coordinates the
// deployment's own steps mark, so a write from outside would reach some
// later snapshots and not others.
func (d *Deployer) Model() model.Model { return d.mdl }

// Pipeline exposes the deployed pipeline.
func (d *Deployer) Pipeline() *pipeline.Pipeline { return d.pipe }

// Run plays the whole stream through the deployment: the first
// InitialChunks train the initial model in batch mode; every later chunk is
// one tick — prequentially evaluated, used for online learning, stored, and,
// per strategy, a trigger of proactive training or periodical retraining —
// taken serially in stream order on the calling goroutine. Like Warm it is a
// batch with one publish at its end (per-tick deep copies nobody reads would
// only distort the cost measurements), at the version as many Ingest calls
// would have reached, and what it returns is Stats() of that publish.
func (d *Deployer) Run(s Stream) (*Result, error) {
	n := s.NumChunks() - d.cfg.InitialChunks
	if n <= 0 {
		return nil, fmt.Errorf("core: InitialChunks %d exceeds stream length %d", d.cfg.InitialChunks, s.NumChunks())
	}
	d.mu.Lock()
	err := d.initialTrain(s)
	d.mu.Unlock()
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if err := d.batchTick(s.Chunk(d.cfg.InitialChunks+i), i, n); err != nil {
			return nil, err
		}
	}
	res := d.Stats()
	return &res, nil
}

// ingest runs the training half of one deployment tick: online learning on
// the chunk, storage, and the strategy-specific training trigger.
//
//cdml:locked mu — tick helper; tickBody's callers hold d.mu
func (d *Deployer) ingest(records [][]byte, in pipeline.Parsed) error {
	// Online learning: update pipeline statistics, transform, store, and
	// apply one online gradient step on the fresh chunk.
	if err := d.onlineUpdate(records, in); err != nil {
		return err
	}
	retrainDue := false
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
			d.result.DriftEvents++
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
			dur, err := d.timed("proactive-train", "", 0, func() error { return d.proactiveTrain(recent) })
			d.result.ProactiveRuns++
			d.result.ProactiveTotal += dur
			d.obs.proactiveRuns.Inc()
			d.obs.proactiveDuration.Observe(dur)
			if err != nil {
				return err
			}
			if d.cfg.Scheduler != nil {
				// The serving load since the last training is the predict
				// cost charged since then: Formula (6)'s pr·pl.
				d.cfg.Scheduler.TrainingDone(time.Now(), dur, d.cost.Get(eval.CatPredict))
			}
		}
	case ModePeriodical:
		d.retrainCountdown--
		if retrainDue = d.retrainCountdown <= 0; retrainDue {
			d.retrainCountdown = d.cfg.RetrainEvery
		}
	case ModeThreshold:
		d.thresholdCooldown--
		retrainDue = d.thresholdCooldown <= 0 && d.recent.Count() > 0 &&
			d.recent.Value() > d.cfg.RetrainThreshold
		if retrainDue {
			d.thresholdCooldown = retrainCooldown
			d.recent.Reset()
		}
	}
	if retrainDue {
		dur, err := d.timed("retrain", "", 0, d.retrain)
		d.result.Retrains++
		d.result.RetrainTotal += dur
		d.obs.retrains.Inc()
		d.obs.retrainDuration.Observe(dur)
		return err
	}
	return nil
}

// initialTrain consumes the first InitialChunks for batch training: all
// chunks are preprocessed with the online path (building the initial
// pipeline statistics), stored, and the model is trained with
// InitialEpochs of mini-batch SGD.
func (d *Deployer) initialTrain(s Stream) error {
	if d.cfg.InitialChunks == 0 {
		return nil
	}
	var all []data.Instance
	for i := 0; i < d.cfg.InitialChunks; i++ {
		records := s.Chunk(i)
		in, err := d.parse(records)
		if err != nil {
			return fmt.Errorf("core: initial training chunk %d: %w", i, err)
		}
		ins, err := d.preprocessAndStore(records, in)
		if err != nil {
			return fmt.Errorf("core: initial training chunk %d: %w", i, err)
		}
		all = append(all, ins...)
	}
	return d.cost.Time(eval.CatTrain, len(all)*d.cfg.InitialEpochs, func() error {
		return d.sgdEpochs(d.mdl, d.optm, all, d.cfg.InitialEpochs)
	})
}

// parse runs the chunk through the parser and the pipeline's stateless head
// once, for both the serve and the online pass.
func (d *Deployer) parse(records [][]byte) (pipeline.Parsed, error) {
	var in pipeline.Parsed
	if _, err := d.timed("parse", eval.CatPreprocess, len(records), func() (err error) {
		in, err = d.pipe.Parse(records)
		return err
	}); err != nil {
		return pipeline.Parsed{}, fmt.Errorf("core: parsing chunk: %w", err)
	}
	return in, nil
}

// serveAndScore finishes the parsed chunk of records on the transform-only
// path and prequentially scores the deployed model on every resulting
// instance.
//
//cdml:locked mu — tick helper; tickBody's callers hold d.mu
func (d *Deployer) serveAndScore(records [][]byte, in pipeline.Parsed) error {
	var ins []data.Instance
	dur, err := d.timed("serve", eval.CatPredict, len(records), func() (err error) {
		if ins, err = d.pipe.Serve(in); err != nil {
			return err
		}
		for _, in := range ins {
			pred := d.cfg.Predict(d.mdl, in.X)
			d.cfg.Metric.Observe(pred, in.Y)
			loss := d.cfg.DriftLoss(pred, in.Y)
			d.recent.ObserveLoss(loss)
			if d.cfg.DriftDetector != nil && d.cfg.DriftDetector.Observe(loss) == drift.StateDrift {
				d.driftPending = true
			}
		}
		return nil
	})
	// Exemplar: a slow serve observation carries the tick's trace id, so
	// the /v1/metrics top bucket links to the exact tick in .../trace.
	d.obs.predictLatency.ObserveExemplar(dur, d.tickSpan.TraceID)
	d.obs.recordsEvaluated.Add(int64(len(ins)))
	if err != nil {
		return fmt.Errorf("core: serving chunk: %w", err)
	}
	d.result.Evaluated += int64(len(ins))
	return nil
}

// onlineUpdate runs the online path on the tick's chunk: preprocessing and
// storage, then one online gradient step.
func (d *Deployer) onlineUpdate(records [][]byte, in pipeline.Parsed) error {
	ins, err := d.preprocessAndStore(records, in)
	if err != nil {
		return fmt.Errorf("core: online update: %w", err)
	}
	d.obs.chunksIngested.Inc()
	if len(ins) > 0 {
		if _, err := d.timed("online-update", eval.CatTrain, len(ins), func() error {
			return d.stepDeployed(ins)
		}); err != nil {
			return fmt.Errorf("core: online update: %w", err)
		}
	}
	return nil
}

// preprocessAndStore takes a fresh chunk in: Update+Transform through the
// rest of the pipeline after its parse in (computing the online statistics),
// then storage — the raw records always, and the feature chunk when the
// optimizations are enabled (dynamic materialization needs stored features;
// the NoOptimization baseline stores none). Inside a tick these are the
// preprocess and materialize stages.
func (d *Deployer) preprocessAndStore(records [][]byte, in pipeline.Parsed) ([]data.Instance, error) {
	var ins []data.Instance
	if _, err := d.timed("preprocess", eval.CatPreprocess, len(records), func() (err error) {
		ins, err = d.pipe.Online(in)
		return err
	}); err != nil {
		return nil, err
	}
	stored := len(records)
	if !d.cfg.NoOptimization {
		stored += len(ins)
	}
	_, err := d.timed("materialize", eval.CatIO, stored, func() error {
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
	return ins, err
}

// proactiveTrain executes one proactive training (§3.3): sample chunks,
// dynamically materialize the missing ones, and run a single mini-batch SGD
// iteration on their union. A drift-triggered training (recent=true)
// samples the newest chunks instead, so the model adapts to the post-drift
// concept rather than re-learning stale history.
func (d *Deployer) proactiveTrain(recent bool) error {
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
	return d.cost.Time(eval.CatTrain, len(batch)*iterations, func() error {
		for it := 0; it < iterations; it++ {
			if err := d.stepDeployed(batch); err != nil {
				return err
			}
		}
		return nil
	})
}

// gatherOptimized fetches the sampled chunks in sample order, reusing
// materialized features and re-materializing evicted ones through the
// deployed pipeline's transform-only path (online statistics are already up
// to date). It is a loop on the training goroutine — a handful of in-memory
// chunk lookups does not pay for a fan-out (DESIGN.md §5c) — and the first
// chunk that fails ends it.
func (d *Deployer) gatherOptimized(ids []data.Timestamp) ([]data.Instance, error) {
	parts := make([][]data.Instance, len(ids))
	hits, misses := 0, 0
	for k, id := range ids {
		start := time.Now()
		ins, ok, err := d.cfg.Store.Features(id)
		d.cost.Add(eval.CatIO, time.Since(start), len(ins))
		if err != nil {
			return nil, fmt.Errorf("core: fetching features %d: %w", id, err)
		}
		if ok {
			hits++
			parts[k] = ins
			continue
		}
		misses++
		raw, err := d.raw(id)
		if err != nil {
			return nil, err
		}
		if err := d.cost.Time(eval.CatPreprocess, len(raw.Records), func() (err error) {
			ins, err = d.pipe.ProcessServe(raw.Records)
			return err
		}); err != nil {
			return nil, fmt.Errorf("core: re-materializing chunk %d: %w", id, err)
		}
		d.cfg.Store.NoteRematerialized()
		parts[k] = ins
	}
	d.obs.gatherChunks.Add(int64(len(ids)))
	d.cfg.Store.NoteSample(hits, misses)
	return slices.Concat(parts...), nil
}

// gatherNoOptimization is the Figure 7 baseline: every sampled chunk is
// read raw from storage and preprocessed by a fresh pipeline whose
// component statistics are recomputed by scanning the sample (one full
// Update pass, then Transform).
func (d *Deployer) gatherNoOptimization(ids []data.Timestamp) ([]data.Instance, error) {
	batch, err := d.reprocess(d.cfg.NewPipeline(), ids, true)
	if err != nil {
		return nil, fmt.Errorf("core: NoOptimization preprocessing: %w", err)
	}
	d.cfg.Store.NoteSample(0, len(ids))
	return batch, nil
}

// raw reads one stored raw chunk, charging the IO.
func (d *Deployer) raw(id data.Timestamp) (data.RawChunk, error) {
	start := time.Now()
	rc, err := d.cfg.Store.Raw(id)
	d.cost.Add(eval.CatIO, time.Since(start), len(rc.Records))
	if err != nil {
		return data.RawChunk{}, fmt.Errorf("core: fetching raw %d: %w", id, err)
	}
	return rc, nil
}

// reprocess is the one re-read of history: the raw chunks of ids are read,
// then preprocessed by pipe into the union of their instances, in id order.
// With recompute, pipe's component statistics are first recomputed over all
// the chunks (a fresh pipeline: the NoOptimization sample, a cold-start
// retraining), and only then does the transform pass read them.
func (d *Deployer) reprocess(pipe *pipeline.Pipeline, ids []data.Timestamp, recompute bool) ([]data.Instance, error) {
	raws := make([]data.RawChunk, len(ids))
	rows := 0
	for k, id := range ids {
		rc, err := d.raw(id)
		if err != nil {
			return nil, err
		}
		raws[k] = rc
		rows += len(rc.Records)
	}
	if recompute {
		rows *= 2
	}
	parts := make([][]data.Instance, len(raws))
	if err := d.cost.Time(eval.CatPreprocess, rows, func() error {
		if recompute {
			for _, rc := range raws {
				if _, err := pipe.ProcessOnline(rc.Records); err != nil {
					return err
				}
			}
		}
		for k, rc := range raws {
			var err error
			if parts[k], err = pipe.ProcessServe(rc.Records); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return slices.Concat(parts...), nil
}

// retrain executes a full periodical retraining over the entire stored
// history. With warm starting the deployed pipeline statistics, model
// weights, and optimizer state are reused; otherwise everything restarts
// from scratch, including a statistics-recomputation pass over the history.
//
//cdml:locked mu — tick helper; tickBody's callers hold d.mu
func (d *Deployer) retrain() error {
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
	all, err := d.reprocess(pipe, ids, !d.cfg.WarmStart)
	if err != nil {
		return fmt.Errorf("core: retraining: %w", err)
	}
	if err := d.cost.Time(eval.CatTrain, len(all)*retrainEpochs, func() error {
		return d.sgdEpochs(mdl, om, all, retrainEpochs)
	}); err != nil {
		return err
	}
	// Deploy the retrained artifacts. A cold retraining's model and
	// optimizer are new objects sgdEpochs did not mark the ring for.
	d.pipe = pipe
	d.mdl = mdl
	d.optm = om
	d.ring.markAll()
	return nil
}

// stepDeployed is Step on the deployed model and optimizer — the online and
// the proactive step — with the coordinates it changed marked in every ring
// buffer, so the next publish that recycles one copies only those.
//
//cdml:locked mu — tick helper; tickBody's callers hold d.mu
func (d *Deployer) stepDeployed(batch []data.Instance) error {
	g, _, err := step(d.ctx, d.mdl, d.optm, batch)
	if g != nil {
		d.ring.mark(g)
	}
	return err
}

// sgdEpochs runs epochs of shuffled mini-batch SGD over the instances, one
// Step per mini-batch. On the deployed model (the initial training, a
// warm-start retraining) it marks every coordinate of every ring buffer
// stale first, so that even a training that fails midway is copied whole.
//
//cdml:locked mu — Run holds d.mu around initialTrain, and retrain is a tick helper
func (d *Deployer) sgdEpochs(mdl model.Model, om opt.Optimizer, all []data.Instance, epochs int) error {
	if len(all) == 0 {
		return nil
	}
	if mdl == d.mdl {
		d.ring.markAll()
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
			if _, err := Step(d.ctx, mdl, om, batch); err != nil {
				return err
			}
		}
	}
	return nil
}

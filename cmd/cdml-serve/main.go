// Command cdml-serve boots one or more live continuous deployments and
// exposes them over the versioned HTTP API: POST raw records to
// /v1/deployments/{name}/train to feed a pipeline, POST records to
// /v1/deployments/{name}/predict for real-time answers, GET /v1/deployments
// for the fleet. Without -deployments the process serves one deployment
// named "default".
//
//	cdml-serve -workload url -addr :8080 -warmup 20 -engine-workers 0
//
//	curl -s -X POST --data-binary @chunk.txt localhost:8080/v1/deployments/default/predict
//	curl -s localhost:8080/v1/deployments
//
// With -deployments config.json the server instead boots a fleet of named
// deployments sharing one engine pool and metric registry under
// per-deployment quotas:
//
//	{"deployments": [
//	  {"name": "urls",  "warmup": 20, "spec": {"workload": "url"}},
//	  {"name": "taxi",  "warmup": 10, "spec": {"workload": "taxi"},
//	   "quotas": {"max_ingest_queue": 64}}
//	]}
//
// The same spec format drives the runtime management API: PUT
// /v1/deployments/{name} creates a deployment, POST
// /v1/deployments/{name}/challengers attaches a shadow challenger that
// trains on a tee of the live traffic and is auto-promoted when its
// windowed error beats the champion's. With -auto-challenger a drift
// detector firing on a served champion starts that challenger
// automatically, debounced by -auto-challenger-cooldown.
//
// With -replica-of http://primary:8080 the process serves every
// deployment as a read-only replica: a per-deployment poller fetches
// GET /v1/deployments/{name}/snapshot?since=<version> from the primary
// every -replica-poll and atomically swaps new snapshots in; mutating
// routes answer 409 read_only_replica and .../status reports the sync
// lag.
//
// With -checkpoint-dir the deployment checkpoints itself crash-safely
// (every -checkpoint-every chunks and/or -checkpoint-interval of wall
// clock, keeping -checkpoint-keep files) and a restarted single-deployment
// server resumes from the newest valid checkpoint instead of warming up
// from scratch. In -deployments mode each deployment checkpoints into
// <dir>/<name>/gen<G>. Adding -wal-dir closes the durability gap between
// checkpoints: every chunk accepted by POST .../ingest is fsynced to a
// write-ahead ingest log before the 202 ack, and recovery replays the
// logged chunks the restored checkpoint does not cover — the restarted
// server's state is bit-identical to one that never crashed. Segments
// roll at -wal-segment-bytes and are reclaimed automatically as their
// chunks age past the oldest retained checkpoint. With -store-dir the
// default deployment's chunks live on disk behind a retrying backend and
// an in-memory LRU tier of -store-cache feature chunks (spec-created
// deployments keep chunks in memory).
//
// Generate warmup/request payloads with cmd/datagen.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"cdml"
	"cdml/datasets"
	"cdml/internal/core"
	"cdml/internal/drift"
	"cdml/internal/engine"
	"cdml/internal/obs"
	"cdml/internal/registry"
	"cdml/internal/sched"
	"cdml/internal/serve"
	"cdml/internal/wal"
)

// deploySpec is the JSON pipeline spec shared by the -deployments file and
// the runtime management API (PUT /v1/deployments/{name}, POST
// .../challengers).
type deploySpec struct {
	// Workload picks the pipeline family: "url" or "taxi".
	Workload string `json:"workload"`
	// Optimizer overrides the workload default ("adam", "sgd", "rmsprop").
	Optimizer string `json:"optimizer,omitempty"`
	// LR overrides the optimizer's learning rate (0 = workload default).
	LR float64 `json:"lr,omitempty"`
	// Rows sets the synthetic generator's records per chunk (warmup and
	// datagen parity; 0 = 80).
	Rows int `json:"rows,omitempty"`
	// Drift attaches a drift detector to the pipeline: "page-hinkley" or
	// "ddm" (empty = none). A fire triggers boosted training — and, with
	// -auto-challenger, an automatic shadow challenger.
	Drift string `json:"drift,omitempty"`
}

// deployEntry is one row of the -deployments config file.
type deployEntry struct {
	Name   string          `json:"name"`
	Spec   json.RawMessage `json:"spec"`
	Warmup int             `json:"warmup,omitempty"`
	Quotas registry.Quotas `json:"quotas"`
}

// deployFile is the -deployments config file.
type deployFile struct {
	Deployments []deployEntry `json:"deployments"`
}

// newOptimizerFactory resolves the spec's optimizer choice.
func newOptimizerFactory(kind string, lr float64, def func() cdml.Optimizer) (func() cdml.Optimizer, error) {
	switch kind {
	case "":
		return def, nil
	case "adam":
		if lr <= 0 {
			lr = 0.05
		}
		return func() cdml.Optimizer { return cdml.NewAdam(lr) }, nil
	case "sgd":
		if lr <= 0 {
			lr = 0.1
		}
		return func() cdml.Optimizer { return cdml.NewSGD(lr) }, nil
	case "rmsprop":
		if lr <= 0 {
			lr = 0.1
		}
		return func() cdml.Optimizer { return cdml.NewRMSProp(lr) }, nil
	default:
		return nil, fmt.Errorf("unknown optimizer %q (adam|sgd|rmsprop)", kind)
	}
}

// buildWorkloadConfig turns a spec into a deployment config plus the
// matching synthetic chunk generator (for warmup). The config carries no
// engine or metrics registry — the deployment registry injects the shared
// ones — and keeps chunks in memory: per-deployment disk stores would need
// per-generation directories, which only the single-deployment compat path
// wires up.
func buildWorkloadConfig(spec deploySpec, warmup int, slack float64, minTrain time.Duration) (core.Config, func(i int) [][]byte, error) {
	rows := spec.Rows
	if rows <= 0 {
		rows = 80
	}
	var (
		cfg   core.Config
		chunk func(i int) [][]byte
	)
	switch spec.Workload {
	case "url":
		dcfg := datasets.DefaultURLConfig()
		dcfg.Days = max(1, warmup/dcfg.ChunksPerDay+1)
		dcfg.RowsPerChunk = rows
		dcfg.Vocab = 5000
		dcfg.HashDim = 1 << 15
		g := datasets.NewURL(dcfg)
		chunk = g.Chunk
		opt, err := newOptimizerFactory(spec.Optimizer, spec.LR,
			func() cdml.Optimizer { return cdml.NewAdam(0.05) })
		if err != nil {
			return core.Config{}, nil, err
		}
		cfg = core.Config{
			Mode:         cdml.ModeContinuous,
			NewPipeline:  func() *cdml.Pipeline { return datasets.NewURLPipeline(dcfg.HashDim) },
			NewModel:     func() cdml.Model { return datasets.NewURLModel(dcfg.HashDim, 1e-3) },
			NewOptimizer: opt,
			Metric:       &cdml.Misclassification{},
			Predict:      cdml.ClassifyPredictor,
		}
	case "taxi":
		dcfg := datasets.DefaultTaxiConfig()
		dcfg.Chunks = max(warmup, 1)
		dcfg.RowsPerChunk = rows
		g := datasets.NewTaxi(dcfg)
		chunk = g.Chunk
		opt, err := newOptimizerFactory(spec.Optimizer, spec.LR,
			func() cdml.Optimizer { return cdml.NewRMSProp(0.1) })
		if err != nil {
			return core.Config{}, nil, err
		}
		cfg = core.Config{
			Mode:         cdml.ModeContinuous,
			NewPipeline:  func() *cdml.Pipeline { return datasets.NewTaxiPipeline() },
			NewModel:     func() cdml.Model { return datasets.NewTaxiModel(1e-4) },
			NewOptimizer: opt,
			Metric:       &cdml.RMSE{},
			Predict:      cdml.RegressionPredictor,
		}
	case "":
		return core.Config{}, nil, errors.New("spec is missing \"workload\"")
	default:
		return core.Config{}, nil, fmt.Errorf("unknown workload %q (url|taxi)", spec.Workload)
	}
	if spec.Drift != "" {
		det, err := drift.New(spec.Drift)
		if err != nil {
			return core.Config{}, nil, err
		}
		cfg.DriftDetector = det
	}
	cfg.Store = cdml.NewStore(cdml.NewMemoryBackend())
	cfg.Sampler = cdml.NewTimeSampler(1)
	cfg.SampleChunks = 8
	// A live serving deployment schedules proactive training in wall-clock
	// time from the observed query load (Formula 6), not by chunk count —
	// the scheduler's pr/pl readings surface as gauges on /v1/metrics.
	cfg.Scheduler = sched.NewDynamic(slack, minTrain)
	return cfg, chunk, nil
}

func main() {
	workload := flag.String("workload", "url", "workload pipeline to deploy: url|taxi (single-deployment mode)")
	deployments := flag.String("deployments", "", "JSON config of named deployments to boot (multi-pipeline mode; see package doc)")
	addr := flag.String("addr", ":8080", "listen address")
	warmup := flag.Int("warmup", 20, "synthetic chunks to ingest before serving")
	rows := flag.Int("rows", 80, "records per warmup chunk")
	drain := flag.Duration("drain", 15*time.Second, "graceful-shutdown drain timeout")
	slack := flag.Float64("slack", 2.0, "dynamic-scheduling slack S (Formula 6; ≥2 favors serving)")
	minTrain := flag.Duration("min-train-interval", 2*time.Second, "floor between proactive trainings")
	engineWorkers := flag.Int("engine-workers", 0, "engine worker pool size for parallel gather and gradient shards, shared by every deployment (0 = NumCPU); results are bit-identical at any setting")
	ingestQueue := flag.Int("ingest-queue", serve.DefaultIngestQueue, "bounded async-ingest queue capacity in chunks per deployment (POST .../ingest answers 503 queue_full beyond it)")
	ckptDir := flag.String("checkpoint-dir", "", "directory for automatic crash-safe checkpoints; single-deployment mode recovers the newest valid checkpoint on startup (empty = checkpointing off)")
	ckptEvery := flag.Int("checkpoint-every", 8, "checkpoint after every N ingested chunks")
	ckptInterval := flag.Duration("checkpoint-interval", 0, "also checkpoint when this much wall-clock time has passed (0 = tick trigger only)")
	ckptKeep := flag.Int("checkpoint-keep", 3, "checkpoint files retained before pruning the oldest")
	walDir := flag.String("wal-dir", "", "directory for the durable write-ahead ingest log: async ingest fsyncs each accepted chunk before acking 202 and recovery replays what the newest checkpoint misses (empty = log off; fleet mode logs into <dir>/<name>/wal)")
	walSegBytes := flag.Int64("wal-segment-bytes", wal.DefaultSegmentBytes, "ingest-log segment roll threshold; sealed segments are reclaimed as checkpoints age past them")
	storeDir := flag.String("store-dir", "", "directory for the default deployment's durable chunk storage (tiered LRU cache over retrying disk backend); empty keeps chunks in memory")
	storeCache := flag.Int("store-cache", 64, "feature chunks held in the in-memory tier of a -store-dir backend")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (debugging surface; keep off internet-facing listeners)")
	runtimeMetrics := flag.Duration("runtime-metrics", 10*time.Second, "sampling period for the cdml_runtime_* metric family (0 disables)")
	replicaOf := flag.String("replica-of", "", "primary base URL to replicate (e.g. http://primary:8080): every deployment becomes a read-only replica syncing published snapshots; warmup is skipped")
	replicaPoll := flag.Duration("replica-poll", serve.DefaultReplicaPoll, "replica snapshot poll interval")
	autoChal := flag.Bool("auto-challenger", false, "start a shadow challenger automatically when a deployment's drift detector fires (needs a spec with \"drift\" set)")
	autoChalCooldown := flag.Duration("auto-challenger-cooldown", registry.DefaultAutoChallengerCooldown, "minimum wall-clock gap between automatic challenger starts per deployment")
	flag.Parse()

	eng := engine.New(*engineWorkers)
	replica := *replicaOf != ""

	// The spec builder is shared by the -deployments file and the runtime
	// management API, so a PUT /v1/deployments/{name} accepts exactly the
	// spec documented for the config file. It records each name's last spec
	// so the auto-challenger can rebuild a fresh pipeline for that name when
	// its drift detector fires.
	var specs sync.Map // name -> json.RawMessage
	builder := func(name string, spec json.RawMessage) (core.Config, error) {
		if len(spec) == 0 {
			return core.Config{}, errors.New("missing \"spec\"")
		}
		var ds deploySpec
		if err := json.Unmarshal(spec, &ds); err != nil {
			return core.Config{}, fmt.Errorf("decoding spec: %w", err)
		}
		cfg, _, err := buildWorkloadConfig(ds, 0, *slack, *minTrain)
		if err == nil {
			specs.Store(name, spec)
		}
		return cfg, err
	}

	// Replicas never train, so a drift detector cannot fire there — the
	// auto-challenger loop only makes sense on a primary.
	var ac *registry.AutoChallenger
	if *autoChal && !replica {
		ac = &registry.AutoChallenger{
			Build: func(name string) (core.Config, error) {
				spec, ok := specs.Load(name)
				if !ok {
					return core.Config{}, fmt.Errorf("no spec recorded for deployment %q", name)
				}
				return builder(name, spec.(json.RawMessage))
			},
			Cooldown: *autoChalCooldown,
		}
	}

	var (
		reg      *registry.Registry
		localDep *core.Deployer // single-deployment mode's deployer (owned here)
	)
	if *deployments != "" {
		reg = bootFleet(*deployments, builder, eng, ac, replica, *ckptDir, *ckptEvery, *ckptInterval, *ckptKeep,
			*walDir, *walSegBytes, *slack, *minTrain)
	} else {
		singleWarmup := *warmup
		if replica {
			singleWarmup = 0 // state arrives from the primary, not warmup
		}
		reg, localDep = bootSingle(*workload, singleWarmup, *rows, *slack, *minTrain, eng, ac,
			*ckptDir, *ckptEvery, *ckptInterval, *ckptKeep, *walDir, *walSegBytes, *storeDir, *storeCache)
	}

	fmt.Printf("serving %d deployment(s) on %s — GET /v1/deployments, POST /v1/deployments/{name}/predict\n",
		len(reg.Names()), *addr)

	sopts := []serve.Option{
		serve.WithIngestQueue(*ingestQueue),
		serve.WithConfigBuilder(builder),
	}
	if replica {
		sopts = append(sopts, serve.WithReplicaOf(*replicaOf, *replicaPoll))
	}
	if *pprofOn {
		sopts = append(sopts, serve.WithPprof())
	}
	if *runtimeMetrics > 0 {
		sopts = append(sopts, serve.WithRuntimeMetrics(*runtimeMetrics))
	}
	api := serve.NewWithRegistry(reg, sopts...)
	srv := &http.Server{
		Addr:         *addr,
		Handler:      api,
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 60 * time.Second,
	}
	// Serve until SIGINT/SIGTERM, then drain in-flight requests before
	// exiting so clients mid-predict are answered, not reset.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("cdml-serve: signal received, draining for up to %v", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		// Drain order: (1) stop the async-ingest intake and let queued
		// chunks finish training — the last tick publishes each
		// deployment's final snapshot; (2) shut every deployment down
		// (promotion controllers, challengers, checkpoint loops); (3) drain
		// HTTP. Predict is a lock-free snapshot read and keeps answering
		// until the listener closes in step 3.
		if err := api.DrainIngest(shutdownCtx); err != nil {
			log.Printf("cdml-serve: ingest drain: %v", err)
		}
		reg.Close()
		if localDep != nil {
			localDep.Shutdown() // idempotent belt-and-braces for the adopted deployer
		}
		api.Close()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("cdml-serve: forced shutdown: %v", err)
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("cdml-serve: %v", err)
		}
		log.Printf("cdml-serve: shutdown complete")
	}
}

// bootFleet boots the -deployments multi-pipeline mode: every named
// deployment is created through the shared registry (shared engine pool and
// metric registry, per-deployment quotas, checkpoints under
// <ckptDir>/<name>/gen<G>) and warmed up on its own synthetic stream.
func bootFleet(path string, builder serve.ConfigBuilder, eng *engine.Engine,
	ac *registry.AutoChallenger, replica bool,
	ckptDir string, ckptEvery int, ckptInterval time.Duration, ckptKeep int,
	walDir string, walSegBytes int64,
	slack float64, minTrain time.Duration) *registry.Registry {
	raw, err := os.ReadFile(path)
	if err != nil {
		log.Fatalf("cdml-serve: reading -deployments: %v", err)
	}
	var file deployFile
	if err := json.Unmarshal(raw, &file); err != nil {
		log.Fatalf("cdml-serve: parsing -deployments: %v", err)
	}
	if len(file.Deployments) == 0 {
		log.Fatalf("cdml-serve: -deployments file %s lists no deployments", path)
	}
	reg := registry.New(registry.Options{
		Engine:         eng,
		Metrics:        obs.NewRegistry(),
		CheckpointRoot: ckptDir,
		AutoChallenger: ac,
		// Fleet deployments append to per-name logs so accepted chunks survive
		// a crash, but fleet boot does not replay them yet: checkpoint
		// directories are generation-numbered and a restarted fleet builds
		// fresh generations (ROADMAP tracks fleet-mode recovery).
		WALRoot:         walDir,
		WALSegmentBytes: walSegBytes,
	})
	for _, e := range file.Deployments {
		var ds deploySpec
		if len(e.Spec) > 0 {
			if err := json.Unmarshal(e.Spec, &ds); err != nil {
				log.Fatalf("cdml-serve: deployment %q: decoding spec: %v", e.Name, err)
			}
		}
		cfg, chunk, err := buildWorkloadConfig(ds, e.Warmup, slack, minTrain)
		if err != nil {
			log.Fatalf("cdml-serve: deployment %q: %v", e.Name, err)
		}
		if ckptDir != "" {
			cfg.AutoCheckpoint = &cdml.CheckpointPolicy{
				EveryTicks: ckptEvery,
				Interval:   ckptInterval,
				Keep:       ckptKeep,
			}
		}
		d, err := reg.Create(e.Name, cfg, e.Quotas)
		if err != nil {
			log.Fatalf("cdml-serve: deployment %q: %v", e.Name, err)
		}
		if replica {
			// State arrives from the primary's snapshot feed; warming up a
			// replica would only train state the first sync throws away.
			fmt.Printf("deployment %q: replica, awaiting first snapshot sync\n", e.Name)
			continue
		}
		for i := 0; i < e.Warmup; i++ {
			if err := d.Ingest(chunk(i)); err != nil {
				log.Fatalf("cdml-serve: deployment %q: warmup chunk %d: %v", e.Name, i, err)
			}
		}
		st := d.Serving().Stats()
		fmt.Printf("deployment %q: warmed up on %d chunks (cumulative error %.4f)\n",
			e.Name, e.Warmup, st.FinalError)
	}
	return reg
}

// bootSingle boots the classic single-deployment mode: one deployer named
// "default" with the full storage/recovery stack, adopted into a registry
// so the deployment-scoped API addresses it too. Returns the deployer as
// well — adopted deployments are shut down by their owner, not the
// registry.
func bootSingle(workload string, warmup, rows int, slack float64, minTrain time.Duration,
	eng *engine.Engine, ac *registry.AutoChallenger,
	ckptDir string, ckptEvery int, ckptInterval time.Duration, ckptKeep int,
	walDir string, walSegBytes int64,
	storeDir string, storeCache int) (*registry.Registry, *core.Deployer) {
	cfg, chunk, err := buildWorkloadConfig(deploySpec{Workload: workload, Rows: rows}, warmup, slack, minTrain)
	if err != nil {
		log.Fatalf("cdml-serve: %v", err)
	}
	// Storage stack: durable deployments layer the LRU cache over a
	// retrying disk backend, so transient filesystem hiccups are absorbed
	// before they can fail a training tick.
	var retrying *cdml.RetryBackend
	if storeDir != "" {
		disk, err := cdml.NewDiskBackend(storeDir)
		if err != nil {
			log.Fatalf("cdml-serve: opening store: %v", err)
		}
		retrying = cdml.NewRetryBackend(disk, cdml.DefaultRetryPolicy())
		cfg.Store = cdml.NewStore(cdml.NewTieredBackend(retrying, storeCache))
	}
	cfg.Engine = eng
	if ckptDir != "" {
		cfg.AutoCheckpoint = &cdml.CheckpointPolicy{
			Dir:        ckptDir,
			EveryTicks: ckptEvery,
			Interval:   ckptInterval,
			Keep:       ckptKeep,
		}
	}
	if walDir != "" {
		cfg.IngestLog = &wal.Options{Dir: walDir, SegmentBytes: walSegBytes}
	}

	dep, err := core.NewDeployer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if retrying != nil {
		retrying.Instrument(dep.Metrics())
	}
	// Recover the newest valid checkpoint before warming up: a restarted
	// server resumes the killed deployment's state instead of retraining a
	// fresh model on synthetic warmup data.
	recovered := false
	if ckptDir != "" {
		switch info, err := dep.RecoverFromDir(ckptDir); {
		case err == nil:
			recovered = true
			fmt.Printf("recovered checkpoint version %d (%s)\n", info.Version, info.Path)
			if st, ok := dep.WALStats(); ok && st.Replayed > 0 {
				fmt.Printf("replayed %d logged ingest chunk(s) past the checkpoint\n", st.Replayed)
			}
		case errors.Is(err, cdml.ErrNoCheckpoint):
			log.Printf("cdml-serve: no checkpoint in %s, cold start", ckptDir)
		default:
			log.Fatalf("cdml-serve: checkpoint recovery: %v", err)
		}
	}
	if !recovered {
		for i := 0; i < warmup; i++ {
			if err := dep.Ingest(chunk(i)); err != nil {
				log.Fatalf("cdml-serve: warmup chunk %d: %v", i, err)
			}
		}
		st := dep.Stats()
		fmt.Printf("warmed up on %d chunks (cumulative error %.4f, %d proactive trainings)\n",
			warmup, st.FinalError, st.ProactiveRuns)
		// Cold start replays after warmup, reproducing the original boot
		// order: warmup chunks trained first, then the logged live chunks a
		// previous un-checkpointed process had acked before dying.
		if n, err := dep.ReplayIngestLog(); err != nil {
			log.Fatalf("cdml-serve: ingest log replay: %v", err)
		} else if n > 0 {
			fmt.Printf("replayed %d logged ingest chunk(s) from %s\n", n, walDir)
		}
	}
	reg := registry.New(registry.Options{
		Engine:         eng,
		Metrics:        dep.Metrics(),
		AutoChallenger: ac,
	})
	if _, err := reg.Adopt(serve.DefaultDeployment, dep, registry.Quotas{}); err != nil {
		log.Fatalf("cdml-serve: %v", err)
	}
	return reg, dep
}

// Command cdml-serve boots one or more live continuous deployments and
// exposes them over the versioned HTTP API: POST raw records to
// /v1/deployments/{name}/train to feed a pipeline, POST records to
// /v1/deployments/{name}/predict for real-time answers, GET /v1/deployments
// for the fleet.
//
//	cdml-serve -workload url -addr :8080 -warmup 20
//
//	curl -s -X POST --data-binary @chunk.txt localhost:8080/v1/deployments/default/predict
//	curl -s localhost:8080/v1/deployments
//
// There is one way to boot a deployment: -workload/-warmup/-rows describe a
// fleet of one, named "default", -deployments config.json lists any number
// (unknown fields and duplicate names are errors),
//
//	{"deployments": [
//	  {"name": "urls",  "warmup": 20, "spec": {"workload": "url"}},
//	  {"name": "taxi",  "warmup": 10, "spec": {"workload": "taxi"},
//	   "quotas": {"max_ingest_queue": 64}}
//	]}
//
// and either way every entry goes through the spec builder and the
// registry.Create that PUT /v1/deployments/{name} uses at run time, so what
// a deployment can do never depends on how it was declared. Each shares the
// engine pool and metric registry under its quotas — "max_store_chunks" is
// the N raw chunks its store keeps, the oldest dropped first (0 = 12 000)
// — recovers its own
// durable state, and can host a shadow challenger (POST .../challengers)
// that trains on the live traffic the champion accepts and is promoted on
// the tick its recent error beats the champion's; -auto-challenger starts
// one when a champion's drift detector fires, at most one per deployment
// every 5 minutes.
//
// With -replica-of http://primary:8080 the process serves every
// deployment as a read-only replica: a per-deployment poller fetches
// GET /v1/deployments/{name}/snapshot?since=<version> from the primary
// every 250ms and atomically swaps new snapshots in; mutating routes
// answer 409 read_only_replica and .../status reports the sync lag.
//
// Durability is process-wide and a name owns its directories. With
// -checkpoint-dir D every deployment checkpoints itself crash-safely into
// D/<name>/ckpt (a challenger into D/<name>/gen<G>) every -checkpoint-every
// chunks, keeping -checkpoint-keep files, and a name that has a checkpoint
// there resumes from the newest valid one instead of warming up. Adding
// -wal-dir D closes the gap between checkpoints: every chunk accepted by POST
// .../ingest is fsynced to D/<name>/wal before the 202 ack (segments roll at
// 4 MiB and are reclaimed as checkpoints age past them), and
// recovery replays the logged chunks the restored checkpoint does not cover —
// the restarted deployment's state is bit-identical to one that never
// crashed. A deployment's chunk store is in memory, bounded by
// "max_store_chunks": the log is the durable copy of every chunk, and a
// recovered deployment's sample history is what it has replayed or ingested
// since. DELETE removes a name's directories; stopping
// the process does not, and a restart comes back on the lineage Create built
// (a promotion is not durable yet). boot refuses a D that holds a single
// deployment's files itself, the old layout: move D/ckpt-*.ckpt to
// D/default/ckpt/ and D/wal-*.seg* to D/default/wal/.
//
// Generate warmup/request payloads with cmd/datagen.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"cdml"
	"cdml/datasets"
	"cdml/internal/core"
	"cdml/internal/drift"
	"cdml/internal/engine"
	"cdml/internal/experiment"
	"cdml/internal/obs"
	"cdml/internal/opt"
	"cdml/internal/registry"
	"cdml/internal/sched"
	"cdml/internal/serve"
)

// options is the parsed command line; it travels whole. The durability
// flags parse straight into the registry.Options that every deployment's
// directories and checkpoint cadence come from.
type options struct {
	deployments string     // the file listing the entries to boot, or
	spec        deploySpec // the one entry, "default", the flags describe
	warmup      int
	addr        string
	drain       time.Duration
	reg         registry.Options

	pprof          bool
	runtimeMetrics time.Duration
	replicaOf      string
	autoChal       bool

	// newScheduler builds each deployer's proactive-training scheduler, the
	// wall-clock dynamic one of -slack and -min-train-interval, fed the
	// serving time the deployment's cost clock charged. A field so that the
	// restart tests can pin one that does not read the clock.
	newScheduler func() sched.Scheduler
}

// parseFlags declares cdml-serve's flags and parses args into options.
func parseFlags(args []string) options {
	o, fs := declareFlags()
	_ = fs.Parse(args) // ExitOnError: Parse does not return a failure
	return *o
}

// declareFlags registers cdml-serve's flags on a new flag set that parses
// into the returned options.
func declareFlags() (*options, *flag.FlagSet) {
	o := new(options)
	fs := flag.NewFlagSet("cdml-serve", flag.ExitOnError)
	fs.StringVar(&o.spec.Workload, "workload", "url", "workload pipeline of the \"default\" deployment: url|taxi (ignored with -deployments)")
	fs.StringVar(&o.deployments, "deployments", "", "JSON config of named deployments to boot instead of \"default\" (see package doc)")
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.warmup, "warmup", 20, "synthetic chunks \"default\" ingests before serving when it has no checkpoint to recover")
	fs.IntVar(&o.spec.Rows, "rows", 80, "records per warmup chunk of \"default\"")
	fs.DurationVar(&o.drain, "drain", 15*time.Second, "graceful-shutdown drain timeout")
	slack := fs.Float64("slack", 2.0, "dynamic-scheduling slack S (Formula 6; ≥2 favors serving)")
	minTrain := fs.Duration("min-train-interval", 2*time.Second, "floor between proactive trainings")
	fs.StringVar(&o.reg.CheckpointRoot, "checkpoint-dir", "", "root for automatic crash-safe checkpoints, <dir>/<name>/ckpt per deployment; a deployment recovers the newest valid one on startup (empty = checkpointing off)")
	fs.IntVar(&o.reg.CheckpointEvery, "checkpoint-every", 8, "checkpoint after every N ingested chunks")
	fs.IntVar(&o.reg.CheckpointKeep, "checkpoint-keep", 3, "checkpoint files retained before pruning the oldest")
	fs.StringVar(&o.reg.WALRoot, "wal-dir", "", "root for the durable write-ahead ingest logs, <dir>/<name>/wal per deployment: async ingest fsyncs each accepted chunk before acking 202 and recovery replays what the newest checkpoint misses (empty = log off)")
	fs.BoolVar(&o.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/ (debugging surface; keep off internet-facing listeners)")
	fs.DurationVar(&o.runtimeMetrics, "runtime-metrics", 10*time.Second, "sampling period for the cdml_runtime_* metric family (0 disables)")
	fs.StringVar(&o.replicaOf, "replica-of", "", "primary base URL to replicate (e.g. http://primary:8080): every deployment becomes a read-only replica syncing published snapshots; warmup is skipped")
	fs.BoolVar(&o.autoChal, "auto-challenger", false, "start a shadow challenger automatically when a deployment's drift detector fires (needs a spec with \"drift\" set)")
	o.newScheduler = func() sched.Scheduler { return sched.NewDynamic(*slack, *minTrain) }
	return o, fs
}

// deploySpec is the JSON pipeline spec shared by the -deployments file and
// the runtime management API (PUT /v1/deployments/{name}, POST
// .../challengers).
type deploySpec struct {
	// Workload picks the pipeline family: "url" or "taxi".
	Workload string `json:"workload"`
	// Optimizer overrides the workload default with any name opt.New knows
	// ("sgd", "momentum", "adam", "rmsprop", "adadelta", "ftrl").
	Optimizer string `json:"optimizer,omitempty"`
	// LR is that optimizer's learning rate (0 = the kind's default).
	LR float64 `json:"lr,omitempty"`
	// Rows sets the synthetic generator's records per chunk (warmup and
	// datagen parity; 0 = 80).
	Rows int `json:"rows,omitempty"`
	// Drift attaches a drift detector to the pipeline: "page-hinkley" or
	// "ddm" (empty = none). A fire triggers boosted training — and, with
	// -auto-challenger, an automatic shadow challenger.
	Drift string `json:"drift,omitempty"`
}

// deployEntry is one row of the -deployments config file; the flags
// describe one such row, named "default".
type deployEntry struct {
	Name   string          `json:"name"`
	Spec   json.RawMessage `json:"spec"`
	Warmup int             `json:"warmup,omitempty"`
	Quotas registry.Quotas `json:"quotas"`
}

// defaultLR is the learning rate of a spec that names an optimizer without
// one. Kinds absent here run on 0: adadelta has no rate and ftrl keeps its
// own default.
var defaultLR = map[string]float64{"adam": 0.05, "sgd": 0.1, "momentum": 0.01, "rmsprop": 0.1}

// newOptimizerFactory resolves a spec's optimizer override through opt.New,
// whose names are the ones a spec accepts.
func newOptimizerFactory(kind string, lr float64) (func() cdml.Optimizer, error) {
	if lr <= 0 {
		lr = defaultLR[kind]
	}
	if _, err := opt.New(kind, lr); err != nil {
		return nil, err
	}
	return func() cdml.Optimizer {
		o, _ := opt.New(kind, lr) // validated above
		return o
	}, nil
}

// specBuilder is the one spec → config path: boot's entries, PUT
// /v1/deployments/{name}, POST .../challengers and the auto-challenger all
// build through it, and it records every name's last spec so the
// auto-challenger can rebuild that pipeline when its drift detector fires.
type specBuilder struct {
	newScheduler func() sched.Scheduler
	specs        sync.Map // name -> json.RawMessage
}

// config turns name's spec into a deployment config plus the matching
// synthetic chunk generator (for warmup). The config carries no engine,
// metrics registry or directory: the deployment registry injects the shared
// ones and assigns the name's checkpoint, log and store directories.
func (b *specBuilder) config(name string, raw json.RawMessage, warmup int) (core.Config, func(i int) [][]byte, error) {
	if len(raw) == 0 {
		return core.Config{}, nil, errors.New("missing \"spec\"")
	}
	var spec deploySpec
	if err := decodeStrict(raw, &spec); err != nil {
		return core.Config{}, nil, fmt.Errorf("decoding spec: %w", err)
	}
	rows := spec.Rows
	if rows <= 0 {
		rows = 80
	}
	var w *experiment.Workload
	switch spec.Workload {
	case "url":
		dcfg := datasets.DefaultURLConfig()
		dcfg.Days = max(1, warmup/dcfg.ChunksPerDay+1)
		dcfg.RowsPerChunk = rows
		dcfg.Vocab = 5000
		dcfg.HashDim = 1 << 15
		w = experiment.NewURLWorkload(dcfg)
	case "taxi":
		dcfg := datasets.DefaultTaxiConfig()
		dcfg.Chunks = max(warmup, 1)
		dcfg.RowsPerChunk = rows
		w = experiment.NewTaxiWorkload(dcfg)
	case "":
		return core.Config{}, nil, errors.New("spec is missing \"workload\"")
	default:
		return core.Config{}, nil, fmt.Errorf("unknown workload %q (url|taxi)", spec.Workload)
	}
	cfg := w.Deployment()
	var err error
	if spec.Optimizer != "" {
		if cfg.NewOptimizer, err = newOptimizerFactory(spec.Optimizer, spec.LR); err != nil {
			return core.Config{}, nil, err
		}
	}
	if spec.Drift != "" {
		if cfg.DriftDetector, err = drift.New(spec.Drift); err != nil {
			return core.Config{}, nil, err
		}
	}
	cfg.Mode = cdml.ModeContinuous
	cfg.Store = cdml.NewStore(cdml.NewMemoryBackend())
	cfg.Sampler = cdml.NewTimeSampler(1)
	cfg.SampleChunks = 8
	// A live serving deployment schedules proactive training in wall-clock
	// time from the observed query load (Formula 6), not by chunk count —
	// the load it reads is the predict cost on /v1/metrics,
	// cdml_cost_seconds{category="predict"}.
	cfg.Scheduler = b.newScheduler()
	b.specs.Store(name, raw)
	return cfg, w.Stream.Chunk, nil
}

// decodeStrict is json.Unmarshal that rejects unknown fields: a typo'd
// "warmpup" in a fleet file or spec is an error, not a silent zero.
func decodeStrict(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// build is the builder (serve.WithConfigBuilder) of the runtime management API.
func (b *specBuilder) build(name string, spec json.RawMessage) (core.Config, error) {
	cfg, _, err := b.config(name, spec, 0)
	return cfg, err
}

// rebuild is the auto-challenger's hook: name's pipeline, from its last spec.
func (b *specBuilder) rebuild(name string) (core.Config, error) {
	spec, ok := b.specs.Load(name)
	if !ok {
		return core.Config{}, fmt.Errorf("no spec recorded for deployment %q", name)
	}
	return b.build(name, spec.(json.RawMessage))
}

// entries is the list of deployments to boot: the -deployments file, or the
// one "default" entry of the flags. Duplicates fail before anything is built.
func (o options) entries() ([]deployEntry, error) {
	if o.deployments == "" {
		spec, _ := json.Marshal(o.spec) // two strings and three numbers: cannot fail
		return []deployEntry{{Name: serve.DefaultDeployment, Spec: spec, Warmup: o.warmup}}, nil
	}
	raw, err := os.ReadFile(o.deployments)
	if err != nil {
		return nil, fmt.Errorf("reading -deployments: %w", err)
	}
	var file struct {
		Deployments []deployEntry `json:"deployments"`
	}
	if err := decodeStrict(raw, &file); err != nil {
		return nil, fmt.Errorf("parsing -deployments: %w", err)
	}
	if len(file.Deployments) == 0 {
		return nil, fmt.Errorf("-deployments file %s lists no deployments", o.deployments)
	}
	seen := make(map[string]bool, len(file.Deployments))
	for _, e := range file.Deployments {
		if seen[e.Name] {
			return nil, fmt.Errorf("-deployments file %s lists %q twice", o.deployments, e.Name)
		}
		seen[e.Name] = true
	}
	return file.Deployments, nil
}

// refuseOldLayout fails when a durability root itself holds the files a
// single deployment kept there before directories were per name: booting
// over them would cold-start "default" beside the operator's state.
func (o options) refuseOldLayout() error {
	for _, l := range []struct{ flag, dir, kind, files string }{
		{"-checkpoint-dir", o.reg.CheckpointRoot, "ckpt", "ckpt-*.ckpt"},
		{"-wal-dir", o.reg.WALRoot, "wal", "wal-*.seg*"},
	} {
		if old, _ := filepath.Glob(filepath.Join(l.dir, l.files)); l.dir != "" && len(old) > 0 {
			return fmt.Errorf("%s %s holds %s files itself, and a name owns its directories now: move them to %s",
				l.flag, l.dir, l.files, filepath.Join(l.dir, serve.DefaultDeployment, l.kind))
		}
	}
	return nil
}

// boot is the one way a deployment comes up at start: every entry goes
// through the spec builder and registry.CreateWarm — the Create of PUT
// /v1/deployments/{name} plus the entry's warmup — so it recovers its name's
// durable state or, finding none, warms up on its own synthetic stream.
func boot(o options) (*serve.Server, error) {
	entries, err := o.entries()
	if err != nil {
		return nil, err
	}
	if err := o.refuseOldLayout(); err != nil {
		return nil, err
	}
	replica := o.replicaOf != ""
	builder := &specBuilder{newScheduler: o.newScheduler}
	o.reg.Engine, o.reg.Metrics = engine.New(0), obs.NewRegistry()
	// Replicas never train, so a drift detector cannot fire there — the
	// auto-challenger loop only makes sense on a primary.
	if o.autoChal && !replica {
		o.reg.AutoChallenger = &registry.AutoChallenger{Build: builder.rebuild}
	}
	reg := registry.New(o.reg)
	for _, e := range entries {
		if err := bootEntry(reg, builder, e, replica); err != nil {
			reg.Close()
			return nil, fmt.Errorf("deployment %q: %w", e.Name, err)
		}
	}
	sopts := []serve.Option{
		serve.WithConfigBuilder(builder.build),
		serve.WithReplicaOf(o.replicaOf, serve.DefaultReplicaPoll), // "" is a primary
		serve.WithRuntimeMetrics(o.runtimeMetrics),                 // 0 samples nothing
	}
	if o.pprof {
		sopts = append(sopts, serve.WithPprof())
	}
	return serve.NewWithRegistry(reg, sopts...), nil
}

// bootEntry creates one deployment and says how it came up.
func bootEntry(reg *registry.Registry, builder *specBuilder, e deployEntry, replica bool) error {
	cfg, chunk, err := builder.config(e.Name, e.Spec, e.Warmup)
	if err != nil {
		return err
	}
	if replica {
		// Warm-up would only train state the first sync from the primary drops.
		e.Warmup = 0
	}
	d, boot, err := reg.CreateWarm(e.Name, cfg, e.Quotas, e.Warmup, chunk)
	if err != nil {
		return err
	}
	dep := d.Serving()
	how := fmt.Sprintf("recovered checkpoint version %d", boot.Recovered)
	if boot.Recovered == 0 {
		// Stats are not part of a checkpoint: only a warmup has an error to show.
		how = fmt.Sprintf("warmed up on %d chunks (cumulative error %.4f)", e.Warmup, dep.Stats().FinalError)
	}
	wal, _ := dep.WALStats()
	fmt.Printf("deployment %q: %s, replayed %d logged chunk(s), serving version %d; boot took recover %.3fs, generate-wait %.3fs, train %.3fs, checkpoint %.3fs, replay %.3fs\n",
		e.Name, how, wal.Replayed, dep.Published().Version(), boot.Recover.Seconds(), boot.GenerateWait.Seconds(),
		boot.Train.Seconds(), boot.Checkpoint.Seconds(), boot.Replay.Seconds())
	return nil
}

func main() {
	o := parseFlags(os.Args[1:])
	api, err := boot(o)
	if err == nil {
		err = serveUntilSignal(o, api)
	}
	if err != nil {
		log.Fatalf("cdml-serve: %v", err)
	}
}

// serveUntilSignal serves api on -addr until SIGINT/SIGTERM, then drains
// in-flight requests so clients mid-predict are answered, not reset.
func serveUntilSignal(o options, api *serve.Server) error {
	fmt.Printf("serving %d deployment(s) on %s — GET /v1/deployments, POST /v1/deployments/{name}/predict\n",
		len(api.Registry().List()), o.addr)
	srv := &http.Server{
		Addr:         o.addr,
		Handler:      api,
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 60 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop()
	log.Printf("cdml-serve: signal received, draining for up to %v", o.drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	// Drain order: (1) stop the async-ingest intake and let queued chunks
	// finish training — the last tick publishes each deployment's final
	// snapshot; (2) shut every deployment down (challengers, checkpoint
	// loops); (3) drain HTTP. Predict is a lock-free
	// snapshot read and keeps answering until the listener closes in step 3.
	if err := api.DrainIngest(shutdownCtx); err != nil {
		log.Printf("cdml-serve: ingest drain: %v", err)
	}
	api.Registry().Close()
	api.Close()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("cdml-serve: forced shutdown: %v", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("cdml-serve: %v", err)
	}
	log.Printf("cdml-serve: shutdown complete")
	return nil
}

// Package registry hosts several named deployments in one process — the
// multi-pipeline frontier of ROADMAP item 2. Each deployment owns its own
// core.Deployer (pipeline, model, scheduler) and its directories under the
// process-wide durability roots, while sharing the engine pool and metrics
// registry under per-deployment quotas. On top of the plain name→deployer
// map sits a promotion policy (promote.go): a challenger configuration
// trains in shadow mode on every chunk the champion's live tick accepted,
// its predictions scored prequentially but never served, and on that same
// tick a Policy compares the two recent error levels to promote or retire —
// the champion/challenger loop every production ML ecosystem converges on,
// made rigorous with the platform's deterministic prequential evaluation.
//
// Sharing boundaries: the engine pool and the obs registry are process-wide
// (the registry labels every deployment's series with deployment=<name> and
// a generation, so they never collide); chunk stores are per-deployment —
// two deployments must not train on each other's data — though callers may
// stack their stores over one shared storage backend.
package registry

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cdml/internal/core"
	"cdml/internal/data"
	"cdml/internal/engine"
	"cdml/internal/obs"
	"cdml/internal/wal"
)

// Registry errors. The serve layer maps these onto the API's error codes
// (ErrUnknown → 404 unknown_deployment, ErrExists → 409 deployment_exists,
// and so on), so they are sentinel values rather than formatted strings.
var (
	ErrUnknown        = errors.New("registry: unknown deployment")
	ErrExists         = errors.New("registry: deployment already exists")
	ErrClosed         = errors.New("registry: deployment is closed")
	ErrBadName        = errors.New("registry: invalid deployment name")
	ErrChallengerBusy = errors.New("registry: deployment already has a challenger")
	ErrNoChallenger   = errors.New("registry: deployment has no challenger")
	ErrNoRollback     = errors.New("registry: deployment has no previous champion to roll back to")
	// ErrState wraps a Create failure that is not the caller's config: the
	// name's durable state could not be opened, recovered or replayed.
	ErrState = errors.New("registry: unusable durable state")
)

// Quotas bounds one deployment's resource footprint. The JSON form is the
// "quotas" object of PUT /v1/deployments/{name} and of the -deployments
// fleet file.
type Quotas struct {
	// MaxIngestQueue caps the deployment's async ingest queue depth below
	// the server's (0 = the server's). The registry only records the quota
	// — the serve layer sizes its queues from it.
	MaxIngestQueue int `json:"max_ingest_queue"`
	// MaxCheckpointBytes caps the total on-disk size of the deployment's
	// retained checkpoints (CheckpointPolicy.MaxBytes; 0 = unlimited).
	MaxCheckpointBytes int64 `json:"max_checkpoint_bytes"`
	// MaxStoreChunks is the paper's N (§3.2): the raw chunks the
	// deployment's store retains. Ingest past it drops the oldest chunk and
	// its feature chunk, and sampling never sees them again, so the
	// deployment keeps learning at a bounded cost. 0 (or less) means
	// 12 000 (defaultStoreChunks).
	MaxStoreChunks int `json:"max_store_chunks"`
}

// defaultStoreChunks is the N of a deployment whose quota names none: the
// paper's history length of 12 000 chunks.
const defaultStoreChunks = 12000

// Options configures a Registry.
type Options struct {
	// Engine is the shared worker pool; it overrides Config.Engine on every
	// deployment the registry creates, so N deployments compete for one
	// bounded pool instead of each bringing its own. nil leaves each
	// config's own engine in place.
	Engine *engine.Engine
	// Metrics is the shared metrics registry; it overrides Config.Metrics
	// on every created deployment, with per-deployment labels keeping the
	// series apart. nil leaves each config's own registry in place.
	Metrics *obs.Registry
	// CheckpointRoot, when set, gives every deployer an auto-checkpoint
	// directory: <CheckpointRoot>/<name>/ckpt for the one built at Create —
	// the same path in every life of the process, so Create can recover it —
	// and <CheckpointRoot>/<name>/gen<G> for a challenger (G is its
	// generation), so both survive a crash mid-promotion. When empty,
	// deployments checkpoint only if their own config says so.
	CheckpointRoot string
	// CheckpointEvery and CheckpointKeep are the cadence and retention
	// (core.CheckpointPolicy's EveryTicks and Keep, with its defaults) of
	// every deployer, champion or challenger, whose config carries no policy
	// of its own. The policy's directory is the name's under CheckpointRoot,
	// its byte budget the deployment's quota.
	CheckpointEvery int
	CheckpointKeep  int
	// AutoChallenger, when set, arms the drift→challenger loop on every
	// created deployment: a drift-detector fire during a live ingest tick
	// starts a shadow challenger built by Build, governed by Policy, with a
	// cooldown so a flapping detector cannot spawn challengers unboundedly.
	AutoChallenger *AutoChallenger
	// WALRoot, when set, gives every created deployment a durable
	// write-ahead ingest log at <WALRoot>/<name>/wal (unless its config
	// already carries one). Challengers get none — they see every chunk
	// the champion's tick accepted — so a promoted challenger runs without
	// a log until the process restarts (tracked in ROADMAP).
	WALRoot string
	// WALSegmentBytes is the segment roll threshold for logs under WALRoot
	// (0 = the wal package default).
	WALSegmentBytes int64
	// StoreRoot, when set, replaces every created deployment's store with
	// one on disk under <StoreRoot>/<name>/store, behind a retrying backend
	// (transient filesystem errors never reach a tick) and an in-memory LRU
	// tier of StoreCache feature chunks. Challengers keep their config's. The
	// directory is a spill tier, not durable state: the store's index lives
	// in memory, so Create empties it and a recovered deployment's sample
	// history is what it has replayed or ingested since.
	StoreRoot  string
	StoreCache int
}

// DefaultAutoChallengerCooldown is the minimum spacing between automatic
// challenger starts of one deployment when AutoChallenger.Cooldown is 0.
const DefaultAutoChallengerCooldown = 5 * time.Minute

// AutoChallenger configures the automatic drift response: when the serving
// champion's drift detector fires, the registry attaches a freshly built
// shadow challenger (warm from nothing, trained on the live traffic from
// then on) and lets the usual promotion policy decide whether the rebuilt
// pipeline beats the drifted champion — the deployment_trigger pattern,
// closed end to end.
type AutoChallenger struct {
	// Build produces the challenger config for a deployment name —
	// typically the same spec the deployment was created from, so the
	// challenger is a clean retrain of the same pipeline.
	Build func(name string) (core.Config, error)
	// Policy governs the automatic challenger's promotion (zero value =
	// policy defaults).
	Policy Policy
	// Cooldown is the minimum time between automatic challenger starts per
	// deployment (default DefaultAutoChallengerCooldown). Drift fires
	// inside the cooldown are observed but start nothing.
	Cooldown time.Duration
}

// Registry is a concurrency-safe collection of named deployments.
type Registry struct {
	opts Options

	// genSeq numbers every deployer the registry ever builds. The
	// generation distinguishes metric series (and checkpoint directories)
	// of a deployment from those of its promoted successors and of
	// same-named deployments created after a delete.
	genSeq atomic.Uint64

	mu   sync.Mutex
	deps map[string]*Deployment //cdml:guardedby mu
	// building holds the names Create has claimed but not yet published: a
	// name is taken from the moment its deployer starts being built, so no
	// second Create can open the same checkpoint or ingest-log directory.
	building map[string]bool //cdml:guardedby mu
}

// New creates an empty registry.
func New(opts Options) *Registry {
	r := &Registry{opts: opts, deps: make(map[string]*Deployment), building: make(map[string]bool)}
	if opts.Metrics != nil {
		opts.Metrics.GaugeFunc("cdml_deployments",
			"Deployments currently registered.",
			func() float64 {
				r.mu.Lock()
				defer r.mu.Unlock()
				return float64(len(r.deps))
			})
	}
	return r
}

// Metrics returns the shared metrics registry (nil when the registry was
// built without one and every deployment keeps a private registry).
func (r *Registry) Metrics() *obs.Registry { return r.opts.Metrics }

// validName reports whether name is a legal deployment name: 1–64 runes of
// [a-zA-Z0-9_-], not starting with '-' or '_' (so names are safe in paths,
// label values, and checkpoint directories without escaping).
func validName(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case (r == '-' || r == '_') && i > 0:
		default:
			return false
		}
	}
	return true
}

// Create builds a deployer from cfg and registers it under name. The
// registry rewires the config before construction: the shared engine and
// metrics registry are swapped in, every metric series gets
// deployment/generation labels, the name's checkpoint, log and store
// directories are assigned and the store is bounded to N chunks
// (Quotas.MaxStoreChunks). Durable state under
// the name is then recovered: Create is CreateWarm without a warm-up.
func (r *Registry) Create(name string, cfg core.Config, q Quotas) (*Deployment, error) {
	d, _, err := r.CreateWarm(name, cfg, q, 0, nil)
	return d, err
}

// CreateWarm is Create with a warm-up (the paper's initial training) of n
// chunks, chunk(0) … chunk(n-1) — core.Deployer.Warm says what chunk must
// put up with — and the one place the boot order lives: when the name's
// checkpoint directory holds a checkpoint, the newest valid one is restored,
// the ingest log replays past it and chunk is never called; otherwise the
// warm-up runs as one batch, its end is checkpointed — the first checkpoint
// of a cold boot, so a warm-up that died left nothing to recover and is run
// again from chunk 0 — and the whole log replays: the order of the life that
// wrote it. Only then do Get and the serve layer see the name. A nil chunk
// is no warm-up at all, not even the checkpoint. The Boot says which way the
// deployment came up and what each phase cost.
func (r *Registry) CreateWarm(name string, cfg core.Config, q Quotas, n int, chunk func(i int) [][]byte) (*Deployment, Boot, error) {
	// The name is claimed before anything is built: buildEntry opens the
	// deployment's ingest log, and wal.Open truncates what it takes for a torn
	// tail — a second writer on a live champion's log must never get that far.
	if err := r.reserve(name); err != nil {
		return nil, Boot{}, err
	}
	d := &Deployment{name: name, reg: r, quotas: q}
	d.version.Store(1)
	d.initObs()
	e, err := r.buildEntry(d, cfg, true)
	if err != nil {
		r.settle(name, nil)
		return nil, Boot{}, err
	}
	d.serving.Store(e)
	boot, err := d.recoverOrWarm(e, n, chunk)
	if err != nil {
		d.close() // the champion, and a challenger a drift fire in warmup started
		r.settle(name, nil)
		return nil, Boot{}, err
	}
	if r.opts.Metrics != nil {
		for phase, took := range map[string]time.Duration{"recover": boot.Recover, "generate-wait": boot.GenerateWait,
			"train": boot.Train, "checkpoint": boot.Checkpoint, "replay": boot.Replay} {
			r.opts.Metrics.Gauge("cdml_boot_seconds",
				"Seconds the deployment's last boot spent in each phase: recover (restore the newest valid checkpoint and replay the log past it) or, finding none, generate-wait and train (the warm-up: waiting for the next generated chunk, and its ticks), checkpoint (the warm-up's end) and replay (the whole log).",
				obs.L("deployment", name), obs.L("phase", phase)).Set(took.Seconds())
		}
	}
	r.settle(name, d)
	return d, boot, nil
}

// Boot is how CreateWarm brought a deployment up and where the time went.
type Boot struct {
	// Recovered is the version of the checkpoint boot restored; 0 when the
	// name had none and the deployment warmed up instead.
	Recovered uint64
	// Recover covers the restore and the log replay past it; GenerateWait and
	// Train split the warm-up into the training goroutine waiting for the
	// next chunk and the ticks; Checkpoint is the warm-up's end made durable;
	// Replay is the whole log after a warm-up.
	Recover, GenerateWait, Train, Checkpoint, Replay time.Duration
}

// recoverOrWarm is the boot order described on CreateWarm.
func (d *Deployment) recoverOrWarm(e *entry, n int, chunk func(i int) [][]byte) (Boot, error) {
	stateErr := func(err error) error {
		if err != nil {
			err = fmt.Errorf("%w of %q: %w", ErrState, d.name, err)
		}
		return err
	}
	var b Boot
	mark := time.Now()
	lap := func() (took time.Duration) {
		took, mark = time.Since(mark), time.Now()
		return took
	}
	if e.ckptDir != "" {
		// RecoverFromDir replays the log past the checkpoint it restores.
		info, err := e.dep.RecoverFromDir(e.ckptDir)
		b.Recovered, b.Recover = info.Version, lap()
		if !errors.Is(err, core.ErrNoCheckpoint) {
			return b, stateErr(err)
		}
	}
	if chunk != nil {
		var err error
		if b.Train, err = e.dep.Warm(n, chunk); err != nil {
			return b, err
		}
		b.GenerateWait = lap() - b.Train
		// Warm-up chunks are in no log: their end is the recovery point, and
		// the only one — nothing of a warm-up is durable before all of it is.
		if _, err := e.dep.CheckpointNow(); err != nil && !errors.Is(err, core.ErrNoCheckpointPolicy) {
			return b, stateErr(err)
		}
		b.Checkpoint = lap()
		// A drift fire inside the warm-up gets its challenger here: the check
		// Ingest runs after every tick, Warm leaves to its caller.
		d.maybeAutoChallenge()
	}
	_, err := e.dep.ReplayIngestLog()
	b.Replay = lap()
	return b, stateErr(err)
}

// Adopt registers an externally constructed deployer under name as it is:
// its config was not rewired (no shared engine, labels, directories or store
// bound) and nothing is recovered. From then on it serves, trains and hosts
// challengers like a created one. serve.New adopts its bare deployer as
// "default".
func (r *Registry) Adopt(name string, dep *core.Deployer, q Quotas) (*Deployment, error) {
	if err := r.reserve(name); err != nil {
		return nil, err
	}
	d := &Deployment{name: name, reg: r, quotas: q}
	d.version.Store(1)
	d.initObs()
	d.serving.Store(&entry{dep: dep, gen: r.genSeq.Add(1)})
	r.settle(name, d)
	return d, nil
}

// buildEntry constructs one deployer generation for d, applying the
// registry-side config rewiring described on Create. Only the champion
// built at Create gets the name's ckpt, wal and store directories: a log
// admits one writer, and a challenger checkpoints into its own gen<G>.
func (r *Registry) buildEntry(d *Deployment, cfg core.Config, champion bool) (*entry, error) {
	gen := r.genSeq.Add(1)
	if r.opts.Engine != nil {
		cfg.Engine = r.opts.Engine
	}
	if r.opts.Metrics != nil {
		cfg.Metrics = r.opts.Metrics
	}
	cfg.Labels = []obs.Label{
		obs.L("deployment", d.name),
		obs.L("gen", strconv.FormatUint(gen, 10)),
	}
	ckptKind := "gen" + strconv.FormatUint(gen, 10)
	var retrying *data.RetryBackend
	if champion {
		ckptKind = "ckpt"
		if r.opts.WALRoot != "" && cfg.IngestLog == nil {
			cfg.IngestLog = &wal.Options{
				Dir:          filepath.Join(r.opts.WALRoot, d.name, "wal"),
				SegmentBytes: r.opts.WALSegmentBytes,
			}
		}
		if r.opts.StoreRoot != "" {
			// Files found here are a previous life's: the index that could
			// reach them died with it, and this life numbers its chunks from 0.
			dir := filepath.Join(r.opts.StoreRoot, d.name, "store")
			if err := os.RemoveAll(dir); err != nil {
				return nil, fmt.Errorf("%w of %q: %w", ErrState, d.name, err)
			}
			disk, err := data.NewDiskBackend(dir)
			if err != nil {
				return nil, fmt.Errorf("%w of %q: %w", ErrState, d.name, err)
			}
			retrying = data.NewRetryBackend(disk, data.DefaultRetryPolicy())
			cfg.Store = data.NewStore(data.NewTieredBackend(retrying, r.opts.StoreCache))
		}
	}
	ckptDir := ""
	if r.opts.CheckpointRoot != "" || cfg.AutoCheckpoint != nil {
		pol := core.CheckpointPolicy{EveryTicks: r.opts.CheckpointEvery, Keep: r.opts.CheckpointKeep}
		if cfg.AutoCheckpoint != nil {
			pol = *cfg.AutoCheckpoint
		}
		if r.opts.CheckpointRoot != "" {
			pol.Dir = filepath.Join(r.opts.CheckpointRoot, d.name, ckptKind)
			if !champion {
				// Files under a new challenger's generation number are a previous
				// life's; retention would prune its checkpoints in their favour.
				if err := os.RemoveAll(pol.Dir); err != nil {
					return nil, fmt.Errorf("%w of %q: %w", ErrState, d.name, err)
				}
			}
		}
		pol.MaxBytes = d.quotas.MaxCheckpointBytes
		cfg.AutoCheckpoint = &pol
		ckptDir = pol.Dir
	}
	if cfg.Store != nil {
		n := d.quotas.MaxStoreChunks
		if n <= 0 {
			n = defaultStoreChunks
		}
		cfg.Store.SetRawCapacity(n)
	}
	dep, err := core.NewDeployer(cfg)
	if err != nil {
		return nil, err
	}
	if retrying != nil {
		retrying.Instrument(dep.Metrics(), cfg.Labels...)
	}
	return &entry{dep: dep, gen: gen, ckptDir: ckptDir}, nil
}

// reserve validates name and claims it for a deployment under construction.
func (r *Registry) reserve(name string) error {
	if !validName(name) {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.deps[name]; ok || r.building[name] {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	r.building[name] = true
	return nil
}

// settle ends name's reservation: a built deployment is published in the
// name map; nil (the build failed) just frees the name.
func (r *Registry) settle(name string, d *Deployment) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.building, name)
	if d != nil {
		r.deps[name] = d
	}
}

// Get returns the named deployment.
func (r *Registry) Get(name string) (*Deployment, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.deps[name]
	return d, ok
}

// List returns the registered deployments sorted by name.
func (r *Registry) List() []*Deployment {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Deployment, 0, len(r.deps))
	for _, d := range r.deps {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Delete shuts the named deployment down — its challenger, previous
// champion and serving deployer, in that order — and
// removes its directories under the checkpoint, log and store roots: whoever
// takes the name next starts from nothing instead of recovering, or
// replaying the log of, a pipeline it never was. A name that is not
// registered but has directories there — a deployment created at run time in
// an earlier life of the process, or a Delete whose removal failed — loses
// them the same way; ErrUnknown means there was neither. In-flight
// predictions against an already-obtained handle still answer.
func (r *Registry) Delete(name string) error {
	r.mu.Lock()
	d, ok := r.deps[name]
	if !ok && (!validName(name) || r.building[name]) {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	// The name stays claimed until its directories are gone: a Create
	// racing the removal would have them deleted from under it.
	delete(r.deps, name)
	r.building[name] = true
	r.mu.Unlock()
	defer r.settle(name, nil)
	if ok {
		d.close()
	}
	for _, root := range []string{r.opts.CheckpointRoot, r.opts.WALRoot, r.opts.StoreRoot} {
		if root == "" {
			continue
		}
		dir := filepath.Join(root, name)
		if _, err := os.Stat(dir); err == nil {
			ok = true
		}
		if err := os.RemoveAll(dir); err != nil {
			return fmt.Errorf("registry: removing state of %q: %w", name, err)
		}
	}
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	return nil
}

// Close shuts every deployment down and leaves their directories for the
// next life of the process to recover. The registry stays usable (a drained
// server could in principle be repopulated), it is simply empty.
func (r *Registry) Close() {
	r.mu.Lock()
	deps := r.deps
	r.deps = make(map[string]*Deployment)
	r.mu.Unlock()
	for _, d := range deps {
		d.close()
	}
}

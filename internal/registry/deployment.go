package registry

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"cdml/internal/core"
	"cdml/internal/eval"
	"cdml/internal/obs"
)

// defaultWindowAlpha is the forgetting factor of the promotion comparison
// windows (an effective window of ~200 observations). Champion and
// challenger always use the same factor — a fair comparison needs both
// estimators to forget at the same rate — which is why the Policy carries
// thresholds but no alpha.
const defaultWindowAlpha = 0.995

// window is a mutex-wrapped fading prequential estimator. The core tick
// path observes into it (under the deployer's writer serialization) while
// the promotion controller reads it from its own goroutine, so unlike the
// deployer-private metric it needs its own lock.
type window struct {
	mu sync.Mutex
	f  *eval.Fading //cdml:guardedby mu
}

func newWindow(alpha float64) *window {
	return &window{f: eval.NewFading(alpha)}
}

// Observe folds one (prediction, actual) pair.
func (w *window) Observe(pred, actual float64) {
	w.mu.Lock()
	w.f.Observe(pred, actual)
	w.mu.Unlock()
}

// Stats returns the faded loss and the observation count.
func (w *window) Stats() (loss float64, n int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Value(), w.f.Count()
}

// Reset clears the window.
func (w *window) Reset() {
	w.mu.Lock()
	w.f.Reset()
	w.mu.Unlock()
}

// teeMetric wraps a deployment's prequential metric so every observation
// also feeds the promotion window. The inner metric's values are untouched
// — Value/Count/Reset delegate — so wrapping never changes a deployment's
// training trajectory or reported error.
type teeMetric struct {
	inner eval.Metric
	win   *window
}

func (t *teeMetric) Name() string { return t.inner.Name() }

func (t *teeMetric) Observe(pred, actual float64) {
	t.inner.Observe(pred, actual)
	t.win.Observe(pred, actual)
}

func (t *teeMetric) Value() float64 { return t.inner.Value() }
func (t *teeMetric) Count() int64   { return t.inner.Count() }

func (t *teeMetric) Reset() {
	t.inner.Reset()
	t.win.Reset()
}

// entry is one deployer generation: a champion, a previous champion kept
// for rollback, or a shadow challenger. Entries are immutable after
// construction; role changes happen by moving the pointer between the
// Deployment's slots.
type entry struct {
	dep *core.Deployer
	// win is the promotion comparison window (nil on adopted entries, whose
	// metric the registry never wrapped).
	win *window
	// gen is the registry-wide generation, stamped on the entry's metric
	// labels and, for a challenger, its checkpoint directory.
	gen uint64
	// ckptDir is where the deployer checkpoints ("" when it does not).
	ckptDir string
}

// Deployment is one named deployment: a serving champion, at most one
// shadow challenger, and at most one previous champion retained for
// rollback.
//
// Locking: the serving pointer, challenger pointer, and version counter are
// atomics so the read path (Predict, Serving, status) never takes a lock.
// d.mu serializes everything that changes which deployer plays which role —
// ingest ticks, challenger lifecycle, promotion, rollback, and close — so a
// chunk is always trained into exactly one champion and tee'd against the
// challenger that shadowed that champion.
type Deployment struct {
	name    string
	reg     *Registry
	quotas  Quotas
	adopted bool

	// serving is the champion. Never nil after construction.
	serving atomic.Pointer[entry]
	// chal is the shadow challenger, nil when none is attached.
	chal atomic.Pointer[challenger]
	// prev is the previous champion kept for rollback (nil when none).
	// Stores happen only under d.mu (role changes are serialized); loads are
	// lock-free so status endpoints never stall behind an in-flight tick.
	prev atomic.Pointer[entry]
	// version counts role changes: it starts at 1 and increments on every
	// promotion and rollback. Readers watch it to observe swaps.
	version atomic.Uint64

	mu     sync.Mutex
	closed bool //cdml:guardedby mu

	// acMu guards the drift→challenger trigger state below. It is a leaf
	// lock separate from d.mu: the trigger runs after an ingest tick has
	// released d.mu (StartChallenger re-acquires d.mu internally), so the
	// two are never held together.
	acMu sync.Mutex
	// acGen is the champion generation acSeenDrift was observed on; a
	// promotion or rollback resets the baseline (each deployer generation
	// counts its own drift events from zero).
	acGen uint64 //cdml:guardedby acMu
	// acSeenDrift is the champion's DriftEvents count after the last
	// trigger check; a higher count means the detector fired since.
	acSeenDrift int //cdml:guardedby acMu
	// acLastStart is when the last automatic challenger was started (zero
	// before the first) — the cooldown reference.
	acLastStart time.Time //cdml:guardedby acMu

	promotions      *obs.Counter
	retirements     *obs.Counter
	shadowTicks     *obs.Counter
	shadowErrs      *obs.Counter
	autoChallengers *obs.Counter
	autoChalFails   *obs.Counter
}

// initObs registers the deployment's promotion metrics, labeled by name
// only (no generation: these series describe the named deployment across
// champion swaps). The obs registry keeps the first registration for a
// (name, labels) pair, so deleting and recreating a deployment continues
// its counters — the correct semantics for cumulative event counts — and
// the version gauge looks the deployment up by name at scrape time so it
// always reflects the current holder of the name.
func (d *Deployment) initObs() {
	reg := d.reg.opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry() // private sink: instrumentation is always on
	}
	ls := []obs.Label{obs.L("deployment", d.name)}
	d.promotions = reg.Counter("cdml_promotions_total",
		"Challengers promoted to champion.", ls...)
	d.retirements = reg.Counter("cdml_challenger_retirements_total",
		"Challengers retired without promotion (policy gave up or the deployment closed).", ls...)
	d.shadowTicks = reg.Counter("cdml_shadow_ticks_total",
		"Live chunks tee'd into a shadow challenger.", ls...)
	d.shadowErrs = reg.Counter("cdml_shadow_errors_total",
		"Shadow challenger ticks that failed (champion unaffected).", ls...)
	d.autoChallengers = reg.Counter("cdml_auto_challengers_total",
		"Shadow challengers started automatically by a drift-detector fire.", ls...)
	d.autoChalFails = reg.Counter("cdml_auto_challenger_failures_total",
		"Drift fires whose automatic challenger could not be built or started.", ls...)
	name, r := d.name, d.reg
	reg.GaugeFunc("cdml_deployment_version",
		"Deployment version: 1 at creation, +1 per promotion or rollback.",
		func() float64 {
			if cur, ok := r.Get(name); ok {
				return float64(cur.Version())
			}
			return 0
		}, ls...)
}

// Name returns the deployment's registered name.
func (d *Deployment) Name() string { return d.name }

// Quotas returns the deployment's quotas.
func (d *Deployment) Quotas() Quotas { return d.quotas }

// Adopted reports whether the deployment wraps an externally built deployer
// (and therefore cannot host challengers).
func (d *Deployment) Adopted() bool { return d.adopted }

// Version returns the deployment version: 1 at creation, incremented by
// every promotion and rollback. A reader that predicts across a swap sees
// the version change monotonically and never an error.
func (d *Deployment) Version() uint64 { return d.version.Load() }

// Serving returns the current champion deployer. The pointer is a snapshot:
// after a promotion it keeps answering (core predictions are pure snapshot
// reads) but no longer receives traffic.
//
//cdml:hotpath
func (d *Deployment) Serving() *core.Deployer {
	return d.serving.Load().dep
}

// Predict answers a batch of prediction queries with the champion. It is
// lock-free: one atomic pointer load picks the champion, and the core read
// path is lock-free beneath it, so predictions never stall behind ingest,
// training, or a promotion swap.
//
//cdml:hotpath
func (d *Deployment) Predict(records [][]byte) ([]float64, error) {
	return d.serving.Load().dep.Predict(records)
}

// Ingest feeds one chunk into the champion (context-free convenience).
//
//cdml:detached convenience entry point for context-free callers; request paths use IngestLogged
func (d *Deployment) Ingest(records [][]byte) error {
	return d.IngestLogged(context.Background(), records, time.Time{}, 0)
}

// IngestLogged feeds one chunk of labeled training data into the champion
// and — via the champion's shadow tee — into the attached challenger, if
// any. Ticks are serialized under d.mu together with promotions, so every
// chunk trains exactly one champion generation and the challenger sees
// exactly the champion's accepted chunk sequence. enqueuedAt is when the
// chunk entered an async queue (zero = not queued) and walSeq the sequence
// AppendIngestLog returned at accept time (0 = not logged); the tick
// commits or aborts the sequence in the champion's log — see
// core.Deployer.IngestLogged.
func (d *Deployment) IngestLogged(ctx context.Context, records [][]byte, enqueuedAt time.Time, walSeq uint64) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	err := d.serving.Load().dep.IngestLogged(ctx, records, enqueuedAt, walSeq)
	d.mu.Unlock()
	// The drift check runs outside d.mu: StartChallenger re-acquires it.
	d.maybeAutoChallenge()
	return err
}

// AppendIngestLog durably appends an accepted chunk to the champion's
// write-ahead ingest log before it is acked; (0, nil) when the champion
// has none configured. Note the append targets whichever deployer is
// champion right now; a promotion between append and consume leaves the
// commit targeting a sequence the new champion's log does not know, which
// the log ignores (the chunk replays on recovery — at-least-once across
// a promotion race, exactly-once otherwise).
func (d *Deployment) AppendIngestLog(records [][]byte) (uint64, error) {
	return d.serving.Load().dep.AppendIngestLog(records)
}

// AbortIngestLog marks a logged chunk never-to-replay after its enqueue
// was rejected. Safe with the 0 sentinel.
func (d *Deployment) AbortIngestLog(seq uint64) {
	d.serving.Load().dep.AbortIngestLog(seq)
}

// maybeAutoChallenge closes the drift→challenger loop after an ingest
// tick: when the champion's drift detector fired since the last check, a
// shadow challenger is started from the registry's AutoChallenger build
// hook under the configured promotion policy. A cooldown swallows fires
// from a flapping detector (the fire is still recorded as seen, so the
// next fire after the cooldown starts exactly one challenger), and a
// deployment already hosting a challenger starts nothing — the drifted
// data is already flowing into the candidate via the tee.
func (d *Deployment) maybeAutoChallenge() {
	ac := d.reg.opts.AutoChallenger
	if ac == nil || d.adopted {
		return
	}
	cur := d.serving.Load()
	drifts := cur.dep.Stats().DriftEvents
	d.acMu.Lock()
	if cur.gen != d.acGen {
		// A promotion or rollback swapped the champion in; its drift counter
		// is a fresh sequence starting at zero, so rebase to zero — fires it
		// has already accumulated are real and unseen.
		d.acGen = cur.gen
		d.acSeenDrift = 0
	}
	fired := drifts > d.acSeenDrift
	d.acSeenDrift = drifts
	if !fired {
		d.acMu.Unlock()
		return
	}
	cooldown := ac.Cooldown
	if cooldown <= 0 {
		cooldown = DefaultAutoChallengerCooldown
	}
	if !d.acLastStart.IsZero() && time.Since(d.acLastStart) < cooldown {
		d.acMu.Unlock()
		return
	}
	if d.chal.Load() != nil {
		d.acMu.Unlock()
		return
	}
	d.acLastStart = time.Now()
	d.acMu.Unlock()
	cfg, err := ac.Build(d.name)
	if err == nil {
		err = d.StartChallenger(cfg, ac.Policy)
	}
	// ErrChallengerBusy/ErrClosed are benign races (a manual challenger
	// attached, or the deployment is being deleted); anything else is a drift
	// fire nobody answered with the cooldown armed. The drift is consumed.
	if err == nil {
		d.autoChallengers.Inc()
	} else if !errors.Is(err, ErrChallengerBusy) && !errors.Is(err, ErrClosed) {
		d.autoChalFails.Inc()
	}
}

// tee is the shadow-ingest hook, installed as cfg.ShadowTee on every
// deployer the registry builds with that deployer's generation bound in.
// It runs on the ingesting goroutine after the champion's tick published
// (d.mu is held by IngestLogged above, which is what serializes the tee with
// promotions). Only the current champion's tee forwards: a stale generation
// — a demoted champion still draining, or the challenger's own hook firing
// during its shadow tick — returns immediately, which is also what breaks
// the recursion champion→challenger→(challenger's hook)→stop.
func (d *Deployment) tee(gen uint64, ctx context.Context, records [][]byte) {
	cur := d.serving.Load()
	if cur == nil || cur.gen != gen {
		return
	}
	c := d.chal.Load()
	if c == nil {
		return
	}
	d.shadowTicks.Inc()
	if err := c.e.dep.IngestLogged(ctx, records, time.Time{}, 0); err != nil {
		c.shadowErrs.Add(1)
		c.lastErr.Store(err)
		d.shadowErrs.Inc()
	}
	c.ticks.Add(1)
	// Wake the promotion controller; a full notify slot already guarantees
	// a pending wake-up, so dropping the send loses nothing.
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

// ChampionWindow returns the champion's windowed prequential loss and the
// number of observations in it (zeros for adopted deployments, whose
// metric the registry never wrapped).
func (d *Deployment) ChampionWindow() (loss float64, n int64) {
	e := d.serving.Load()
	if e.win == nil {
		return 0, 0
	}
	return e.win.Stats()
}

// HasRollback reports whether a previous champion is retained. Lock-free,
// like every other status read.
func (d *Deployment) HasRollback() bool {
	return d.prev.Load() != nil
}

// close stops the promotion controller and shuts down every deployer the
// deployment holds. The challenger is stopped outside d.mu: the controller
// may be blocked on d.mu inside a promotion attempt, which will abort once
// it observes closed (or its cleared challenger slot) — waiting for it
// while holding the lock would deadlock.
func (d *Deployment) close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	c := d.chal.Load()
	d.chal.Store(nil)
	prev := d.prev.Load()
	d.prev.Store(nil)
	cur := d.serving.Load()
	d.mu.Unlock()
	if c != nil {
		c.stopAndWait()
		c.e.dep.Shutdown()
		d.retirements.Inc()
	}
	if prev != nil {
		prev.dep.Shutdown()
	}
	cur.dep.Shutdown()
}

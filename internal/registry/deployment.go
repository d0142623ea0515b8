package registry

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"cdml/internal/core"
	"cdml/internal/obs"
)

// entry is one deployer generation: a champion, a previous champion kept
// for rollback, or a shadow challenger. Entries are immutable after
// construction; role changes happen by moving the pointer between the
// Deployment's slots.
type entry struct {
	dep *core.Deployer
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
// chunk is always trained into exactly one champion and shadowed by the
// challenger attached to that champion.
type Deployment struct {
	name   string
	reg    *Registry
	quotas Quotas

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
		"Live chunks a shadow challenger was ticked on.", ls...)
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
// and, once that tick has published, into the attached challenger, whose
// fate is decided on the spot (shadow) — all under d.mu, so every chunk
// trains exactly one champion generation, the challenger sees exactly the
// champion's accepted chunk sequence, and a promotion happens at a chunk
// index that is a function of that sequence. A failed champion tick reaches
// no challenger. enqueuedAt is when the chunk entered an async queue (zero =
// not queued) and walSeq the sequence AppendIngestLog returned at accept time
// (0 = not logged); the tick commits or aborts the sequence in the champion's
// log — see core.Deployer.IngestLogged.
func (d *Deployment) IngestLogged(ctx context.Context, records [][]byte, enqueuedAt time.Time, walSeq uint64) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	err := d.serving.Load().dep.IngestLogged(ctx, records, enqueuedAt, walSeq)
	var displaced *entry
	if err == nil {
		displaced = d.shadow(ctx, records)
	}
	d.mu.Unlock()
	// What the verdict put out of every role is shut down by this caller, with
	// the lock released: Shutdown waits for a checkpoint write in flight.
	if displaced != nil {
		displaced.dep.Shutdown()
	}
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

// maybeAutoChallenge closes the drift→challenger loop after an ingest
// tick: when the champion's drift detector fired since the last check, a
// shadow challenger is started from the registry's AutoChallenger build
// hook under the configured promotion policy. A cooldown swallows fires
// from a flapping detector (the fire is still recorded as seen, so the
// next fire after the cooldown starts exactly one challenger), and a
// deployment already hosting a challenger starts nothing — the drifted
// data is already flowing into the candidate.
func (d *Deployment) maybeAutoChallenge() {
	ac := d.reg.opts.AutoChallenger
	if ac == nil {
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
		cooldown = defaultAutoChallengerCooldown
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

// HasRollback reports whether a previous champion is retained. Lock-free,
// like every other status read.
func (d *Deployment) HasRollback() bool {
	return d.prev.Load() != nil
}

// close shuts down every deployer the deployment holds.
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
		c.e.dep.Shutdown()
		d.retirements.Inc()
	}
	if prev != nil {
		prev.dep.Shutdown()
	}
	cur.dep.Shutdown()
}

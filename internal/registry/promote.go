package registry

import (
	"fmt"
	"sync/atomic"
	"time"

	"cdml/internal/core"
)

// Policy decides a shadow challenger's fate from the two windowed
// prequential error levels. The zero value is usable: every field defaults.
// The JSON form is the "policy" object of the challenger endpoints.
type Policy struct {
	// MinEvaluated is the number of observations both windows must hold
	// before a comparison counts (default 200 — roughly one effective
	// window at defaultWindowAlpha). Promoting on thin evidence is how
	// canary systems flap.
	MinEvaluated int64 `json:"min_evaluated"`
	// Margin is the absolute windowed-loss improvement the challenger must
	// show: promote when challengerLoss < championLoss − Margin (default 0,
	// i.e. strictly better).
	Margin float64 `json:"margin"`
	// MaxShadowTicks retires the challenger after it has shadowed this many
	// chunks without earning promotion (default 64; negative disables
	// auto-retirement).
	MaxShadowTicks int64 `json:"max_shadow_ticks"`
}

// Policy defaults.
const (
	defaultMinEvaluated   = 200
	defaultMaxShadowTicks = 64
)

// withDefaults fills unset policy fields.
func (p Policy) withDefaults() Policy {
	if p.MinEvaluated <= 0 {
		p.MinEvaluated = defaultMinEvaluated
	}
	if p.MaxShadowTicks == 0 {
		p.MaxShadowTicks = defaultMaxShadowTicks
	}
	return p
}

// decision is a policy verdict for one wake-up of the controller.
type decision int

const (
	decideWait decision = iota
	decidePromote
	decideRetire
)

// decide compares the champion and challenger windows. Called from the
// controller goroutine; both windows are internally synchronized.
func (p Policy) decide(champ *window, c *challenger) decision {
	ticks := c.ticks.Load()
	champLoss, champN := champ.Stats()
	chalLoss, chalN := c.e.win.Stats()
	if champN >= p.MinEvaluated && chalN >= p.MinEvaluated && chalLoss < champLoss-p.Margin {
		return decidePromote
	}
	if p.MaxShadowTicks > 0 && ticks >= p.MaxShadowTicks {
		return decideRetire
	}
	return decideWait
}

// challenger is a shadow deployer plus its promotion controller plumbing.
type challenger struct {
	e         *entry
	pol       Policy
	startedAt time.Time

	ticks      atomic.Int64
	shadowErrs atomic.Int64
	lastErr    atomic.Value // error

	// notify (capacity 1) wakes the controller after each shadow tick; stop
	// ends the controller; done closes when it has returned.
	notify chan struct{}
	stop   chan struct{}
	done   chan struct{}
}

// stopAndWait ends the controller goroutine and blocks until it returns.
// Idempotent via the stop channel's sync.Once wrapper would be overkill:
// the single caller paths (close, retire-after-promote) never race, because
// both run exactly once per challenger pointer they removed from d.chal.
func (c *challenger) stopAndWait() {
	close(c.stop)
	<-c.done
}

// ChallengerStatus is a point-in-time snapshot of a shadow challenger, for
// the status API.
type ChallengerStatus struct {
	// StartedAt is when the challenger was attached.
	StartedAt time.Time
	// Ticks is the number of chunks shadowed so far.
	Ticks int64
	// ShadowErrs counts shadow ticks that failed.
	ShadowErrs int64
	// LastError is the most recent shadow-tick failure ("" when none).
	LastError string
	// WindowLoss and WindowCount are the challenger's faded prequential
	// loss and its observation count.
	WindowLoss  float64
	WindowCount int64
	// SnapshotVersion is the challenger deployer's published snapshot
	// version (ticks trained = version − 1).
	SnapshotVersion uint64
	// Policy echoes the effective (defaulted) promotion policy.
	Policy Policy
}

// StartChallenger builds a challenger deployer from cfg and attaches it in
// shadow mode: from the next champion tick on, every accepted live chunk is
// mirrored into it, its predictions are scored prequentially into its own
// window, and the promotion controller compares the two windows after each
// shadow tick until the policy promotes or retires it. One challenger at a
// time; adopted deployments cannot host one.
func (d *Deployment) StartChallenger(cfg core.Config, pol Policy) error {
	if d.adopted {
		return fmt.Errorf("%w: %q", ErrNotChallengeble, d.name)
	}
	e, err := d.reg.buildEntry(d, cfg, false)
	if err != nil {
		return err
	}
	c := &challenger{
		e:         e,
		pol:       pol.withDefaults(),
		startedAt: time.Now(),
		notify:    make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		e.dep.Shutdown()
		return ErrClosed
	}
	if d.chal.Load() != nil {
		d.mu.Unlock()
		e.dep.Shutdown()
		return fmt.Errorf("%w: %q", ErrChallengerBusy, d.name)
	}
	d.chal.Store(c)
	d.mu.Unlock()
	go d.runController(c)
	return nil
}

// Challenger returns a snapshot of the attached challenger, if any.
func (d *Deployment) Challenger() (ChallengerStatus, bool) {
	c := d.chal.Load()
	if c == nil {
		return ChallengerStatus{}, false
	}
	loss, n := c.e.win.Stats()
	st := ChallengerStatus{
		StartedAt:       c.startedAt,
		Ticks:           c.ticks.Load(),
		ShadowErrs:      c.shadowErrs.Load(),
		WindowLoss:      loss,
		WindowCount:     n,
		SnapshotVersion: c.e.dep.Published().Version(),
		Policy:          c.pol,
	}
	if err, ok := c.lastErr.Load().(error); ok {
		st.LastError = err.Error()
	}
	return st, true
}

// StopChallenger detaches and retires the challenger without promotion.
func (d *Deployment) StopChallenger() error {
	d.mu.Lock()
	c := d.chal.Load()
	if c == nil {
		d.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoChallenger, d.name)
	}
	d.chal.Store(nil)
	d.mu.Unlock()
	c.stopAndWait()
	c.e.dep.Shutdown()
	d.retirements.Inc()
	return nil
}

// runController is the promotion controller loop: it sleeps until the tee
// reports a shadow tick (or stop), asks the policy for a verdict, and acts
// on it. The loop owns no deployment state — every mutation happens under
// d.mu inside promote/retireChallenger — and exits after the first terminal
// verdict or stop signal.
//
//cdml:detached the controller outlives any request: it is stopped by StopChallenger, Delete, or Close via the stop channel
func (d *Deployment) runController(c *challenger) {
	defer close(c.done)
	for {
		select {
		case <-c.stop:
			return
		case <-c.notify:
			switch c.pol.decide(d.serving.Load().win, c) {
			case decidePromote:
				if d.promote(c) {
					return
				}
				// The slot changed under us (close or StopChallenger won the
				// race); keep looping — the stop signal is imminent.
			case decideRetire:
				d.retireChallenger(c)
				return
			}
		}
	}
}

// promote atomically swaps the challenger in as champion: the serving
// pointer moves in one atomic store (in-flight predictions either see the
// old champion — still answering from its immutable snapshot — or the new
// one, never an error), the old champion is retained for rollback, and the
// deployment version increments. Runs on the controller goroutine; returns
// false when the challenger slot changed before the lock was held, in
// which case nothing is swapped.
func (d *Deployment) promote(c *challenger) bool {
	d.mu.Lock()
	if d.closed || d.chal.Load() != c {
		d.mu.Unlock()
		return false
	}
	old := d.serving.Load()
	d.chal.Store(nil)
	d.serving.Store(c.e)
	// Replace the rollback point: the demoted champion supersedes any older
	// one, which nothing can reach anymore.
	stale := d.prev.Load()
	d.prev.Store(old)
	d.version.Add(1)
	d.mu.Unlock()
	if stale != nil {
		stale.dep.Shutdown()
	}
	d.promotions.Inc()
	return true
}

// retireChallenger removes and shuts down a challenger the policy gave up
// on. Runs on the controller goroutine. When the slot is no longer c's —
// StopChallenger or close cleared it and is waiting for this goroutine —
// whoever cleared it shuts the deployer down and counts the retirement.
func (d *Deployment) retireChallenger(c *challenger) {
	d.mu.Lock()
	mine := d.chal.Load() == c
	if mine {
		d.chal.Store(nil)
	}
	d.mu.Unlock()
	if mine {
		c.e.dep.Shutdown()
		d.retirements.Inc()
	}
}

// Rollback swaps the previous champion back in (undoing the most recent
// promotion), shuts down the demoted deployer, and increments the
// deployment version. Like promotion the swap is one atomic store under
// the tick serialization, so readers never observe an error.
func (d *Deployment) Rollback() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	prev := d.prev.Load()
	if prev == nil {
		d.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoRollback, d.name)
	}
	demoted := d.serving.Load()
	d.serving.Store(prev)
	d.prev.Store(nil)
	d.version.Add(1)
	d.mu.Unlock()
	demoted.dep.Shutdown()
	return nil
}

package registry

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"cdml/internal/core"
)

// Policy decides a shadow challenger's fate from the two deployers' recent
// loss (core.Result.RecentLoss: the workload's DriftLoss, faded at the one
// rate every deployer uses — a fair comparison needs both sides to forget
// equally fast, which is why the Policy carries thresholds but no alpha).
// The zero value is usable: every field defaults. The JSON form is the
// "policy" object of the challenger endpoints.
type Policy struct {
	// MinEvaluated is the number of records both recent losses must have seen
	// before a comparison counts (default 200 — roughly one effective window
	// of the fading factor). Promoting on thin evidence is how canary systems
	// flap.
	MinEvaluated int64 `json:"min_evaluated"`
	// Margin is the absolute recent-loss improvement the challenger must
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

// decision is a policy verdict on one shadow tick.
type decision int

const (
	decideWait decision = iota
	decidePromote
	decideRetire
)

// decide is the verdict after the challenger's ticks-th shadow tick, a pure
// function of what champion and challenger published at the end of it.
func (p Policy) decide(champ, chal core.Result, ticks int64) decision {
	if champ.RecentCount >= p.MinEvaluated && chal.RecentCount >= p.MinEvaluated &&
		chal.RecentLoss < champ.RecentLoss-p.Margin {
		return decidePromote
	}
	if p.MaxShadowTicks > 0 && ticks >= p.MaxShadowTicks {
		return decideRetire
	}
	return decideWait
}

// challenger is a shadow deployer, its policy and its shadow-tick counters
// (atomics: the tick writes them under d.mu, status reads take no lock).
type challenger struct {
	e         *entry
	pol       Policy
	startedAt time.Time

	ticks      atomic.Int64
	shadowErrs atomic.Int64
	lastErr    atomic.Value // error
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
	// WindowLoss and WindowCount are the challenger's recent loss and the
	// number of records it has seen (core.Result.RecentLoss / RecentCount).
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
// ticked into it as well, its predictions are scored prequentially but never
// served, and the policy compares the two recent losses after each shadow
// tick until it promotes or retires it (shadow). One challenger at a time.
func (d *Deployment) StartChallenger(cfg core.Config, pol Policy) error {
	e, err := d.reg.buildEntry(d, cfg, false)
	if err != nil {
		return err
	}
	c := &challenger{e: e, pol: pol.withDefaults(), startedAt: time.Now()}
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
	return nil
}

// Challenger returns a snapshot of the attached challenger, if any.
func (d *Deployment) Challenger() (ChallengerStatus, bool) {
	c := d.chal.Load()
	if c == nil {
		return ChallengerStatus{}, false
	}
	res := c.e.dep.Stats()
	st := ChallengerStatus{
		StartedAt:       c.startedAt,
		Ticks:           c.ticks.Load(),
		ShadowErrs:      c.shadowErrs.Load(),
		WindowLoss:      res.RecentLoss,
		WindowCount:     res.RecentCount,
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
	c.e.dep.Shutdown()
	d.retirements.Inc()
	return nil
}

// shadow is the second half of a live tick whose champion half succeeded:
// the attached challenger, if any, is ticked on the same chunk (its failure
// is counted and leaves the champion alone), and the policy's verdict on the
// two results just published is carried out with pointer stores. A promotion
// moves the serving pointer in one atomic store — an in-flight prediction
// sees the old champion, still answering from its immutable snapshot, or the
// new one, never an error — keeps the old champion as the rollback point and
// increments the deployment version. The returned entry is the deployer the
// verdict left without a role (the retired challenger, or the rollback point
// the promotion displaced; nil when there is none), for the caller to shut
// down once d.mu is released.
//
//cdml:locked mu
func (d *Deployment) shadow(ctx context.Context, records [][]byte) *entry {
	c := d.chal.Load()
	if c == nil {
		return nil
	}
	d.shadowTicks.Inc()
	if err := c.e.dep.IngestLogged(ctx, records, time.Time{}, 0); err != nil {
		c.shadowErrs.Add(1)
		c.lastErr.Store(err)
		d.shadowErrs.Inc()
	}
	champ := d.serving.Load()
	switch c.pol.decide(champ.dep.Stats(), c.e.dep.Stats(), c.ticks.Add(1)) {
	case decidePromote:
		d.chal.Store(nil)
		d.serving.Store(c.e)
		// The demoted champion supersedes any older rollback point, which
		// nothing can reach anymore.
		stale := d.prev.Load()
		d.prev.Store(champ)
		d.version.Add(1)
		d.promotions.Inc()
		return stale
	case decideRetire:
		d.chal.Store(nil)
		d.retirements.Inc()
		return c.e
	}
	return nil
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

package registry

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"cdml/internal/core"
	"cdml/internal/data"
	"cdml/internal/drift"
	"cdml/internal/sample"
)

// fireDetector is a hand-triggered drift detector: arm() makes exactly the
// next Observe call report drift, everything else is stable.
type fireDetector struct {
	armed atomic.Bool
}

func (f *fireDetector) arm() { f.armed.Store(true) }

func (f *fireDetector) Name() string { return "test-fire" }

func (f *fireDetector) Observe(loss float64) drift.State {
	if f.armed.Swap(false) {
		return drift.StateDrift
	}
	return drift.StateStable
}

func (f *fireDetector) State() drift.State { return drift.StateStable }
func (f *fireDetector) Reset()             {}

// driftConfig is a continuous-mode deployment whose only proactive trigger
// is the given drift detector.
func driftConfig(det drift.Detector) core.Config {
	cfg := adamConfig()
	cfg.Mode = core.ModeContinuous
	cfg.Sampler = sample.NewTime(1)
	cfg.SampleChunks = 2
	cfg.ProactiveEvery = 1 << 30
	cfg.DriftDetector = det
	return cfg
}

// TestAutoChallengerOnDrift covers the drift→challenger loop: a detector
// fire starts exactly one shadow challenger, a second fire while one is
// attached builds nothing, and the cooldown swallows a flapping detector
// after the challenger is retired.
func TestAutoChallengerOnDrift(t *testing.T) {
	det := &fireDetector{}
	var builds atomic.Int32
	reg := New(Options{AutoChallenger: &AutoChallenger{
		Build: func(name string) (core.Config, error) {
			builds.Add(1)
			return adamConfig(), nil
		},
		Cooldown: time.Hour,
	}})
	defer reg.Close()
	d, err := reg.Create("m", driftConfig(det), Quotas{})
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(1))

	// Stable stream: no challenger appears on its own.
	if err := d.Ingest(chunk(rnd, 30)); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Challenger(); ok {
		t.Fatal("challenger started without a drift fire")
	}

	// Fire: the next ingest tick must start a challenger automatically.
	det.arm()
	if err := d.Ingest(chunk(rnd, 30)); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Challenger(); !ok {
		t.Fatal("drift fire did not start a challenger")
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("builds = %d, want 1", n)
	}

	// Fire again while the challenger is attached: the drifted data already
	// tees into it, so nothing new is built.
	det.arm()
	if err := d.Ingest(chunk(rnd, 30)); err != nil {
		t.Fatal(err)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("builds after second fire = %d, want 1 (challenger already attached)", n)
	}

	// Retire it, then flap: the cooldown (1h) must swallow the fire.
	if err := d.StopChallenger(); err != nil {
		t.Fatal(err)
	}
	det.arm()
	if err := d.Ingest(chunk(rnd, 30)); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Challenger(); ok {
		t.Fatal("cooldown did not swallow the flapping fire")
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("builds after cooldown-swallowed fire = %d, want 1", n)
	}
}

// TestAutoChallengerCooldownExpiry verifies an expired cooldown re-arms the
// trigger: with a nanosecond cooldown, retire-then-fire starts a fresh
// challenger.
func TestAutoChallengerCooldownExpiry(t *testing.T) {
	det := &fireDetector{}
	var builds atomic.Int32
	reg := New(Options{AutoChallenger: &AutoChallenger{
		Build: func(name string) (core.Config, error) {
			builds.Add(1)
			return adamConfig(), nil
		},
		Cooldown: time.Nanosecond,
	}})
	defer reg.Close()
	d, err := reg.Create("m", driftConfig(det), Quotas{})
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(2))

	det.arm()
	if err := d.Ingest(chunk(rnd, 30)); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Challenger(); !ok {
		t.Fatal("first fire did not start a challenger")
	}
	if err := d.StopChallenger(); err != nil {
		t.Fatal(err)
	}
	det.arm()
	if err := d.Ingest(chunk(rnd, 30)); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Challenger(); !ok {
		t.Fatal("fire after expired cooldown did not start a challenger")
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("builds = %d, want 2", n)
	}
}

// TestStoreQuotaEnforced pins the per-deployment store quota to the data
// boundary: ingest past MaxStoreChunks fails with the typed over-quota
// error, and the chunks already retained keep serving.
func TestStoreQuotaEnforced(t *testing.T) {
	reg := New(Options{})
	defer reg.Close()
	d, err := reg.Create("q", adamConfig(), Quotas{MaxStoreChunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 2; i++ {
		if err := d.Ingest(chunk(rnd, 10)); err != nil {
			t.Fatalf("ingest %d under quota: %v", i, err)
		}
	}
	err = d.Ingest(chunk(rnd, 10))
	if !errors.Is(err, data.ErrOverQuota) {
		t.Fatalf("ingest over quota = %v, want ErrOverQuota", err)
	}
	var qe *data.QuotaError
	if !errors.As(err, &qe) || qe.Limit != 2 {
		t.Fatalf("over-quota error %v does not carry the limit", err)
	}
	// The deployment still answers predictions from its retained state.
	if _, err := d.Predict(chunk(rnd, 5)); err != nil {
		t.Fatalf("predict after over-quota rejection: %v", err)
	}
}

package registry

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cdml/internal/core"
	"cdml/internal/drift"
	"cdml/internal/obs"
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

// TestStoreKeepsNewestNChunks: MaxStoreChunks is the paper's N. A
// continuous deployment fed 10·N chunks retains N raw and N feature chunks,
// the raw bytes at rest stay level once N binds, and proactive training —
// each run sampling every retained chunk — keeps running on every tick.
func TestStoreKeepsNewestNChunks(t *testing.T) {
	const n = 16
	metrics := obs.NewRegistry()
	reg := New(Options{Metrics: metrics})
	defer reg.Close()
	cfg := adamConfig()
	cfg.Mode, cfg.ProactiveEvery = core.ModeContinuous, 1
	cfg.Sampler, cfg.SampleChunks = sample.NewTime(1), n
	d, err := reg.Create("q", cfg, Quotas{MaxStoreChunks: n})
	if err != nil {
		t.Fatal(err)
	}
	series := func(name string, labels ...string) float64 {
		t.Helper()
		var buf bytes.Buffer
		if err := metrics.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		prefix := name + `{` + strings.Join(append([]string{`deployment="q"`, `gen="1"`}, labels...), ",") + `} `
		for _, line := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
		}
		t.Fatalf("no %s… in the exposition:\n%s", prefix, buf.String())
		return 0
	}
	rnd := rand.New(rand.NewSource(3))
	var full, runs float64
	for i := 0; i < 10*n; i++ {
		if err := d.Ingest(chunk(rnd, 10)); err != nil {
			t.Fatalf("ingest %d of %d (N = %d): %v", i+1, 10*n, n, err)
		}
		want := float64(min(i+1, n))
		if raw, feat := series("cdml_store_raw_chunks"), series("cdml_store_materialized_chunks"); raw != want || feat != want {
			t.Fatalf("after %d chunks the store holds %v raw and %v feature chunks, want %v", i+1, raw, feat, want)
		}
		rawBytes := series("cdml_store_bytes", `kind="raw"`)
		if i == n-1 {
			full = rawBytes
		}
		if i >= n && (rawBytes < 0.75*full || rawBytes > 1.25*full) {
			t.Fatalf("after %d chunks the raw chunks take %v bytes, %v when N first bound", i+1, rawBytes, full)
		}
		next := series("cdml_proactive_runs_total")
		if next <= runs {
			t.Fatalf("chunk %d ran no proactive training (%v runs)", i+1, next)
		}
		runs = next
	}
}

// TestZeroStoreQuotaIsDefaultN: a deployment whose quotas name no N keeps
// defaultStoreChunks chunks, not all of them.
func TestZeroStoreQuotaIsDefaultN(t *testing.T) {
	reg := New(Options{})
	defer reg.Close()
	cfg := adamConfig()
	if _, err := reg.Create("z", cfg, Quotas{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= defaultStoreChunks; i++ {
		if _, err := cfg.Store.AppendRaw(nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := cfg.Store.NumRaw(); got != defaultStoreChunks {
		t.Fatalf("a store fed %d chunks under a zero quota holds %d, want %d", defaultStoreChunks+1, got, defaultStoreChunks)
	}
}

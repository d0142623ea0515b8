package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cdml/internal/data"
	"cdml/internal/drift"
	"cdml/internal/sched"
)

// abruptStream flips its decision boundary halfway through — an abrupt
// concept drift for the detector to catch.
type abruptStream struct {
	chunks, rows int
}

func (s abruptStream) Name() string   { return "abrupt" }
func (s abruptStream) NumChunks() int { return s.chunks }

func (s abruptStream) Chunk(i int) [][]byte {
	r := rand.New(rand.NewSource(int64(i) + 1))
	sign := 1.0
	if i >= s.chunks/2 {
		sign = -1 // boundary flips
	}
	recs := make([][]byte, s.rows)
	for k := range recs {
		x0, x1 := r.NormFloat64(), r.NormFloat64()
		y := "+1"
		if sign*(x0+x1) < 0 {
			y = "-1"
		}
		recs[k] = []byte(fmt.Sprintf("%s,%.4f,%.4f", y, x0, x1))
	}
	return recs
}

func TestDriftDetectorTriggersExtraTraining(t *testing.T) {
	s := abruptStream{chunks: 80, rows: 50}
	cfg := baseConfig(ModeContinuous)
	cfg.ProactiveEvery = 1000 // schedule alone would never fire
	cfg.DriftDetector = drift.NewDDM()
	res := run(t, cfg, s)
	if res.DriftEvents == 0 {
		t.Fatal("abrupt boundary flip not detected")
	}
	if res.ProactiveRuns < res.DriftEvents {
		t.Fatalf("drift events %d did not trigger trainings (%d)", res.DriftEvents, res.ProactiveRuns)
	}
}

func TestDriftAlleviationImprovesRecovery(t *testing.T) {
	s := abruptStream{chunks: 100, rows: 50}
	plain := baseConfig(ModeContinuous)
	plain.ProactiveEvery = 50
	base := run(t, plain, s)

	adaptive := baseConfig(ModeContinuous)
	adaptive.Store = data.NewStore(data.NewMemoryBackend())
	adaptive.ProactiveEvery = 50
	adaptive.DriftDetector = drift.NewDDM()
	adapted := run(t, adaptive, s)

	// With drift-triggered training the platform trains at least as often
	// and must not end up meaningfully worse.
	if adapted.FinalError > base.FinalError*1.1 {
		t.Fatalf("drift alleviation hurt: %v vs %v", adapted.FinalError, base.FinalError)
	}
	if adapted.DriftEvents == 0 {
		t.Fatal("no drift events recorded")
	}
}

func TestNoDriftEventsWithoutDetector(t *testing.T) {
	res := run(t, baseConfig(ModeContinuous), smallStream)
	if res.DriftEvents != 0 {
		t.Fatal("drift events without a detector")
	}
}

func TestDynamicSchedulerDrivesProactiveTraining(t *testing.T) {
	cfg := baseConfig(ModeContinuous)
	cfg.ProactiveEvery = 0 // scheduler replaces the chunk counter
	cfg.Scheduler = sched.NewDynamic(1.5, time.Microsecond)
	res := run(t, cfg, smallStream)
	if res.ProactiveRuns == 0 {
		t.Fatal("dynamic scheduler never fired")
	}
}

// TestDynamicSchedulerQueryRateUnderMixedLoad: the query rate Formula (6)
// multiplies by is the rate the deployment answered queries at — predicts
// and the rows its ticks scored, one observation a tick — not rows over
// the duration of one tick's serve stage.
func TestDynamicSchedulerQueryRateUnderMixedLoad(t *testing.T) {
	cfg := liveConfig(ModeContinuous)
	cfg.ProactiveEvery = 0
	dyn := sched.NewDynamic(2, time.Hour)
	cfg.Scheduler = dyn
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	var predicted int
	start := time.Now()
	for i := 0; i < 50; i++ {
		for k := 0; k < 5; k++ {
			out, err := d.Predict(smallStream.Chunk(i)[:20])
			if err != nil {
				t.Fatal(err)
			}
			predicted += len(out)
		}
		if err := d.Ingest(smallStream.Chunk(i)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	want := float64(predicted+int(d.Stats().Evaluated)) / time.Since(start).Seconds()
	if got := dyn.QueryRate(); got < want/3 || got > want*3 {
		t.Fatalf("query rate %.0f/s, the deployment answered %.0f/s", got, want)
	}
}

func TestStaticWallClockScheduler(t *testing.T) {
	cfg := baseConfig(ModeContinuous)
	cfg.ProactiveEvery = 0
	// A long interval should allow only the immediate first training.
	cfg.Scheduler = sched.NewStatic(time.Hour)
	res := run(t, cfg, smallStream)
	if res.ProactiveRuns != 1 {
		t.Fatalf("proactive runs = %d, want exactly 1 with an hour-long interval", res.ProactiveRuns)
	}
}

func TestContinuousModeRequiresTriggerConfig(t *testing.T) {
	cfg := baseConfig(ModeContinuous)
	cfg.ProactiveEvery = 0
	cfg.Scheduler = nil
	if _, err := NewDeployer(cfg); err == nil {
		t.Fatal("expected validation error without any trigger")
	}
}

func TestEndToEndWithDiskStore(t *testing.T) {
	disk, err := data.NewDiskBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(ModeContinuous)
	cfg.Store = data.NewStore(disk, data.WithCapacity(15))
	res := run(t, cfg, driftStream{chunks: 50, rows: 30, drift: 1, seed: 21})
	if res.FinalError >= 0.5 {
		t.Fatalf("disk-backed deployment failed to learn: %v", res.FinalError)
	}
	if res.MatStats.Rematerializations == 0 {
		t.Fatal("capacity-bounded disk store should re-materialize")
	}
	if res.Cost.Total() == 0 {
		t.Fatal("no cost recorded")
	}
	if err := cfg.Store.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDriftLossDefaultExactMismatch(t *testing.T) {
	cfg := baseConfig(ModeOnline)
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.DriftLoss(1, 1) != 0 || cfg.DriftLoss(1, -1) != 1 {
		t.Fatal("default drift loss wrong")
	}
}

func TestThresholdModeRetrainsOnDegradation(t *testing.T) {
	s := abruptStream{chunks: 80, rows: 50}
	cfg := baseConfig(ModeThreshold)
	cfg.RetrainThreshold = 0.35
	res := run(t, cfg, s)
	if res.Retrains == 0 {
		t.Fatal("threshold mode never retrained despite a boundary flip")
	}
	if res.ProactiveRuns != 0 {
		t.Fatal("threshold mode must not proactively train")
	}
	if res.FinalError >= 0.5 {
		t.Fatalf("threshold error = %v", res.FinalError)
	}
}

func TestThresholdModeQuietOnStationaryStream(t *testing.T) {
	// A well-fit model on a stationary stream should not trip the
	// threshold.
	cfg := baseConfig(ModeThreshold)
	cfg.RetrainThreshold = 0.5
	res := run(t, cfg, driftStream{chunks: 60, rows: 40, drift: 0, seed: 61})
	if res.Retrains > 1 {
		t.Fatalf("threshold mode retrained %d times on a stationary stream", res.Retrains)
	}
}

func TestThresholdModeValidation(t *testing.T) {
	cfg := baseConfig(ModeThreshold)
	cfg.RetrainThreshold = 0
	if _, err := NewDeployer(cfg); err == nil {
		t.Fatal("zero threshold accepted")
	}
}

func TestContinuousCheaperThanThresholdOnDrift(t *testing.T) {
	// The paper's Velox critique: threshold-triggered full retraining is
	// resource intensive; continuous deployment reaches comparable quality
	// at lower cost.
	s := abruptStream{chunks: 120, rows: 50}
	th := baseConfig(ModeThreshold)
	th.RetrainThreshold = 0.3
	thRes := run(t, th, s)

	cont := baseConfig(ModeContinuous)
	cont.Store = data.NewStore(data.NewMemoryBackend())
	contRes := run(t, cont, s)

	if thRes.Retrains == 0 {
		t.Skip("threshold never tripped at this scale")
	}
	if contRes.Cost.Total() >= thRes.Cost.Total() {
		t.Fatalf("continuous cost %v not below threshold-retraining cost %v",
			contRes.Cost.Total(), thRes.Cost.Total())
	}
	if contRes.FinalError > thRes.FinalError*1.2 {
		t.Fatalf("continuous quality %v much worse than threshold %v",
			contRes.FinalError, thRes.FinalError)
	}
}

func TestRawCapacityBoundedDeployment(t *testing.T) {
	// The paper (§3.2): "If some of the raw data chunks are not available,
	// the platform ignores these chunks during the sampling operation."
	cfg := baseConfig(ModeContinuous)
	cfg.Store = data.NewStore(data.NewMemoryBackend(),
		data.WithRawCapacity(20), data.WithCapacity(10))
	res := run(t, cfg, driftStream{chunks: 80, rows: 30, drift: 1, seed: 71})
	if res.FinalError >= 0.5 {
		t.Fatalf("bounded-history deployment failed to learn: %v", res.FinalError)
	}
	if cfg.Store.NumRaw() != 20 {
		t.Fatalf("raw retention = %d, want 20", cfg.Store.NumRaw())
	}
	if res.ProactiveRuns == 0 {
		t.Fatal("sampling stopped under the raw bound")
	}
}

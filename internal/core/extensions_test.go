package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cdml/internal/data"
	"cdml/internal/drift"
	"cdml/internal/eval"
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

// servedLog is a Scheduler that is due at every tick and records the
// cumulative serving time each training reports.
type servedLog struct{ served []time.Duration }

func (l *servedLog) Due(time.Time) bool { return true }

func (l *servedLog) TrainingDone(_ time.Time, _, served time.Duration) {
	l.served = append(l.served, served)
}

// TestDynamicSchedulerQueryRateUnderMixedLoad: the serving load Formula (6)
// reads is the deployment's predict cost — predicts and the rows its ticks
// scored — handed to the scheduler at each training, so it grows from one
// training to the next and ends at what the cost clock says.
func TestDynamicSchedulerQueryRateUnderMixedLoad(t *testing.T) {
	cfg := liveConfig(ModeContinuous)
	cfg.ProactiveEvery = 0
	log := &servedLog{}
	cfg.Scheduler = log
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	const ticks = 20
	for i := 0; i < ticks; i++ {
		for k := 0; k < 5; k++ {
			if _, err := d.Predict(smallStream.Chunk(i)[:20]); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Ingest(smallStream.Chunk(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(log.served) != ticks {
		t.Fatalf("%d trainings reported, want one a tick (%d)", len(log.served), ticks)
	}
	for i := 1; i < len(log.served); i++ {
		if log.served[i] <= log.served[i-1] {
			t.Fatalf("training %d reported served %v after %v: it must grow", i, log.served[i], log.served[i-1])
		}
	}
	if last, want := log.served[ticks-1], d.Stats().Cost.Get(eval.CatPredict); last != want {
		t.Fatalf("last training reported served %v, the cost clock says %v", last, want)
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
		t.Fatal("threshold mode never retrained on an abrupt flip")
	}
	// Counted in rows: threshold 171 000, continuous 54 500.
	if contRes.Cost.TotalWork() >= thRes.Cost.TotalWork() {
		t.Fatalf("continuous cost %d rows not below threshold-retraining cost %d",
			contRes.Cost.TotalWork(), thRes.Cost.TotalWork())
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

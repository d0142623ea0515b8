// Determinism regression test: the platform's reproducibility contract
// (every random draw flows from an explicitly seeded *rand.Rand — the
// invariant the globalrand analyzer enforces) means running the same seeded
// deployment twice must produce bit-identical models and error curves.
// Wall-clock quantities (cost curves, training durations) are the only
// run-dependent outputs and are deliberately excluded.
package cdml_test

import (
	"math"
	"testing"

	"cdml"
	"cdml/internal/dataset"
)

// runSeededDeployment executes one small continuous deployment with every
// seed pinned and returns the result together with the final model weights.
func runSeededDeployment(t *testing.T) (*cdml.Result, []float64) {
	t.Helper()
	cfg := dataset.DefaultURLConfig()
	cfg.Days, cfg.ChunksPerDay, cfg.RowsPerChunk, cfg.Vocab = 8, 4, 80, 500
	cfg.HashDim = 1 << 12
	cfg.Seed = 7
	gen := dataset.NewURL(cfg)
	d, err := cdml.NewDeployer(cdml.Config{
		Mode:           cdml.ModeContinuous,
		NewPipeline:    func() *cdml.Pipeline { return dataset.NewURLPipeline(cfg.HashDim) },
		NewModel:       func() cdml.Model { return dataset.NewURLModel(cfg.HashDim, 1e-3) },
		NewOptimizer:   func() cdml.Optimizer { return cdml.NewAdam(0.05) },
		Store:          cdml.NewStore(cdml.NewMemoryBackend()),
		Sampler:        cdml.NewTimeSampler(1),
		SampleChunks:   4,
		ProactiveEvery: 4,
		InitialChunks:  4,
		Seed:           7,
		Metric:         &cdml.Misclassification{},
		Predict:        cdml.ClassifyPredictor,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(gen)
	if err != nil {
		t.Fatal(err)
	}
	w := append([]float64(nil), d.Model().Weights()...)
	return res, w
}

// TestDeterministicDeployment runs the identical seeded experiment twice and
// requires bit-identical outcomes — not approximate equality. Any use of the
// process-global math/rand source, map-iteration-order dependence, or other
// hidden nondeterminism in the train/serve path shows up here as a diff.
func TestDeterministicDeployment(t *testing.T) {
	res1, w1 := runSeededDeployment(t)
	res2, w2 := runSeededDeployment(t)

	if len(w1) != len(w2) {
		t.Fatalf("weight lengths differ: %d vs %d", len(w1), len(w2))
	}
	for i := range w1 {
		if math.Float64bits(w1[i]) != math.Float64bits(w2[i]) {
			t.Fatalf("weight %d differs: %x vs %x", i, math.Float64bits(w1[i]), math.Float64bits(w2[i]))
		}
	}

	if math.Float64bits(res1.FinalError) != math.Float64bits(res2.FinalError) {
		t.Errorf("FinalError differs: %v vs %v", res1.FinalError, res2.FinalError)
	}
	if math.Float64bits(res1.AvgError) != math.Float64bits(res2.AvgError) {
		t.Errorf("AvgError differs: %v vs %v", res1.AvgError, res2.AvgError)
	}
	if res1.ProactiveRuns != res2.ProactiveRuns {
		t.Errorf("ProactiveRuns differs: %d vs %d", res1.ProactiveRuns, res2.ProactiveRuns)
	}
	if res1.DriftEvents != res2.DriftEvents {
		t.Errorf("DriftEvents differs: %d vs %d", res1.DriftEvents, res2.DriftEvents)
	}

	c1, c2 := res1.ErrorCurve, res2.ErrorCurve
	if c1.Len() != c2.Len() {
		t.Fatalf("error curve lengths differ: %d vs %d", c1.Len(), c2.Len())
	}
	for i := range c1.Ys {
		if math.Float64bits(c1.Ys[i]) != math.Float64bits(c2.Ys[i]) {
			t.Fatalf("error curve point %d differs: %v vs %v", i, c1.Ys[i], c2.Ys[i])
		}
	}
}

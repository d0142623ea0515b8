package experiment

import (
	"fmt"
	"strings"
	"time"

	"cdml/internal/core"
	"cdml/internal/dataset"
	"cdml/internal/drift"
	"cdml/internal/eval"
	"cdml/internal/model"
	"cdml/internal/opt"
	"cdml/internal/pipeline"
	"cdml/internal/sample"
)

// The experiments in this file go beyond the paper's evaluation: they
// exercise the future-work extensions the paper names in §7 (native
// concept-drift detection and alleviation) and the additional SGD model
// families §2.1 cites (matrix factorization for recommenders).

// ---------------------------------------------------------------------------
// Extension 1 — drift detection and alleviation

// ExtDriftRow is one deployment variant's outcome on the flipping stream.
type ExtDriftRow struct {
	Variant     string
	FinalError  float64
	AvgError    float64
	Trainings   int
	DriftEvents int
}

// ExtDriftResult compares schedule-only continuous deployment against
// detector-augmented variants on an abruptly drifting stream.
type ExtDriftResult struct {
	Rows []ExtDriftRow
}

// flipStream reverses its decision boundary at 1/3 and 2/3 of the run.
type flipStream struct{ chunks, rows int }

func (s flipStream) Name() string   { return "flip" }
func (s flipStream) NumChunks() int { return s.chunks }

func (s flipStream) Chunk(i int) [][]byte {
	r := newChunkRand(77, i)
	sign := 1.0
	if i >= s.chunks/3 && i < 2*s.chunks/3 {
		sign = -1
	}
	recs := make([][]byte, s.rows)
	for k := range recs {
		x0, x1 := r.NormFloat64(), r.NormFloat64()
		y := "+1"
		if sign*(x0+0.5*x1) < 0 {
			y = "-1"
		}
		recs[k] = []byte(fmt.Sprintf("%s,%.4f,%.4f", y, x0, x1))
	}
	return recs
}

// ExtDrift runs the drift-alleviation comparison: no detector vs DDM vs
// Page-Hinkley, all on the same flipping stream with a sparse schedule so
// adaptation must come from the detector.
func ExtDrift() (*ExtDriftResult, error) {
	mk := func(det drift.Detector) core.Config {
		return core.Config{
			Mode: core.ModeContinuous,
			NewPipeline: func() *pipeline.Pipeline {
				return pipeline.New(xyParser{},
					pipeline.NewStandardScaler([]string{"x0", "x1"}),
					pipeline.NewAssembler([]string{"x0", "x1"}, nil, "features"),
				)
			},
			NewModel:       func() model.Model { return model.NewSVM(2, 1e-4) },
			NewOptimizer:   func() opt.Optimizer { return opt.NewAdam(0.1) },
			Store:          newStore(-1),
			Sampler:        sample.NewTime(1),
			SampleChunks:   10,
			ProactiveEvery: 25,
			DriftBoost:     8,
			InitialChunks:  10,
			Metric:         &eval.Misclassification{},
			Predict:        core.ClassifyPredictor,
			Seed:           1,
		}
	}
	variants := []struct {
		name string
		det  drift.Detector
	}{
		{"schedule-only", nil},
		{"ddm", drift.NewDDM()},
		{"page-hinkley", drift.NewPageHinkley()},
	}
	s := flipStream{chunks: 240, rows: 50}
	out := &ExtDriftResult{}
	for _, v := range variants {
		cfg := mk(v.det)
		cfg.DriftDetector = v.det
		res, err := deploy(cfg, s)
		if err != nil {
			return nil, fmt.Errorf("experiment: extdrift %s: %w", v.name, err)
		}
		out.Rows = append(out.Rows, ExtDriftRow{
			Variant:     v.name,
			FinalError:  res.FinalError,
			AvgError:    res.AvgError,
			Trainings:   res.ProactiveRuns,
			DriftEvents: res.DriftEvents,
		})
	}
	return out, nil
}

// Render prints the drift comparison.
func (r *ExtDriftResult) Render() string {
	var b strings.Builder
	b.WriteString("Extension — drift detection and alleviation (flipping stream)\n")
	fmt.Fprintf(&b, "%-16s %12s %12s %10s %8s\n", "variant", "final-error", "avg-error", "trainings", "drifts")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %12.4f %12.4f %10d %8d\n",
			row.Variant, row.FinalError, row.AvgError, row.Trainings, row.DriftEvents)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Extension — Velox-style threshold retraining baseline

// ExtVeloxRow is one strategy's outcome in the threshold comparison.
type ExtVeloxRow struct {
	Strategy   string
	FinalError float64
	Cost       Cost
	Retrains   int
	Proactive  int
}

// ExtVeloxResult compares threshold-triggered retraining (the Velox
// pattern of the paper's related work, §6) against continuous deployment
// on a drifting stream.
type ExtVeloxResult struct {
	Rows []ExtVeloxRow
}

// ExtVelox runs the comparison.
func ExtVelox() (*ExtVeloxResult, error) {
	s := flipStream{chunks: 240, rows: 50}
	mk := func(mode core.Mode) core.Config {
		cfg := core.Config{
			Mode: mode,
			NewPipeline: func() *pipeline.Pipeline {
				return pipeline.New(xyParser{},
					pipeline.NewStandardScaler([]string{"x0", "x1"}),
					pipeline.NewAssembler([]string{"x0", "x1"}, nil, "features"),
				)
			},
			NewModel:         func() model.Model { return model.NewSVM(2, 1e-4) },
			NewOptimizer:     func() opt.Optimizer { return opt.NewAdam(0.1) },
			Store:            newStore(-1),
			Sampler:          sample.NewTime(1),
			SampleChunks:     10,
			ProactiveEvery:   5,
			RetrainThreshold: 0.3,
			WarmStart:        true,
			InitialChunks:    10,
			Metric:           &eval.Misclassification{},
			Predict:          core.ClassifyPredictor,
			Seed:             1,
		}
		return cfg
	}
	out := &ExtVeloxResult{}
	for _, mode := range []core.Mode{core.ModeThreshold, core.ModeContinuous} {
		res, err := deploy(mk(mode), s)
		if err != nil {
			return nil, fmt.Errorf("experiment: extvelox %s: %w", mode, err)
		}
		out.Rows = append(out.Rows, ExtVeloxRow{
			Strategy:   mode.String(),
			FinalError: res.FinalError,
			Cost:       costOf(res.Cost),
			Retrains:   res.Retrains,
			Proactive:  res.ProactiveRuns,
		})
	}
	return out, nil
}

// Render prints the threshold comparison.
func (r *ExtVeloxResult) Render() string {
	var b strings.Builder
	b.WriteString("Extension — Velox-style threshold retraining vs continuous (flipping stream)\n")
	fmt.Fprintf(&b, "%-12s %12s %12s %10s %10s %10s\n", "strategy", "final-error", "cost-rows", "cost", "retrains", "proactive")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %12.4f %12d %10v %10d %10d\n",
			row.Strategy, row.FinalError, row.Cost.Work, row.Cost.Time.Round(time.Millisecond), row.Retrains, row.Proactive)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Extension 2 — recommender (matrix factorization) deployment

// ExtRecsysResult compares online vs continuous deployment of the MF model
// on the drifting rating stream.
type ExtRecsysResult struct {
	OnlineRMSE     float64
	ContinuousRMSE float64
	OnlineCost     Cost
	ContinuousCost Cost
	NoiseFloor     float64
}

// ExtRecsys runs the recommender comparison.
func ExtRecsys() (*ExtRecsysResult, error) {
	cfg := dataset.DefaultRatingsConfig()
	cfg.Users, cfg.Items = 100, 200
	cfg.Chunks, cfg.RowsPerChunk = 300, 80
	cfg.Drift = 1.0
	mk := func(mode core.Mode) core.Config {
		return core.Config{
			Mode: mode,
			NewPipeline: func() *pipeline.Pipeline {
				return dataset.NewRatingsPipeline(cfg.Users, cfg.Items)
			},
			NewModel:       func() model.Model { return dataset.NewRatingsModel(cfg, 1e-3) },
			NewOptimizer:   func() opt.Optimizer { return opt.NewAdam(0.05) },
			Store:          newStore(-1),
			Sampler:        sample.NewTime(1),
			SampleChunks:   10,
			ProactiveEvery: 4,
			InitialChunks:  20,
			Metric:         &eval.RMSE{},
			Predict:        core.RegressionPredictor,
			Seed:           1,
		}
	}
	on, err := deploy(mk(core.ModeOnline), dataset.NewRatings(cfg))
	if err != nil {
		return nil, fmt.Errorf("experiment: extrecsys online: %w", err)
	}
	cont, err := deploy(mk(core.ModeContinuous), dataset.NewRatings(cfg))
	if err != nil {
		return nil, fmt.Errorf("experiment: extrecsys continuous: %w", err)
	}
	return &ExtRecsysResult{
		OnlineRMSE:     on.FinalError,
		ContinuousRMSE: cont.FinalError,
		OnlineCost:     costOf(on.Cost),
		ContinuousCost: costOf(cont.Cost),
		NoiseFloor:     cfg.Noise,
	}, nil
}

// Render prints the recommender comparison.
func (r *ExtRecsysResult) Render() string {
	var b strings.Builder
	b.WriteString("Extension — recommender deployment (matrix factorization, drifting preferences)\n")
	fmt.Fprintf(&b, "%-12s %12s %12s %10s\n", "deployment", "final-RMSE", "cost-rows", "cost")
	fmt.Fprintf(&b, "%-12s %12.4f %12d %10v\n", "online", r.OnlineRMSE, r.OnlineCost.Work, r.OnlineCost.Time.Round(time.Millisecond))
	fmt.Fprintf(&b, "%-12s %12.4f %12d %10v\n", "continuous", r.ContinuousRMSE, r.ContinuousCost.Work, r.ContinuousCost.Time.Round(time.Millisecond))
	fmt.Fprintf(&b, "noise floor ≈ %.2f\n", r.NoiseFloor)
	return b.String()
}

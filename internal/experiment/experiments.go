package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"cdml/internal/core"
	"cdml/internal/data"
	"cdml/internal/eval"
	"cdml/internal/model"
	"cdml/internal/opt"
	"cdml/internal/sample"
)

// deploy runs one deployment and returns its result.
func deploy(cfg core.Config, s core.Stream) (*core.Result, error) {
	d, err := core.NewDeployer(cfg)
	if err != nil {
		return nil, err
	}
	return d.Run(s)
}

// ---------------------------------------------------------------------------
// Experiment 1 — Figure 4: deployment approaches

// Fig4Result holds quality and cost curves for the three deployment
// approaches on one workload.
type Fig4Result struct {
	Workload string
	Metric   string
	Results  map[string]*core.Result // keyed by mode name
}

// Fig4 runs the online, periodical, and continuous deployments of one
// workload (paper §5.2, Figure 4a–d).
func Fig4(w *Workload) (*Fig4Result, error) {
	out := &Fig4Result{Workload: w.Name, Metric: w.MetricName, Results: map[string]*core.Result{}}
	for _, mode := range []core.Mode{core.ModeOnline, core.ModePeriodical, core.ModeContinuous} {
		cfg := w.BaseConfig(mode, 1)
		// Each approach starts on a collected heap, so none is charged for
		// collecting the garbage the one before it left.
		runtime.GC()
		res, err := deploy(cfg, w.Stream)
		if err != nil {
			return nil, fmt.Errorf("experiment: fig4 %s/%s: %w", w.Name, mode, err)
		}
		out.Results[mode.String()] = res
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Experiment 2 — Table 3: hyperparameter grid during initial training

// table3Adaptations and table3Regs define the paper's grid.
var (
	table3Adaptations = []string{"adam", "rmsprop", "adadelta"}
	table3Regs        = []float64{1e-2, 1e-3, 1e-4}
)

// Table3Cell is one grid point's held-out error.
type Table3Cell struct {
	Adaptation string
	Reg        float64
	Error      float64
}

// Table3Result is the full grid for one workload.
type Table3Result struct {
	Workload string
	Metric   string
	Cells    []Table3Cell
}

// best returns the lowest-error cell for the given adaptation technique.
func (t *Table3Result) best(adaptation string) Table3Cell {
	var best Table3Cell
	first := true
	for _, c := range t.Cells {
		if c.Adaptation != adaptation {
			continue
		}
		if first || c.Error < best.Error {
			best = c
			first = false
		}
	}
	return best
}

// BestOverall returns the lowest-error cell of the whole grid.
func (t *Table3Result) BestOverall() Table3Cell {
	best := t.Cells[0]
	for _, c := range t.Cells[1:] {
		if c.Error < best.Error {
			best = c
		}
	}
	return best
}

// initialInstances preprocesses the workload's initial-training chunks with
// a fresh pipeline and splits them 80/20 into train and eval sets.
func initialInstances(w *Workload) (train, evalSet []data.Instance, err error) {
	p := w.NewPipeline()
	var all []data.Instance
	for i := 0; i < w.InitialChunks; i++ {
		ins, err := p.ProcessOnline(w.Stream.Chunk(i))
		if err != nil {
			return nil, nil, fmt.Errorf("experiment: initial chunk %d: %w", i, err)
		}
		all = append(all, ins...)
	}
	r := rand.New(rand.NewSource(99))
	r.Shuffle(len(all), func(a, b int) { all[a], all[b] = all[b], all[a] })
	cut := len(all) * 8 / 10
	return all[:cut], all[cut:], nil
}

// sgdTrain runs epochs of shuffled mini-batch SGD, one core.Step per batch
// of batchRows rows.
//
//cdml:detached an offline grid search that no request or deployment owns
func sgdTrain(m model.Model, o opt.Optimizer, train []data.Instance, epochs, batchRows int, seed int64) error {
	r := rand.New(rand.NewSource(seed))
	idx := make([]int, len(train))
	for i := range idx {
		idx[i] = i
	}
	batch := make([]data.Instance, 0, batchRows)
	for e := 0; e < epochs; e++ {
		r.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		for s := 0; s < len(idx); s += batchRows {
			end := s + batchRows
			if end > len(idx) {
				end = len(idx)
			}
			batch = batch[:0]
			for _, k := range idx[s:end] {
				batch = append(batch, train[k])
			}
			if _, err := core.Step(context.Background(), m, o, batch); err != nil {
				return err
			}
		}
	}
	return nil
}

// evaluate scores a model on instances with the workload's metric.
func evaluate(w *Workload, m model.Model, ins []data.Instance) float64 {
	met := w.NewMetric()
	for _, in := range ins {
		met.Observe(w.Predict(m, in.X), in.Y)
	}
	return met.Value()
}

// Table3 runs the grid search over learning-rate adaptation techniques and
// regularization parameters on the initial training data (paper §5.3,
// Table 3).
func Table3(w *Workload) (*Table3Result, error) {
	train, evalSet, err := initialInstances(w)
	if err != nil {
		return nil, err
	}
	out := &Table3Result{Workload: w.Name, Metric: w.MetricName}
	for _, ad := range table3Adaptations {
		for _, reg := range table3Regs {
			m := w.NewModel(reg)
			o := w.NewOptimizer(ad, w.BestLR)
			if err := sgdTrain(m, o, train, 8, 256, 5); err != nil {
				return nil, err
			}
			out.Cells = append(out.Cells, Table3Cell{
				Adaptation: ad,
				Reg:        reg,
				Error:      evaluate(w, m, evalSet),
			})
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Experiment 2 — Figure 5: adaptation techniques after deployment

// Fig5Curve is one adaptation technique's deployed quality curve.
type Fig5Curve struct {
	Adaptation string
	Reg        float64
	Curve      *eval.Series
	AvgError   float64
	FinalError float64
}

// Fig5Result holds the per-adaptation deployment curves.
type Fig5Result struct {
	Workload string
	Metric   string
	Curves   []Fig5Curve
}

// prefixStream exposes the first n chunks of a stream.
type prefixStream struct {
	core.Stream
	n int
}

func (p prefixStream) NumChunks() int { return p.n }

// Fig5 deploys the best configuration of each adaptation technique (per
// Table 3) continuously on 10% of the deployment stream (paper §5.3,
// Figure 5).
func Fig5(w *Workload, grid *Table3Result) (*Fig5Result, error) {
	n := w.InitialChunks + max(10, (w.Stream.NumChunks()-w.InitialChunks)/10)
	if n > w.Stream.NumChunks() {
		n = w.Stream.NumChunks()
	}
	out := &Fig5Result{Workload: w.Name, Metric: w.MetricName}
	for _, ad := range table3Adaptations {
		best := grid.best(ad)
		cfg := w.BaseConfig(core.ModeContinuous, 2)
		cfg.NewModel = func() model.Model { return w.NewModel(best.Reg) }
		adName := ad
		cfg.NewOptimizer = func() opt.Optimizer { return w.NewOptimizer(adName, w.BestLR) }
		res, err := deploy(cfg, prefixStream{w.Stream, n})
		if err != nil {
			return nil, fmt.Errorf("experiment: fig5 %s/%s: %w", w.Name, ad, err)
		}
		out.Curves = append(out.Curves, Fig5Curve{
			Adaptation: ad,
			Reg:        best.Reg,
			Curve:      res.ErrorCurve,
			AvgError:   res.AvgError,
			FinalError: res.FinalError,
		})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Experiment 2 — Figure 6: sampling strategies

// samplingStrategies are the three strategies the data manager offers.
var samplingStrategies = []string{"time", "window", "uniform"}

// Fig6Curve is one sampling strategy's deployed quality curve.
type Fig6Curve struct {
	Strategy   string
	Curve      *eval.Series
	AvgError   float64
	FinalError float64
}

// Fig6Result holds the per-strategy deployment curves.
type Fig6Result struct {
	Workload string
	Metric   string
	Drifting bool
	Curves   []Fig6Curve
}

// Fig6 deploys continuously with each sampling strategy (paper §5.3,
// Figure 6). On the drifting URL stream time-based sampling should win; on
// the stationary Taxi stream the strategies should tie.
func Fig6(w *Workload) (*Fig6Result, error) {
	out := &Fig6Result{Workload: w.Name, Metric: w.MetricName, Drifting: w.Drifting}
	for _, strat := range samplingStrategies {
		cfg := w.BaseConfig(core.ModeContinuous, 3)
		cfg.Sampler = w.newSampler(strat, 3)
		res, err := deploy(cfg, w.Stream)
		if err != nil {
			return nil, fmt.Errorf("experiment: fig6 %s/%s: %w", w.Name, strat, err)
		}
		out.Curves = append(out.Curves, Fig6Curve{
			Strategy:   strat,
			Curve:      res.ErrorCurve,
			AvgError:   res.AvgError,
			FinalError: res.FinalError,
		})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Experiment 3 — Table 4: materialization utilization rate μ

// Table4Row is one (strategy, materialization-rate) cell: the empirically
// measured μ and, where the paper derives one, the analytical estimate.
type Table4Row struct {
	Strategy  string
	Rate      float64 // m/n
	Empirical float64
	Theory    float64 // NaN when no closed form exists (time-based)
	HasTheory bool
}

// Table4Result holds all rows for one workload-sized simulation.
type Table4Result struct {
	N      int // total chunks
	Sample int // chunks per sampling operation
	Window int
	Rows   []Table4Row
}

// table4Rates are the materialization rates the paper reports (0.0 and 1.0
// are omitted: μ is 0 and 1 by construction).
var table4Rates = []float64{0.2, 0.6}

// Table4 measures the empirical average materialization utilization rate of
// each sampling strategy under a capacity-bounded store and compares it
// with Formulas (4) and (5) (paper §5.4, Table 4). The simulation performs
// one sampling operation per arriving chunk, with the materialized set kept
// at the newest m chunks by the store's oldest-first eviction.
func Table4(N, sampleChunks, window int) *Table4Result {
	out := &Table4Result{N: N, Sample: sampleChunks, Window: window}
	for _, strat := range samplingStrategies {
		for _, rate := range table4Rates {
			m := int(rate * float64(N))
			sampler, err := sample.New(strat, window, 17)
			if err != nil {
				panic(err)
			}
			var muSum float64
			ids := make([]data.Timestamp, 0, N)
			for n := 1; n <= N; n++ {
				ids = append(ids, data.Timestamp(n-1))
				got := sampler.Sample(ids, sampleChunks)
				hits := 0
				for _, id := range got {
					if int(id) >= n-m { // newest m are materialized
						hits++
					}
				}
				if len(got) > 0 {
					muSum += float64(hits) / float64(len(got))
				} else {
					muSum++
				}
			}
			row := Table4Row{Strategy: strat, Rate: rate, Empirical: muSum / float64(N)}
			switch strat {
			case "uniform":
				row.Theory = sample.MuUniform(N, m)
				row.HasTheory = true
			case "window":
				row.Theory = sample.MuWindow(N, m, window)
				row.HasTheory = true
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Experiment 3 — Figure 7: optimization effects on deployment cost

// fig7Rates are the materialization rates the paper sweeps.
var fig7Rates = []float64{0.0, 0.2, 0.6, 1.0}

// fig7Point is one (strategy, rate) deployment's total cost.
type fig7Point struct {
	Strategy string
	Rate     float64
	Cost     time.Duration
	Mu       float64
}

// Fig7Result holds the cost sweep plus the NoOptimization baseline.
type Fig7Result struct {
	Workload  string
	Points    []fig7Point
	NoOptCost time.Duration
}

// Fig7 sweeps the materialization rate for each sampling strategy and runs
// the NoOptimization baseline (online statistics computation and dynamic
// materialization disabled) with time-based sampling (paper §5.4,
// Figure 7).
func Fig7(w *Workload) (*Fig7Result, error) {
	out := &Fig7Result{Workload: w.Name}
	N := w.Stream.NumChunks()
	for _, strat := range samplingStrategies {
		for _, rate := range fig7Rates {
			cfg := w.BaseConfig(core.ModeContinuous, 4)
			cfg.Sampler = w.newSampler(strat, 4)
			cfg.Store = newStore(int(rate * float64(N)))
			res, err := deploy(cfg, w.Stream)
			if err != nil {
				return nil, fmt.Errorf("experiment: fig7 %s/%s/%.1f: %w", w.Name, strat, rate, err)
			}
			out.Points = append(out.Points, fig7Point{
				Strategy: strat,
				Rate:     rate,
				Cost:     res.Cost.Total(),
				Mu:       res.MatStats.Mu(),
			})
		}
	}
	cfg := w.BaseConfig(core.ModeContinuous, 4)
	cfg.NoOptimization = true
	cfg.Store = newStore(0)
	res, err := deploy(cfg, w.Stream)
	if err != nil {
		return nil, fmt.Errorf("experiment: fig7 %s/noopt: %w", w.Name, err)
	}
	out.NoOptCost = res.Cost.Total()
	return out, nil
}

// CostAt returns the measured cost for a strategy/rate pair, and false if
// absent.
func (f *Fig7Result) CostAt(strategy string, rate float64) (time.Duration, bool) {
	for _, p := range f.Points {
		//lint:allow floateq: materialization rates are exact grid constants (0.0, 0.25, ...)
		if p.Strategy == strategy && p.Rate == rate {
			return p.Cost, true
		}
	}
	return 0, false
}

// ---------------------------------------------------------------------------
// Experiment 3 discussion — Figure 8: quality vs cost trade-off

// Fig8Point is one deployment approach's (avg quality, total cost) position.
type Fig8Point struct {
	Mode     string
	AvgError float64
	Cost     time.Duration
}

// Fig8Result holds the trade-off scatter for one workload.
type Fig8Result struct {
	Workload string
	Metric   string
	Points   []Fig8Point
}

// Fig8 derives the quality/cost trade-off scatter from a Figure 4 run
// (paper §5.5, Figure 8).
func Fig8(f4 *Fig4Result) *Fig8Result {
	out := &Fig8Result{Workload: f4.Workload, Metric: f4.Metric}
	for _, mode := range []string{"online", "periodical", "continuous"} {
		res, ok := f4.Results[mode]
		if !ok {
			continue
		}
		out.Points = append(out.Points, Fig8Point{
			Mode:     mode,
			AvgError: res.AvgError,
			Cost:     res.Cost.Total(),
		})
	}
	return out
}

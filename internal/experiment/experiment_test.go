package experiment

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestParseScale(t *testing.T) {
	for _, s := range []string{"small", "medium", "full"} {
		sc, err := ParseScale(s)
		if err != nil {
			t.Fatal(err)
		}
		if sc.String() != s {
			t.Fatalf("round trip %q -> %q", s, sc.String())
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("expected error")
	}
	if Scale(9).String() == "" {
		t.Fatal("unknown scale should render")
	}
}

func TestWorkloadConstructors(t *testing.T) {
	for _, w := range []*Workload{URLWorkload(ScaleSmall), TaxiWorkload(ScaleSmall)} {
		if w.Stream.NumChunks() <= w.InitialChunks {
			t.Fatalf("%s: stream too short", w.Name)
		}
		if w.NewPipeline() == nil {
			t.Fatalf("%s: nil pipeline", w.Name)
		}
		m := w.NewModel(1e-3)
		if m == nil || m.Dim() <= 0 {
			t.Fatalf("%s: bad model", w.Name)
		}
		if w.NewMetric() == nil {
			t.Fatalf("%s: nil metric", w.Name)
		}
		if w.NewOptimizer("adam", 0.1) == nil || w.newSampler("uniform", 1) == nil {
			t.Fatalf("%s: factories failed", w.Name)
		}
	}
}

func TestWorkloadBadFactoryPanics(t *testing.T) {
	w := URLWorkload(ScaleSmall)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.NewOptimizer("bogus", 0.1)
}

func TestFig4URLShape(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment run")
	}
	w := URLWorkload(ScaleSmall)
	r, err := Fig4(w)
	if err != nil {
		t.Fatal(err)
	}
	on := r.Results["online"]
	cont := r.Results["continuous"]
	// A small-scale run takes 20–40 ms, and one sweep's wall-clock jitter can
	// exceed the margins the two cost assertions below allow (beside other
	// packages' tests they failed 10 of 23 runs with one sweep, and still
	// about one run in twenty-five with three, on two cores shared with
	// another test binary). Every approach's total cost is therefore the
	// minimum over five sweeps.
	cost := map[string]time.Duration{}
	for mode, res := range r.Results {
		cost[mode] = res.Cost.Total()
	}
	for rep := 1; rep < 5; rep++ {
		again, err := Fig4(w)
		if err != nil {
			t.Fatal(err)
		}
		for mode, res := range again.Results {
			cost[mode] = min(cost[mode], res.Cost.Total())
		}
	}
	// Shape 1: periodical is the most expensive approach. (The paper's
	// 15× gap needs the full 12,000-chunk stream; at small scale the
	// prequential serving cost, equal across approaches, dilutes the
	// ratio, so only the ordering is asserted here. EXPERIMENTS.md records
	// the medium-scale ratios.)
	if float64(cost["periodical"]) < 1.3*float64(cost["continuous"]) {
		t.Errorf("periodical cost %v not ≫ continuous %v", cost["periodical"], cost["continuous"])
	}
	// Shape 2: online is the cheapest (allow wall-clock jitter at this
	// tiny scale — the runs only take a fraction of a second).
	if float64(cost["online"]) > 1.25*float64(cost["continuous"]) {
		t.Errorf("online cost %v should be ≤ continuous %v", cost["online"], cost["continuous"])
	}
	// Shape 3: continuous quality not worse than online (drifting stream).
	if cont.AvgError > on.AvgError*1.1 {
		t.Errorf("continuous avg error %v worse than online %v", cont.AvgError, on.AvgError)
	}
	// All approaches learn something.
	for mode, res := range r.Results {
		if res.FinalError >= 0.5 {
			t.Errorf("%s error %v is no better than chance", mode, res.FinalError)
		}
	}
	if !strings.Contains(r.Render(), "Figure 4") {
		t.Error("render missing header")
	}
}

func TestFig4TaxiShape(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment run")
	}
	w := TaxiWorkload(ScaleSmall)
	r, err := Fig4(w)
	if err != nil {
		t.Fatal(err)
	}
	per := r.Results["periodical"]
	cont := r.Results["continuous"]
	if per.Cost.Total() <= cont.Cost.Total() {
		t.Errorf("periodical cost %v not > continuous %v", per.Cost.Total(), cont.Cost.Total())
	}
	// The regression must beat the label-std baseline (~0.8 in log space).
	if cont.FinalError > 0.65 {
		t.Errorf("continuous RMSLE %v too high", cont.FinalError)
	}
}

func TestTable3GridComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	w := URLWorkload(ScaleSmall)
	r, err := Table3(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != len(table3Adaptations)*len(table3Regs) {
		t.Fatalf("grid has %d cells", len(r.Cells))
	}
	for _, c := range r.Cells {
		if c.Error < 0 || c.Error > 0.6 || math.IsNaN(c.Error) {
			t.Fatalf("cell %s/%.0e error %v out of range", c.Adaptation, c.Reg, c.Error)
		}
	}
	best := r.BestOverall()
	for _, c := range r.Cells {
		if c.Error < best.Error {
			t.Fatal("BestOverall is not minimal")
		}
	}
	for _, ad := range table3Adaptations {
		b := r.best(ad)
		if b.Adaptation != ad {
			t.Fatalf("Best(%s) returned %s", ad, b.Adaptation)
		}
	}
	if !strings.Contains(r.Render(), "Table 3") {
		t.Error("render missing header")
	}
}

func TestFig5RunsAllAdaptations(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment run")
	}
	w := URLWorkload(ScaleSmall)
	grid, err := Table3(w)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Fig5(w, grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Curves) != len(table3Adaptations) {
		t.Fatalf("curves = %d", len(r.Curves))
	}
	for _, c := range r.Curves {
		if c.Curve.Len() == 0 {
			t.Fatalf("%s: empty curve", c.Adaptation)
		}
		if c.FinalError >= 0.55 {
			t.Errorf("%s: error %v no better than chance", c.Adaptation, c.FinalError)
		}
	}
	if !strings.Contains(r.Render(), "Figure 5") {
		t.Error("render missing header")
	}
}

func TestFig6SamplingShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment run")
	}
	url, err := Fig6(URLWorkload(ScaleSmall))
	if err != nil {
		t.Fatal(err)
	}
	if len(url.Curves) != 3 {
		t.Fatalf("curves = %d", len(url.Curves))
	}
	var timeErr, uniformErr float64
	for _, c := range url.Curves {
		switch c.Strategy {
		case "time":
			timeErr = c.AvgError
		case "uniform":
			uniformErr = c.AvgError
		}
	}
	// Drifting stream: time-based should not lose to uniform by much (the
	// paper finds it wins outright; at small scale we allow slack).
	if timeErr > uniformErr*1.25 {
		t.Errorf("time-based %v much worse than uniform %v on drifting stream", timeErr, uniformErr)
	}
	if !strings.Contains(url.Render(), "Figure 6") {
		t.Error("render missing header")
	}
}

func TestTable4MatchesTheory(t *testing.T) {
	r := Table4(1200, 20, 600)
	if len(r.Rows) != len(samplingStrategies)*len(table4Rates) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Empirical < 0 || row.Empirical > 1 {
			t.Fatalf("%s/%.1f: empirical μ %v out of range", row.Strategy, row.Rate, row.Empirical)
		}
		if row.HasTheory && math.Abs(row.Empirical-row.Theory) > 0.05 {
			t.Errorf("%s/%.1f: empirical %v vs theory %v", row.Strategy, row.Rate, row.Empirical, row.Theory)
		}
		// Time-based must beat uniform at the same rate (paper's finding).
		if row.Strategy == "time" {
			for _, other := range r.Rows {
				if other.Strategy == "uniform" && other.Rate == row.Rate {
					if row.Empirical < other.Empirical-0.02 {
						t.Errorf("time μ %v below uniform %v at rate %.1f", row.Empirical, other.Empirical, row.Rate)
					}
				}
			}
		}
	}
	// Window with m ≥ w gives μ = 1.
	for _, row := range r.Rows {
		if row.Strategy == "window" && row.Rate == 0.6 {
			if math.Abs(row.Empirical-1) > 1e-9 {
				t.Errorf("window μ at m≥w should be 1, got %v", row.Empirical)
			}
		}
	}
	if !strings.Contains(r.Render(), "Table 4") {
		t.Error("render missing header")
	}
}

func TestTable4PaperNumbers(t *testing.T) {
	// At the paper's own N=12000, m/n=0.2, w=6000: uniform ≈ 0.52,
	// window ≈ 0.58 (Table 4). Pure simulation, fast even at full N.
	r := Table4(12000, 50, 6000)
	for _, row := range r.Rows {
		if !row.HasTheory || row.Rate != 0.2 {
			continue
		}
		var want float64
		switch row.Strategy {
		case "uniform":
			want = 0.52
		case "window":
			want = 0.58
		}
		if math.Abs(row.Theory-want) > 0.01 {
			t.Errorf("%s theory %v, paper reports %v", row.Strategy, row.Theory, want)
		}
		if math.Abs(row.Empirical-want) > 0.03 {
			t.Errorf("%s empirical %v, paper reports %v", row.Strategy, row.Empirical, want)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("13 deployment runs")
	}
	w := URLWorkload(ScaleSmall)
	r, err := Fig7(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != len(samplingStrategies)*len(fig7Rates) {
		t.Fatalf("points = %d", len(r.Points))
	}
	// A small-scale run takes tens of milliseconds, and one sweep's wall-clock
	// jitter can exceed the gap the no-opt assertion below looks for. Every
	// configuration's total cost is therefore the minimum over three sweeps.
	for rep := 1; rep < 3; rep++ {
		again, err := Fig7(w)
		if err != nil {
			t.Fatal(err)
		}
		for i := range r.Points {
			r.Points[i].Cost = min(r.Points[i].Cost, again.Points[i].Cost)
		}
		r.NoOptCost = min(r.NoOptCost, again.NoOptCost)
	}
	// Shape: for each strategy, cost at full materialization ≤ cost at none.
	for _, strat := range samplingStrategies {
		c0, ok0 := r.CostAt(strat, 0.0)
		c1, ok1 := r.CostAt(strat, 1.0)
		if !ok0 || !ok1 {
			t.Fatalf("%s: missing sweep points", strat)
		}
		// Allow jitter: the small-scale runs take tens of milliseconds, so
		// only a clear inversion is a failure.
		if float64(c1) > 1.3*float64(c0) {
			t.Errorf("%s: cost at rate 1.0 (%v) exceeds rate 0.0 (%v)", strat, c1, c0)
		}
	}
	// Shape: NoOptimization is the most expensive configuration.
	if full, ok := r.CostAt("time", 1.0); ok && r.NoOptCost <= full {
		t.Errorf("no-opt cost %v should exceed fully optimized %v", r.NoOptCost, full)
	}
	// μ rises with the materialization rate for every strategy.
	for _, strat := range samplingStrategies {
		var prev float64 = -1
		for _, rate := range fig7Rates {
			for _, p := range r.Points {
				if p.Strategy == strat && p.Rate == rate {
					if p.Mu < prev-0.05 {
						t.Errorf("%s: μ not increasing with rate: %v after %v", strat, p.Mu, prev)
					}
					prev = p.Mu
				}
			}
		}
	}
	if !strings.Contains(r.Render(), "Figure 7") {
		t.Error("render missing header")
	}
}

func TestFig8FromFig4(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment run")
	}
	w := TaxiWorkload(ScaleSmall)
	f4, err := Fig4(w)
	if err != nil {
		t.Fatal(err)
	}
	f8 := Fig8(f4)
	if len(f8.Points) != 3 {
		t.Fatalf("points = %d", len(f8.Points))
	}
	if !strings.Contains(f8.Render(), "Figure 8") {
		t.Error("render missing header")
	}
}

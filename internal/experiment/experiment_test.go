package experiment

import (
	"bytes"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"cdml/internal/eval"
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

// small is the one run of every experiment at ScaleSmall that the shape
// tests and the EXPERIMENTS.json check read — what `go run ./cmd/experiments
// -exp all -scale small -json` prints.
var small struct {
	once sync.Once
	r    *Report
	err  error
}

// smallResult returns the result the small run filed under name.
func smallResult[T any](t *testing.T, name string) T {
	t.Helper()
	if testing.Short() {
		t.Skip("runs every experiment at small scale")
	}
	small.once.Do(func() {
		small.r, small.err = Run("all", []*Workload{URLWorkload(ScaleSmall), TaxiWorkload(ScaleSmall)})
	})
	if small.err != nil {
		t.Fatal(small.err)
	}
	res, ok := small.r.results[name].(T)
	if !ok {
		t.Fatalf("the small run has no %T under %q", res, name)
	}
	return res
}

// TestExperimentsJSON: the committed EXPERIMENTS.json is the small run's
// numbers, byte for byte.
func TestExperimentsJSON(t *testing.T) {
	smallResult[*Table4Result](t, "table4")
	got, err := small.r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../EXPERIMENTS.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		line := 0
		for line < min(len(gl), len(wl)) && gl[line] == wl[line] {
			line++
		}
		t.Fatalf("EXPERIMENTS.json differs from this build's run at line %d (%q, the run %q); "+
			"regenerate it with: go run ./cmd/experiments -exp all -scale small -json > EXPERIMENTS.json",
			line+1, at(wl, line), at(gl, line))
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of file>"
}

// The cost shapes of Figure 4 are asserted on work, the rows each approach
// handled: exact and the same on every run, where the wall clock of a
// 20–40 ms run is not.
func TestFig4URLShape(t *testing.T) {
	r := smallResult[*Fig4Result](t, "fig4-url")
	on, per, cont := r.Results["online"], r.Results["periodical"], r.Results["continuous"]
	// Shape 1: periodical is the most expensive approach, and continuous
	// costs online plus its proactive trainings: online 33 400 < continuous
	// 40 760 < periodical 65 400 rows. (The paper's 15× gap needs the full
	// 12,000-chunk stream; at small scale the per-chunk work, equal across
	// approaches, dilutes the ratio. EXPERIMENTS.md records the medium-scale
	// ratios.)
	if !(on.Cost.Work < cont.Cost.Work && cont.Cost.Work < per.Cost.Work) {
		t.Errorf("cost rows online %d, continuous %d, periodical %d: want them in that order, strictly",
			on.Cost.Work, cont.Cost.Work, per.Cost.Work)
	}
	// Shape 2: continuous quality not worse than online (drifting stream).
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
	r := smallResult[*Fig4Result](t, "fig4-taxi")
	on, per, cont := r.Results["online"], r.Results["periodical"], r.Results["continuous"]
	if !(on.Cost.Work < cont.Cost.Work && cont.Cost.Work < per.Cost.Work) {
		t.Errorf("cost rows online %d, continuous %d, periodical %d: want them in that order, strictly",
			on.Cost.Work, cont.Cost.Work, per.Cost.Work)
	}
	// The regression must beat the label-std baseline (~0.8 in log space).
	if cont.FinalError > 0.65 {
		t.Errorf("continuous RMSLE %v too high", cont.FinalError)
	}
}

func TestTable3GridComplete(t *testing.T) {
	r := smallResult[*Table3Result](t, "table3-url")
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
	r := smallResult[*Fig5Result](t, "fig5-url")
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
	url := smallResult[*Fig6Result](t, "fig6-url")
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
	// window ≈ 0.58 (Table 4).
	r := smallResult[*Table4Result](t, "table4")
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

// TestFig7Shape asserts Figure 7 on work. For url time-based sampling the
// rows at rates 0.0, 0.2, 0.6 and 1.0 are 44 440, 41 920, 40 840 and 40 760:
// every sampled chunk that is not materialized is read raw and transformed
// again. NoOptimization stores no features, so its row total (43 320) falls
// below rate 0.0's; it is the most expensive in preprocessing, the category
// its recomputed statistics charge, and in total against the fully optimized
// point.
func TestFig7Shape(t *testing.T) {
	for _, name := range []string{"fig7-url", "fig7-taxi"} {
		r := smallResult[*Fig7Result](t, name)
		if len(r.Points) != len(samplingStrategies)*len(fig7Rates) {
			t.Fatalf("%s: points = %d", name, len(r.Points))
		}
		for _, strat := range samplingStrategies {
			prev, prevMu := Cost{Work: math.MaxInt64}, -1.0
			for _, rate := range fig7Rates {
				c, ok := r.CostAt(strat, rate)
				if !ok {
					t.Fatalf("%s: %s has no point at rate %.1f", name, strat, rate)
				}
				if c.Work > prev.Work {
					t.Errorf("%s: %s costs %d rows at rate %.1f, more than %d at the rate before",
						name, strat, c.Work, rate, prev.Work)
				}
				prev = c
				// μ rises with the materialization rate.
				for _, p := range r.Points {
					if p.Strategy == strat && p.Rate == rate {
						if p.Mu < prevMu-0.05 {
							t.Errorf("%s: %s μ not increasing with rate: %v after %v", name, strat, p.Mu, prevMu)
						}
						prevMu = p.Mu
					}
				}
			}
		}
		for _, p := range r.Points {
			if noOpt, opt := r.NoOptCost.Rows[eval.CatPreprocess], p.Cost.Rows[eval.CatPreprocess]; noOpt <= opt {
				t.Errorf("%s: no-opt preprocesses %d rows, not more than %s at rate %.1f (%d)",
					name, noOpt, p.Strategy, p.Rate, opt)
			}
		}
		if full, _ := r.CostAt("time", 1.0); r.NoOptCost.Work <= full.Work {
			t.Errorf("%s: no-opt cost %d rows should exceed fully optimized %d", name, r.NoOptCost.Work, full.Work)
		}
		if !strings.Contains(r.Render(), "Figure 7") {
			t.Errorf("%s: render missing header", name)
		}
	}
}

func TestFig8FromFig4(t *testing.T) {
	f8 := smallResult[*Fig8Result](t, "fig8-taxi")
	if len(f8.Points) != 3 {
		t.Fatalf("points = %d", len(f8.Points))
	}
	if !strings.Contains(f8.Render(), "Figure 8") {
		t.Error("render missing header")
	}
}

package experiment

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"cdml/internal/eval"
)

// renderCurve prints a downsampled series as "x:y" pairs.
func renderCurve(b *strings.Builder, s *eval.Series, points int) {
	d := s.Downsample(points)
	fmt.Fprintf(b, "  %-22s", s.Name)
	for i := 0; i < d.Len(); i++ {
		fmt.Fprintf(b, " %6.0f:%-8.4f", d.Xs[i], d.Ys[i])
	}
	b.WriteByte('\n')
}

// Render prints the Figure 4 quality and cost summaries.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 — deployment approaches (%s, metric=%s)\n", r.Workload, r.Metric)
	modes := []string{"online", "periodical", "continuous"}
	fmt.Fprintf(&b, "%-12s %12s %12s %12s %10s %12s %10s\n",
		"approach", "final-error", "avg-error", "cost-rows", "cost", "proactive", "retrains")
	for _, m := range modes {
		res, ok := r.Results[m]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%-12s %12.4f %12.4f %12d %10v %12d %10d\n",
			m, res.FinalError, res.AvgError, res.Cost.Work, res.Cost.Time.Round(time.Millisecond),
			res.ProactiveRuns, res.Retrains)
	}
	on, per, cont := r.Results["online"], r.Results["periodical"], r.Results["continuous"]
	if on != nil && per != nil && cont != nil {
		fmt.Fprintf(&b, "cost ratios (rows / time): periodical/continuous=%.2fx / %.2fx continuous/online=%.2fx / %.2fx\n",
			ratio(per.Cost.Work, cont.Cost.Work), ratio(per.Cost.Time, cont.Cost.Time),
			ratio(cont.Cost.Work, on.Cost.Work), ratio(cont.Cost.Time, on.Cost.Time))
		// §5.5 staleness: one proactive training vs one retraining.
		fmt.Fprintf(&b, "avg training event: proactive=%v retraining=%v\n",
			cont.AvgProactive.Round(time.Microsecond), per.AvgRetrain.Round(time.Millisecond))
	}
	b.WriteString("error-over-time (chunk:error):\n")
	for _, m := range modes {
		if res, ok := r.Results[m]; ok {
			renderCurve(&b, res.ErrorCurve, 8)
		}
	}
	b.WriteString("cost-over-time (chunk:seconds):\n")
	for _, m := range modes {
		if res, ok := r.Results[m]; ok {
			renderCurve(&b, res.CostCurve, 8)
		}
	}
	return b.String()
}

func ratio[T int64 | time.Duration](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Render prints the Table 3 grid in the paper's layout (adaptation rows ×
// regularization columns; best per row marked with *).
func (t *Table3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3 — hyperparameter grid, initial training (%s, metric=%s)\n", t.Workload, t.Metric)
	fmt.Fprintf(&b, "%-10s", "adaptation")
	for _, reg := range table3Regs {
		fmt.Fprintf(&b, " %12.0e", reg)
	}
	b.WriteByte('\n')
	for _, ad := range table3Adaptations {
		fmt.Fprintf(&b, "%-10s", ad)
		best := t.best(ad)
		for _, reg := range table3Regs {
			for _, c := range t.Cells {
				//lint:allow floateq: cell lookup by the exact grid constant it was built from
				if c.Adaptation == ad && c.Reg == reg {
					mark := " "
					//lint:allow floateq: marks the identical best cell, not a nearly-equal one
					if c.Reg == best.Reg && c.Error == best.Error {
						mark = "*"
					}
					fmt.Fprintf(&b, " %11.5f%s", c.Error, mark)
				}
			}
		}
		b.WriteByte('\n')
	}
	ov := t.BestOverall()
	fmt.Fprintf(&b, "best overall: %s reg=%.0e error=%.5f\n", ov.Adaptation, ov.Reg, ov.Error)
	return b.String()
}

// Render prints the Figure 5 per-adaptation deployment summary.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 — adaptation techniques after deployment (%s, metric=%s)\n", r.Workload, r.Metric)
	fmt.Fprintf(&b, "%-10s %10s %12s %12s\n", "adaptation", "reg", "avg-error", "final-error")
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "%-10s %10.0e %12.4f %12.4f\n", c.Adaptation, c.Reg, c.AvgError, c.FinalError)
	}
	b.WriteString("error-over-time (chunk:error):\n")
	for _, c := range r.Curves {
		renderCurve(&b, c.Curve, 8)
	}
	return b.String()
}

// Render prints the Figure 6 per-strategy deployment summary.
func (r *Fig6Result) Render() string {
	var b strings.Builder
	kind := "stationary"
	if r.Drifting {
		kind = "drifting"
	}
	fmt.Fprintf(&b, "Figure 6 — sampling strategies (%s, %s stream, metric=%s)\n", r.Workload, kind, r.Metric)
	fmt.Fprintf(&b, "%-10s %12s %12s\n", "strategy", "avg-error", "final-error")
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "%-10s %12.4f %12.4f\n", c.Strategy, c.AvgError, c.FinalError)
	}
	b.WriteString("error-over-time (chunk:error):\n")
	for _, c := range r.Curves {
		renderCurve(&b, c.Curve, 8)
	}
	return b.String()
}

// Render prints Table 4 in the paper's layout: empirical μ with the
// theoretical estimate in parentheses where a closed form exists.
func (t *Table4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4 — materialization utilization μ (N=%d, s=%d, w=%d)\n", t.N, t.Sample, t.Window)
	fmt.Fprintf(&b, "%-14s", "sampling")
	for _, rate := range table4Rates {
		fmt.Fprintf(&b, " %18s", fmt.Sprintf("m/n=%.1f", rate))
	}
	b.WriteByte('\n')
	strategies := []string{"uniform", "window", "time"}
	byKey := map[string]Table4Row{}
	for _, row := range t.Rows {
		byKey[fmt.Sprintf("%s/%.1f", row.Strategy, row.Rate)] = row
	}
	for _, s := range strategies {
		fmt.Fprintf(&b, "%-14s", s)
		for _, rate := range table4Rates {
			row, ok := byKey[fmt.Sprintf("%s/%.1f", s, rate)]
			if !ok {
				fmt.Fprintf(&b, " %18s", "-")
				continue
			}
			if row.HasTheory {
				fmt.Fprintf(&b, " %9.2f (%5.2f)", row.Empirical, row.Theory)
			} else {
				fmt.Fprintf(&b, " %9.2f        ", row.Empirical)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Render prints the Figure 7 cost sweep.
func (r *Fig7Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 — optimization effects on deployment cost (%s)\n", r.Workload)
	fmt.Fprintf(&b, "%-10s", "strategy")
	for _, rate := range fig7Rates {
		fmt.Fprintf(&b, " %14s", fmt.Sprintf("m/n=%.1f", rate))
	}
	b.WriteByte('\n')
	b.WriteString("(rows / time)\n")
	strategies := []string{"time", "window", "uniform"}
	for _, s := range strategies {
		fmt.Fprintf(&b, "%-10s", s)
		for _, rate := range fig7Rates {
			if c, ok := r.CostAt(s, rate); ok {
				fmt.Fprintf(&b, " %14s", fig7Cell(c))
			} else {
				fmt.Fprintf(&b, " %14s", "-")
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-10s %14s\n", "no-opt", fig7Cell(r.NoOptCost))
	if full, ok := r.CostAt("time", 1.0); ok {
		fmt.Fprintf(&b, "no-opt vs fully optimized (rows / time): %+.0f%% / %+.0f%%; preprocess rows %+.0f%%\n",
			100*(ratio(r.NoOptCost.Work, full.Work)-1), 100*(ratio(r.NoOptCost.Time, full.Time)-1),
			100*(ratio(r.NoOptCost.Rows[eval.CatPreprocess], full.Rows[eval.CatPreprocess])-1))
	}
	return b.String()
}

// fig7Cell prints one Figure 7 cost as rows / time.
func fig7Cell(c Cost) string {
	return fmt.Sprintf("%d/%v", c.Work, c.Time.Round(time.Millisecond))
}

// Render prints the Figure 8 trade-off scatter.
func (r *Fig8Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8 — quality vs cost trade-off (%s, metric=%s)\n", r.Workload, r.Metric)
	pts := append([]Fig8Point(nil), r.Points...)
	sort.Slice(pts, func(a, c int) bool { return pts[a].Cost.Work < pts[c].Cost.Work })
	fmt.Fprintf(&b, "%-12s %12s %12s %10s\n", "approach", "avg-error", "cost-rows", "cost")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-12s %12.4f %12d %10v\n", p.Mode, p.AvgError, p.Cost.Work, p.Cost.Time.Round(time.Millisecond))
	}
	return b.String()
}

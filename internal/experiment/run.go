package experiment

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
)

// names are the experiments Run knows, besides "all", in the order it runs
// them.
var names = []string{"ext", "table4", "fig4", "table3", "fig5", "fig6", "fig7", "fig8"}

// renderer is every experiment's result.
type renderer interface{ Render() string }

// Report is one Run: every result it produced, each under its own name
// ("ext-velox", "table4", "fig4-url", ...), in the order they ran.
type Report struct {
	order   []string
	results map[string]renderer
}

func (r *Report) add(name string, res renderer) {
	r.order = append(r.order, name)
	r.results[name] = res
}

// Render prints every result in the order it ran.
func (r *Report) Render() string {
	var b strings.Builder
	for _, name := range r.order {
		b.WriteString(r.results[name].Render())
		b.WriteByte('\n')
	}
	return b.String()
}

// JSON returns every result's numbers, keyed and sorted by name. It holds no
// wall-clock value, so two runs of one build on one architecture write the
// same bytes: EXPERIMENTS.json is Run("all") at ScaleSmall.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r.results, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Run runs the experiment exp — one of fig4, table3, fig5, fig6, table4,
// fig7, fig8, ext, or all — over the workloads, each experiment once: Figure
// 5 reads the grid Table 3 searched, and Figure 8 the Figure 4 deployments.
// Table 4 and the extensions take no workload; Table 4 is a pure sampling
// simulation and runs at the paper's own size.
func Run(exp string, workloads []*Workload) (*Report, error) {
	want := func(name string) bool { return exp == "all" || exp == name }
	if exp != "all" && !slices.Contains(names, exp) {
		return nil, fmt.Errorf("experiment: unknown experiment %q; choose one of %s|all", exp, strings.Join(names, "|"))
	}
	r := &Report{results: map[string]renderer{}}
	if want("ext") {
		drift, err := ExtDrift()
		if err != nil {
			return nil, err
		}
		r.add("ext-drift", drift)
		recsys, err := ExtRecsys()
		if err != nil {
			return nil, err
		}
		r.add("ext-recsys", recsys)
		velox, err := ExtVelox()
		if err != nil {
			return nil, err
		}
		r.add("ext-velox", velox)
	}
	if want("table4") {
		r.add("table4", Table4(12000, 50, 6000))
	}
	for _, w := range workloads {
		if err := r.runWorkload(w, want); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// runWorkload adds the wanted figures and tables of one workload.
func (r *Report) runWorkload(w *Workload, want func(string) bool) error {
	var fig4 *Fig4Result
	if want("fig4") || want("fig8") {
		var err error
		if fig4, err = Fig4(w); err != nil {
			return err
		}
	}
	if want("fig4") {
		r.add("fig4-"+w.Name, fig4)
	}
	var grid *Table3Result
	if want("table3") || want("fig5") {
		var err error
		if grid, err = Table3(w); err != nil {
			return err
		}
	}
	if want("table3") {
		r.add("table3-"+w.Name, grid)
	}
	if want("fig5") {
		fig5, err := Fig5(w, grid)
		if err != nil {
			return err
		}
		r.add("fig5-"+w.Name, fig5)
	}
	if want("fig6") {
		fig6, err := Fig6(w)
		if err != nil {
			return err
		}
		r.add("fig6-"+w.Name, fig6)
	}
	if want("fig7") {
		fig7, err := Fig7(w)
		if err != nil {
			return err
		}
		r.add("fig7-"+w.Name, fig7)
	}
	if want("fig8") {
		r.add("fig8-"+w.Name, Fig8(fig4))
	}
	return nil
}

// Command benchmark is the repository's system benchmark: it boots the real
// cdml-serve binary as a child process, drives it over HTTP through rounds
// of predict-only, synchronous-training and mixed ingest+predict windows
// per workload, measuring the machine's own speed in between, checks every
// answer, crashes and recovers the server, and prints each metric by name
// with its unit. With -trace 1 (or -layers) it also times calls into each
// package's public functions in-process and itemises a predict and a
// training tick layer by layer. README.md in this directory documents every metric;
// BENCHMARK.json at the repository root is the machine-readable contract.
//
//	bash benchmark/run.sh                         # every workload, end-to-end table
//	bash benchmark/run.sh -workload url-b1        # one workload
//	bash benchmark/run.sh -layers                 # in-process per-layer bill + span file
//	bash benchmark/run.sh -repeat 10              # spread of every metric against its bound
//	bash benchmark/run.sh --workload url-b1 --seed 3 --seconds 39 --trace 0   # driver form
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
)

// contract is BENCHMARK.json as far as this program reads it.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract(root string) (*contract, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

func main() {
	os.Exit(run())
}

// Exit codes: 0 every answer correct; 1 a correctness check or an operation
// failed (numbers are still printed); 2 the run could not be carried out.
func run() int {
	var (
		workloadName = flag.String("workload", "", "run only this workload (default: every workload)")
		seed         = flag.Int64("seed", 1, "seed of the payload streams")
		seconds      = flag.Int("seconds", 0, "measured seconds per run: a third of them, in one-second windows, for each of the three traffic classes (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
		layersOnly   = flag.Bool("layers", false, "run only the in-process per-layer measurement and write the span file")
		repeat       = flag.Int("repeat", 1, "run N complete sets on seeds seed … seed+N-1 and print each metric's spread against its bound")
		spansPath    = flag.String("spans", "", "where the in-process spans are written (default: <work dir>/spans.json)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		return 2
	}

	root, err := findRepoRoot()
	if err != nil {
		return fatal(err)
	}
	spec, err := readContract(root)
	if err != nil {
		return fatal(err)
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	// Everything the benchmark writes — the server binary, data directories,
	// the span file — stays inside the checkout.
	workDir := filepath.Join(root, ".bench_build", "cdml-benchmark")
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return fatal(err)
	}
	if *spansPath == "" {
		*spansPath = filepath.Join(workDir, "spans.json")
	}
	// A benchmark that was SIGKILLed could not remove its data directories
	// (its server died with it); runs in one checkout are sequential, so
	// whatever is here now is such debris.
	for _, pattern := range []string{"run-*", "layers-*"} {
		stale, _ := filepath.Glob(filepath.Join(workDir, pattern))
		for _, dir := range stale {
			_ = os.RemoveAll(dir)
		}
	}

	selected := workloads
	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			return fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		selected = []workload{w}
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if *layersOnly {
		layers, err := runLayers(workDir, *spansPath, fullLayers)
		if err != nil {
			return fatal(err)
		}
		printValues("per-layer, in-process (spans in "+*spansPath+")", layers)
		return 0
	}

	bin, err := buildServer(ctx, root, workDir)
	if err != nil {
		return fatal(err)
	}
	env := &runEnv{serverBin: bin, workDir: workDir}
	// A signal cancels ctx; the run in flight then fails at its next step
	// and its deferred cleanup reaps the server and removes its directories.
	defer env.cleanup()

	exit := 0
	var all []*runResult
	for r := 0; r < *repeat; r++ {
		for _, w := range selected {
			if ctx.Err() != nil {
				return fatal(ctx.Err())
			}
			res, err := runWorkload(ctx, env, w, *seed+int64(r), fullRun(*seconds))
			if err != nil {
				if res != nil {
					printOps(res)
				}
				return fatal(fmt.Errorf("workload %s: %w", w.name, err))
			}
			if *trace == 1 {
				layers, err := runLayers(workDir, *spansPath, fullLayers)
				if err != nil {
					return fatal(err)
				}
				addDerived(res, layers, w)
			}
			printResult(res, *seed+int64(r), *seconds)
			if res.failed() > 0 {
				exit = 1
			}
			all = append(all, res)
		}
	}
	if *repeat > 1 {
		printSpread(all, spec)
	}
	if len(all) == 1 {
		// The driver's form: the last line of standard output is the result.
		if err := printResultLine(all[0], spec, *trace == 1); err != nil {
			return fatal(err)
		}
	}
	return exit
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

// addDerived merges the in-process layer numbers into a traced run's result
// and computes the one metric that needs both sides: the part of a 1-row
// predict's wire time the program cannot touch.
func addDerived(res *runResult, layers map[string]value, w workload) {
	for k, v := range layers {
		res.perLayer[k] = v
	}
	shape := fmt.Sprintf("%s_b%d", w.pipeline, w.batch)
	if h, ok := layers["serve.handler_us."+shape]; ok {
		wire := res.perLayer["raw.predict_p50_ms"] // as measured: the handler was timed on this machine too
		res.perLayer["serve.http_overhead_us"] = value{v: wire.v*1e3 - h.v, unit: "us", n: wire.n}
	}
}

func printValues(title string, m map[string]value) {
	fmt.Printf("## %s\n", title)
	for _, k := range slices.Sorted(maps.Keys(m)) {
		v := m[k]
		if v.n > 0 {
			fmt.Printf("  %-44s %14.4f %-6s (n=%d)\n", k, v.v, v.unit, v.n)
		} else {
			fmt.Printf("  %-44s %14.4f %s\n", k, v.v, v.unit)
		}
	}
}

func printOps(res *runResult) {
	fmt.Printf("## operations, workload %s\n", res.workload)
	for _, o := range res.ops {
		fmt.Printf("  %-14s attempted %7d  succeeded %7d  failed %5d\n", o.kind, o.attempted, o.attempted-o.failed, o.failed)
		if o.firstErr != nil {
			fmt.Printf("  %-14s first failure: %v\n", "", o.firstErr)
		}
	}
}

func printResult(res *runResult, seed int64, seconds int) {
	fmt.Printf("# workload %s  seed %d  seconds %d\n", res.workload, seed, seconds)
	printValues("end to end", res.endToEnd)
	printValues("per layer", res.perLayer)
	printOps(res)
	for _, n := range res.notes {
		fmt.Println("  note:", n)
	}
}

// printSpread reports, per workload and end-to-end metric, the median and
// quartiles over the repeated sets and the interquartile distance as a
// share of the median, next to the metric's regression bound.
func printSpread(all []*runResult, spec *contract) {
	fmt.Println("# repeatability: metric, runs, q1, median, q3, spread = (q3-q1)/median, bound; and the spread of the same figure as measured, before scaling to reference machine speed")
	byWorkload := map[string][]*runResult{}
	var order []string
	for _, r := range all {
		if _, seen := byWorkload[r.workload]; !seen {
			order = append(order, r.workload)
		}
		byWorkload[r.workload] = append(byWorkload[r.workload], r)
	}
	for _, w := range order {
		fmt.Printf("## workload %s\n", w)
		for _, m := range spec.EndToEnd {
			var vals, raw []float64
			for _, r := range byWorkload[w] {
				vals = append(vals, r.endToEnd[m.Name].v)
				raw = append(raw, r.perLayer["raw."+m.Name].v)
			}
			q1, q3 := quartiles(vals)
			sp := spread(vals)
			verdict := "ok"
			switch {
			case sp > m.Bound:
				verdict = "EXCEEDS BOUND"
			case sp > m.Bound/3:
				verdict = "above a third of the bound"
			}
			fmt.Printf("  %-22s n=%-3d %12.4f %12.4f %12.4f %-5s spread %6.2f%%  bound %5.1f%%  %-26s  as measured %6.2f%%\n",
				m.Name, len(vals), q1, median(vals), q3, m.Unit, 100*sp, 100*m.Bound, verdict, 100*spread(raw))
		}
	}
}

// printResultLine prints the driver's result object: the metrics named in
// BENCHMARK.json for the requested tier, no more and no fewer.
func printResultLine(res *runResult, spec *contract, traced bool) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]jsonMetric{}
	put := func(name, unit string, from map[string]value) error {
		v, ok := from[name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json names metric %s, which this run did not produce", name)
		}
		if v.unit != unit {
			return fmt.Errorf("metric %s is in %s, BENCHMARK.json says %s", name, v.unit, unit)
		}
		metrics[name] = jsonMetric{Value: v.v, Unit: unit}
		return nil
	}
	if traced {
		for _, m := range spec.PerLayer {
			if err := put(m.Name, m.Unit, res.perLayer); err != nil {
				return err
			}
		}
	} else {
		for _, m := range spec.EndToEnd {
			if err := put(m.Name, m.Unit, res.endToEnd); err != nil {
				return err
			}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.failed() == 0, res.attempted(), res.failed(), metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// Command cdml-bench records and gates the repo's benchmark trajectory.
//
// The repo commits one BENCH_<pr>.json per PR: the hot-path benchmark
// suite's ns/op, B/op, and allocs/op at that point in history. cdml-bench
// runs the suite (or parses an existing `go test -bench` output via
// -input), and either records a new baseline or compares the run against
// the newest committed baseline, exiting non-zero with a report when a
// hot-path benchmark regressed beyond threshold:
//
//	cdml-bench -record -pr 7            # write BENCH_7.json
//	cdml-bench -compare                 # CI gate against newest BENCH_*.json
//	cdml-bench -compare -input out.txt  # gate a pre-recorded run
//
// Every benchmark runs five times and its rows fold into one: the median
// ns/op and its quartiles, allocs/op only if the runs agree on it. The gate
// compares medians, and a row whose interquartile range is wider than the
// threshold's margin is reported unresolved instead of passed or failed.
//
// Gating policy: allocs/op is hardware-independent and gated strictly
// (any new allocation on a previously allocation-free benchmark fails);
// ns/op is gated with a deliberately generous default threshold because
// committed baselines and CI runners are different machines — the gate
// catches step-change regressions (an accidental O(n²), a lock on the hot
// path), not single-digit-percent noise.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"cdml/internal/benchfmt"
)

// defaultBench selects the gated hot-path suite: the fast micro-benchmarks
// guarding serving-path and training-kernel cost. The heavy experiment
// reproductions (Fig4..Fig8, Table3/4, ablations, end-to-end) are excluded —
// they measure science, run minutes, and would drown the gate in noise.
const defaultBench = "BenchmarkObsCounterInc|BenchmarkObsHistogramObserve|BenchmarkSparseDot|" +
	"BenchmarkPipelineProcessOnline|BenchmarkPipelineProcessServeTaxi256|" +
	"BenchmarkProactiveTrainingIteration|BenchmarkMFUpdate|" +
	"BenchmarkKMeansUpdate|BenchmarkStorePutGet|BenchmarkDriftDetectorObserve|" +
	"BenchmarkServePredictRouted|BenchmarkServePredictTaxiBatch256|BenchmarkReplicaPredict|" +
	"BenchmarkIngestAppend|BenchmarkIngestTickURL|BenchmarkIngestTickTaxi|" +
	"BenchmarkSnapshotFrameURL|BenchmarkSnapshotApplyURL|BenchmarkWarmup"

// runsPerBench is the go test -count: enough runs for a median and its
// quartiles (the 2nd, 3rd and 4th of five).
const runsPerBench = "5"

func main() {
	var (
		bench       = flag.String("bench", defaultBench, "benchmark regex passed to go test -bench")
		benchtime   = flag.String("benchtime", "100ms", "go test -benchtime per benchmark")
		pkg         = flag.String("pkg", ".", "package pattern holding the benchmarks")
		pr          = flag.Int("pr", 0, "PR number for -record (names BENCH_<pr>.json)")
		record      = flag.Bool("record", false, "record a new baseline instead of comparing")
		compare     = flag.Bool("compare", false, "compare against the newest committed baseline; exit 1 on regression")
		input       = flag.String("input", "", "parse this go test -bench output file instead of running the suite")
		out         = flag.String("out", "", "output path for -record (default BENCH_<pr>.json in -baseline-dir)")
		nsThresh    = flag.Float64("threshold", 1.5, "ns/op regression threshold as a ratio (current/baseline)")
		allocThresh = flag.Float64("alloc-threshold", 1.25, "allocs/op regression threshold as a ratio")
		baselineDir = flag.String("baseline-dir", ".", "directory holding the committed BENCH_*.json files")
	)
	flag.Parse()
	if *record == *compare {
		fatal("exactly one of -record or -compare is required")
	}
	if *record && *pr <= 0 {
		fatal("-record requires -pr <n>")
	}

	runs, err := runOrParse(*input, *bench, *benchtime, *pkg)
	if err != nil {
		fatal("%v", err)
	}
	results, err := benchfmt.Fold(runs)
	if err != nil {
		fatal("%v", err)
	}
	if len(results) == 0 {
		fatal("no benchmark results (regex %q matched nothing?)", *bench)
	}
	fmt.Printf("collected %d benchmark results (%d runs)\n", len(results), len(runs))
	baseline := func(pr int) *benchfmt.Baseline {
		return &benchfmt.Baseline{
			PR:         pr,
			RecordedAt: time.Now().UTC().Format(time.RFC3339),
			GoVersion:  runtime.Version(),
			Benchtime:  *benchtime,
			Benchmarks: results,
		}
	}

	if *record {
		path := *out
		if path == "" {
			path = filepath.Join(*baselineDir, fmt.Sprintf("BENCH_%d.json", *pr))
		}
		if err := benchfmt.WriteBaseline(path, baseline(*pr)); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("recorded baseline %s (%d benchmarks)\n", path, len(results))
		return
	}

	name, base, err := benchfmt.NewestBaseline(*baselineDir)
	if err != nil {
		fatal("%v", err)
	}
	if base == nil {
		fatal("no committed BENCH_*.json baseline in %s; record one with -record -pr <n>", *baselineDir)
	}
	if *out != "" {
		// Persist the current run alongside the verdict (CI uploads it as an
		// artifact, giving every run a durable perf record).
		if err := benchfmt.WriteBaseline(*out, baseline(base.PR)); err != nil {
			fatal("%v", err)
		}
	}
	regs, unresolved := benchfmt.Compare(base, results, *nsThresh, *allocThresh)
	fmt.Printf("compared against %s (PR %d, recorded %s, %s)\n",
		name, base.PR, base.RecordedAt, base.GoVersion)
	for _, r := range unresolved {
		fmt.Printf("unresolved, ns/op neither passed nor failed: %s median %.6g, quartiles %.6g–%.6g\n",
			r.Name, r.NsPerOp, r.NsP25, r.NsP75)
	}
	if len(regs) == 0 {
		fmt.Printf("bench-gate OK: no regression beyond %.2fx ns/op / %.2fx allocs/op across %d benchmarks (%d unresolved on ns/op)\n",
			*nsThresh, *allocThresh, len(results), len(unresolved))
		return
	}
	fmt.Fprintf(os.Stderr, "bench-gate FAILED: %d regression(s) against %s:\n", len(regs), name)
	for _, r := range regs {
		fmt.Fprintf(os.Stderr, "  %s\n", r)
	}
	fmt.Fprintf(os.Stderr, "thresholds: ns/op > %.2fx, allocs/op > %.2fx (0→any always fails)\n",
		*nsThresh, *allocThresh)
	os.Exit(1)
}

// runOrParse produces benchmark results either by parsing a pre-recorded
// output file or by shelling out to go test.
func runOrParse(input, bench, benchtime, pkg string) ([]benchfmt.Result, error) {
	if input != "" {
		f, err := os.Open(input)
		if err != nil {
			return nil, err
		}
		defer func() { _ = f.Close() }()
		return benchfmt.Parse(f)
	}
	args := []string{"test", "-run", "^$", "-bench", bench, "-benchtime", benchtime, "-count", runsPerBench, "-benchmem", pkg}
	fmt.Printf("running: go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		// Show what the suite printed before dying — the parse error alone
		// ("no results") would hide a compile failure.
		os.Stderr.Write(outBytes)
		return nil, fmt.Errorf("go test -bench: %w", err)
	}
	return benchfmt.Parse(strings.NewReader(string(outBytes)))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cdml-bench: "+format+"\n", args...)
	os.Exit(1)
}

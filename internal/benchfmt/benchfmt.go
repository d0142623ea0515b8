// Package benchfmt parses `go test -bench` output and manages the repo's
// committed benchmark trajectory: one BENCH_<pr>.json baseline per PR,
// recording ns/op, B/op, and allocs/op for the hot-path benchmark suite.
// cmd/cdml-bench uses it to record new baselines and to gate CI on
// regressions against the newest committed one.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped
	// (BenchmarkFoo-8 → BenchmarkFoo), so baselines compare across machines
	// with different core counts.
	Name string `json:"name"`
	// N is the iteration count the timing was measured over.
	N int64 `json:"n"`
	// NsPerOp is nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp is heap bytes allocated per operation (-benchmem).
	BytesPerOp float64 `json:"bytes_per_op"`
	// AllocsPerOp is heap allocations per operation (-benchmem).
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds any additional unit→value pairs the benchmark reported
	// via b.ReportMetric.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// benchLine matches "BenchmarkName-8   1000  1234 ns/op  56 B/op ..." —
// a name starting with Benchmark, an iteration count, then value/unit pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.+)$`)

// gomaxprocsSuffix strips the trailing -N processor count from a name.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// Parse reads `go test -bench` output and returns every benchmark result in
// order of appearance. Non-benchmark lines (PASS, ok, logs) are skipped.
func Parse(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		n, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		res := Result{Name: gomaxprocsSuffix.ReplaceAllString(m[1], ""), N: n}
		fields := strings.Fields(m[3])
		// Value/unit pairs: "1234 ns/op 56 B/op 7 allocs/op ...".
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchfmt: %s: bad value %q", res.Name, fields[i])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			default:
				if res.Metrics == nil {
					res.Metrics = make(map[string]float64)
				}
				res.Metrics[unit] = v
			}
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchfmt: scanning: %w", err)
	}
	return out, nil
}

// Baseline is one committed benchmark snapshot (BENCH_<pr>.json).
type Baseline struct {
	// PR is the pull-request sequence number the snapshot was recorded for.
	PR int `json:"pr"`
	// RecordedAt is an RFC 3339 timestamp of the recording run.
	RecordedAt string `json:"recorded_at"`
	// GoVersion is the toolchain that produced the numbers.
	GoVersion string `json:"go_version"`
	// Benchtime is the -benchtime the suite ran with.
	Benchtime string `json:"benchtime"`
	// Benchmarks holds the results keyed by nothing — a sorted list, stable
	// for diffs.
	Benchmarks []Result `json:"benchmarks"`
}

// WriteBaseline writes b as indented JSON to path (stable key order via the
// sorted benchmark list).
func WriteBaseline(path string, b *Baseline) error {
	sort.Slice(b.Benchmarks, func(i, j int) bool { return b.Benchmarks[i].Name < b.Benchmarks[j].Name })
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return fmt.Errorf("benchfmt: encoding baseline: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readBaseline loads a BENCH_<pr>.json file.
func readBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchfmt: reading baseline: %w", err)
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("benchfmt: %s: %w", filepath.Base(path), err)
	}
	return &b, nil
}

// baselineName matches committed baseline files.
var baselineName = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// NewestBaseline returns the committed baseline with the highest PR number
// in dir, or ("", nil) when none exists. The filename's number wins over the
// recorded PR field so a mislabeled file cannot shadow newer history.
func NewestBaseline(dir string) (string, *Baseline, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", nil, fmt.Errorf("benchfmt: listing %s: %w", dir, err)
	}
	best, bestPR := "", -1
	for _, e := range entries {
		m := baselineName.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		pr, err := strconv.Atoi(m[1])
		if err != nil || pr <= bestPR {
			continue
		}
		best, bestPR = e.Name(), pr
	}
	if best == "" {
		return "", nil, nil
	}
	b, err := readBaseline(filepath.Join(dir, best))
	if err != nil {
		return "", nil, err
	}
	return best, b, nil
}

// Regression is one benchmark that got worse beyond the gate's threshold.
type Regression struct {
	Name string
	// Dimension is "ns/op" or "allocs/op".
	Dimension string
	Base, Cur float64
	// Ratio is Cur/Base (+Inf-like large values are reported as Cur when
	// Base is 0).
	Ratio float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %s %.6g → %.6g (%.2fx)", r.Name, r.Dimension, r.Base, r.Cur, r.Ratio)
}

// Compare diffs current results against a baseline and returns the
// regressions. ns/op is gated with nsThreshold (a ratio; e.g. 1.5 fails a
// 50% slowdown) — generous thresholds absorb cross-machine noise, since
// committed baselines and CI runners differ in hardware. allocs/op is
// hardware-independent and gated with allocThreshold; a benchmark going from
// 0 allocs/op to any allocation always fails, because zero-allocation
// guarantees on the hot path are absolute, not proportional. Benchmarks
// present only on one side are ignored (new benchmarks are not regressions;
// removed ones are caught in review).
func Compare(base *Baseline, cur []Result, nsThreshold, allocThreshold float64) []Regression {
	baseBy := make(map[string]Result, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}
	var regs []Regression
	for _, c := range cur {
		b, ok := baseBy[c.Name]
		if !ok {
			continue
		}
		if b.NsPerOp > 0 && c.NsPerOp/b.NsPerOp > nsThreshold {
			regs = append(regs, Regression{
				Name: c.Name, Dimension: "ns/op",
				Base: b.NsPerOp, Cur: c.NsPerOp, Ratio: c.NsPerOp / b.NsPerOp,
			})
		}
		switch {
		//lint:allow floateq: allocs/op is an integer count; 0 is exact
		case b.AllocsPerOp == 0 && c.AllocsPerOp > 0:
			regs = append(regs, Regression{
				Name: c.Name, Dimension: "allocs/op",
				Base: 0, Cur: c.AllocsPerOp, Ratio: c.AllocsPerOp,
			})
		case b.AllocsPerOp > 0 && c.AllocsPerOp/b.AllocsPerOp > allocThreshold:
			regs = append(regs, Regression{
				Name: c.Name, Dimension: "allocs/op",
				Base: b.AllocsPerOp, Cur: c.AllocsPerOp, Ratio: c.AllocsPerOp / b.AllocsPerOp,
			})
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Name != regs[j].Name {
			return regs[i].Name < regs[j].Name
		}
		return regs[i].Dimension < regs[j].Dimension
	})
	return regs
}

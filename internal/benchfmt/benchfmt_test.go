package benchfmt

import (
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: cdml/internal/obs
cpu: AMD EPYC 7B13
BenchmarkObsCounterInc-8            	798504354	         1.504 ns/op	       0 B/op	       0 allocs/op
BenchmarkObsHistogramObserve-8      	166352880	         7.211 ns/op	       0 B/op	       0 allocs/op
BenchmarkSparseDot/dim=1024-8       	  123456	      9876 ns/op	     128 B/op	       2 allocs/op
BenchmarkCustomMetric-8             	    1000	   1200000 ns/op	        42.50 items/s
PASS
ok  	cdml/internal/obs	12.345s
`

func TestParse(t *testing.T) {
	results, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("parsed %d results, want 4", len(results))
	}
	first := results[0]
	if first.Name != "BenchmarkObsCounterInc" {
		t.Errorf("name = %q, want GOMAXPROCS suffix stripped", first.Name)
	}
	if first.N != 798504354 {
		t.Errorf("N = %d", first.N)
	}
	if first.NsPerOp < 1.5 || first.NsPerOp > 1.51 {
		t.Errorf("NsPerOp = %v", first.NsPerOp)
	}
	sub := results[2]
	if sub.Name != "BenchmarkSparseDot/dim=1024" {
		t.Errorf("subbenchmark name = %q", sub.Name)
	}
	//lint:allow floateq: parsed integer fields are exact
	if sub.AllocsPerOp != 2 || sub.BytesPerOp != 128 {
		t.Errorf("benchmem fields = %v B/op %v allocs/op", sub.BytesPerOp, sub.AllocsPerOp)
	}
	custom := results[3]
	if got := custom.Metrics["items/s"]; got < 42.49 || got > 42.51 {
		t.Errorf("custom metric items/s = %v", got)
	}
}

func TestBaselineRoundTripAndNewest(t *testing.T) {
	dir := t.TempDir()
	for _, pr := range []int{3, 10, 7} {
		b := &Baseline{
			PR:         pr,
			RecordedAt: "2026-08-08T00:00:00Z",
			GoVersion:  "go1.24",
			Benchtime:  "100ms",
			Benchmarks: []Result{
				{Name: "BenchmarkZ", NsPerOp: 100, AllocsPerOp: 0},
				{Name: "BenchmarkA", NsPerOp: 50, AllocsPerOp: 3},
			},
		}
		path := filepath.Join(dir, "BENCH_"+map[int]string{3: "3", 10: "10", 7: "7"}[pr]+".json")
		if err := WriteBaseline(path, b); err != nil {
			t.Fatal(err)
		}
	}
	name, newest, err := NewestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if name != "BENCH_10.json" || newest == nil || newest.PR != 10 {
		t.Fatalf("NewestBaseline = %q pr=%v, want BENCH_10.json pr=10", name, newest)
	}
	// WriteBaseline sorts for diff stability.
	if newest.Benchmarks[0].Name != "BenchmarkA" {
		t.Errorf("baseline not sorted: first = %q", newest.Benchmarks[0].Name)
	}
}

func TestNewestBaselineEmpty(t *testing.T) {
	name, b, err := NewestBaseline(t.TempDir())
	if err != nil || name != "" || b != nil {
		t.Fatalf("empty dir: got (%q, %v, %v), want no baseline and no error", name, b, err)
	}
}

func TestCompare(t *testing.T) {
	base := &Baseline{Benchmarks: []Result{
		{Name: "BenchmarkHot", NsPerOp: 100, AllocsPerOp: 0},
		{Name: "BenchmarkWarm", NsPerOp: 1000, AllocsPerOp: 4},
		{Name: "BenchmarkRemoved", NsPerOp: 10, AllocsPerOp: 0},
	}}
	cur := []Result{
		// 1.2x slower: under the 1.5 ns threshold, but gains an allocation
		// where the baseline had none → always a regression.
		{Name: "BenchmarkHot", NsPerOp: 120, AllocsPerOp: 1},
		// 2x slower: ns/op regression; allocs unchanged.
		{Name: "BenchmarkWarm", NsPerOp: 2000, AllocsPerOp: 4},
		// New benchmark: never a regression.
		{Name: "BenchmarkNew", NsPerOp: 5, AllocsPerOp: 9},
	}
	regs, unresolved := Compare(base, cur, 1.5, 1.25)
	if len(regs) != 2 || len(unresolved) != 0 {
		t.Fatalf("got %d regressions %v, want 2", len(regs), regs)
	}
	if regs[0].Name != "BenchmarkHot" || regs[0].Dimension != "allocs/op" {
		t.Errorf("regs[0] = %v, want BenchmarkHot allocs/op", regs[0])
	}
	if regs[1].Name != "BenchmarkWarm" || regs[1].Dimension != "ns/op" {
		t.Errorf("regs[1] = %v, want BenchmarkWarm ns/op", regs[1])
	}

	if regs, _ := Compare(base, []Result{{Name: "BenchmarkWarm", NsPerOp: 1400, AllocsPerOp: 4}}, 1.5, 1.25); len(regs) != 0 {
		t.Errorf("within-threshold run flagged: %v", regs)
	}
}

// repeats is `go test -count 5` output: a steady row, one whose allocs/op the
// mean's truncation flips by one, one whose ns/op spread is wider than the
// mean, and a row only run once.
const repeats = `BenchmarkSteady-2   	1000	 100 ns/op	 64 B/op	 2 allocs/op	 7.0 items/s
BenchmarkFlip-2     	1000	 10 ns/op	 0 B/op	 74 allocs/op
BenchmarkSteady-2   	1000	 140 ns/op	 64 B/op	 2 allocs/op	 9.0 items/s
BenchmarkNoisy-2    	1000	 100 ns/op	 0 B/op	 1 allocs/op
BenchmarkSteady-2   	1000	 90 ns/op	 80 B/op	 2 allocs/op	 8.0 items/s
BenchmarkFlip-2     	1000	 10 ns/op	 0 B/op	 73 allocs/op
BenchmarkSteady-2   	1000	 110 ns/op	 64 B/op	 2 allocs/op	 6.0 items/s
BenchmarkNoisy-2    	1000	 400 ns/op	 0 B/op	 1 allocs/op
BenchmarkSteady-2   	2000	 120 ns/op	 64 B/op	 2 allocs/op	 5.0 items/s
BenchmarkNoisy-2    	1000	 90 ns/op	 0 B/op	 1 allocs/op
BenchmarkNoisy-2    	1000	 95 ns/op	 0 B/op	 1 allocs/op
BenchmarkNoisy-2    	1000	 330 ns/op	 0 B/op	 1 allocs/op
BenchmarkOnce-2     	1000	 50 ns/op	 0 B/op	 0 allocs/op
`

func TestFoldTakesMedianAndQuartiles(t *testing.T) {
	runs, err := Parse(strings.NewReader(repeats))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Fold(runs)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range rows {
		names = append(names, r.Name)
	}
	if got := strings.Join(names, " "); got != "BenchmarkSteady BenchmarkFlip BenchmarkNoisy BenchmarkOnce" {
		t.Fatalf("folded rows %s, want one per name in order of first appearance", got)
	}
	steady := rows[0]
	//lint:allow floateq: medians and quartiles of small integers are exact
	if steady.N != 6000 || steady.NsPerOp != 110 || steady.NsP25 != 100 || steady.NsP75 != 120 ||
		steady.BytesPerOp != 64 || steady.AllocsPerOp != 2 || steady.Metrics["items/s"] != 7 {
		t.Errorf("steady row = %+v; want N 6000, ns/op 110 (quartiles 100, 120), 64 B/op, 2 allocs/op, 7 items/s", steady)
	}
	//lint:allow floateq: allocs/op is an integer count
	if flip := rows[1]; flip.N != 2000 || flip.AllocsPerOp != 74 {
		t.Errorf("flip row = %+v; want its 2 runs folded keeping the larger count, 74 allocs/op", flip)
	}
	//lint:allow floateq: a single run is copied, not folded
	if once := rows[3]; once.NsPerOp != 50 || once.NsP25 != 0 || once.NsP75 != 0 {
		t.Errorf("single run = %+v; want it unchanged", once)
	}
}

// Each row counts its own runs: a suite that repeats one benchmark 30 times
// and another 5 times records 30 and 5, not one count for the whole file.
func TestFoldCountsEachRowsRuns(t *testing.T) {
	var runs []Result
	for i := 0; i < 30; i++ {
		runs = append(runs, Result{Name: "BenchmarkMany", NsPerOp: 10, AllocsPerOp: 1})
		if i < 5 {
			runs = append(runs, Result{Name: "BenchmarkFew", NsPerOp: 10, AllocsPerOp: 1})
		}
	}
	rows, err := Fold(append(runs, Result{Name: "BenchmarkOnce", NsPerOp: 10}))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{30, 5, 1} {
		if rows[i].Runs != want {
			t.Errorf("%s folded %d runs, want %d", rows[i].Name, rows[i].Runs, want)
		}
	}
}

func TestFoldRefusesAllocsThatDoNotRepeat(t *testing.T) {
	runs := []Result{
		{Name: "BenchmarkA", NsPerOp: 10, AllocsPerOp: 5},
		{Name: "BenchmarkB", NsPerOp: 10, AllocsPerOp: 30000},
		{Name: "BenchmarkA", NsPerOp: 10, AllocsPerOp: 7},
		{Name: "BenchmarkB", NsPerOp: 10, AllocsPerOp: 30020},
	}
	_, err := Fold(runs)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkA [5 7]") {
		t.Fatalf("Fold = %v; want BenchmarkA's allocs 5 and 7 refused", err)
	}
	if strings.Contains(err.Error(), "BenchmarkB") {
		t.Fatalf("Fold = %v; 20 of 30 000 allocations is within a warm-up's jitter", err)
	}
}

// A row whose own interquartile range is wider than the threshold's margin
// is unresolved: at 2x it is not passed though its median is 1.0x, and at
// 1.2x it is not failed though its median is 1.3x.
func TestCompareUnresolvedRow(t *testing.T) {
	runs, err := Parse(strings.NewReader(repeats))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := Fold(runs)
	if err != nil {
		t.Fatal(err)
	}
	noisy := cur[2] // median 100, quartiles 95 and 330: IQR 2.35x the median
	for _, tc := range []struct {
		threshold, baseNs float64
		unresolved        bool
	}{
		{2, 100, true},
		{4, 100, false},
		{4, 20, false}, // resolved, and 5x slower: a regression
	} {
		base := &Baseline{Benchmarks: []Result{{Name: "BenchmarkNoisy", NsPerOp: tc.baseNs, AllocsPerOp: 1}}}
		regs, unresolved := Compare(base, []Result{noisy}, tc.threshold, 1.25)
		if got := len(unresolved) == 1; got != tc.unresolved {
			t.Errorf("threshold %v: unresolved = %v, want %v", tc.threshold, unresolved, tc.unresolved)
		}
		if wantReg := !tc.unresolved && noisy.NsPerOp/tc.baseNs > tc.threshold; (len(regs) == 1) != wantReg {
			t.Errorf("threshold %v, base %v ns/op: regressions %v, want one: %v", tc.threshold, tc.baseNs, regs, wantReg)
		}
	}
	// allocs/op is gated on an unresolved row all the same.
	base := &Baseline{Benchmarks: []Result{{Name: "BenchmarkNoisy", NsPerOp: 100, AllocsPerOp: 0}}}
	if regs, unresolved := Compare(base, []Result{noisy}, 2, 1.25); len(unresolved) != 1 || len(regs) != 1 || regs[0].Dimension != "allocs/op" {
		t.Errorf("unresolved row gaining an allocation: regressions %v, unresolved %v", regs, unresolved)
	}
	// Old baselines, one run per row, still load and gate.
	if regs, unresolved := Compare(&Baseline{Benchmarks: []Result{{Name: "BenchmarkSteady", NsPerOp: 50, AllocsPerOp: 2}}}, cur[:1], 2, 1.25); len(regs) != 1 || len(unresolved) != 0 {
		t.Errorf("steady row 2.2x a one-run baseline: regressions %v, unresolved %v", regs, unresolved)
	}
}

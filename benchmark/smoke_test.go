package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// TestSmokeEveryWorkload builds the real cdml-serve, boots it, and drives
// every workload through one-second windows, crash check included, on a
// server warmed up on 100 chunks instead of 1000. It proves
// the harness end to end, not the numbers.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the real server; skipped under -short")
	}
	root, err := findRepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := readContract(root)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	workDir := t.TempDir()
	bin, err := buildServer(ctx, root, workDir)
	if err != nil {
		t.Fatal(err)
	}
	env := &runEnv{serverBin: bin, workDir: workDir}
	defer env.cleanup()

	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if i < len(spec.Workloads) && spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, spec.Workloads[i].Name, w.name)
		}
		// Two rounds on the first workload, so the hand-over between rounds
		// (forced checkpoint, drain, version arithmetic) runs; one on the rest.
		size := runSize{rounds: 1, boots: 1, warmupChunks: 100}
		if i == 0 {
			size.rounds = 2
		}
		res, err := runWorkload(ctx, env, w, 1, size)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, o := range res.ops {
			if o.attempted == 0 || o.failed != 0 {
				t.Errorf("%s: %s attempted %d, failed %d: %v", w.name, o.kind, o.attempted, o.failed, o.firstErr)
			}
		}
		for _, m := range spec.EndToEnd {
			v, ok := res.endToEnd[m.Name]
			if !ok || !(v.v > 0) || v.unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v), want a positive value in %s", w.name, m.Name, v, ok, m.Unit)
			}
		}
		if len(res.endToEnd) != len(spec.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics produced, BENCHMARK.json names %d", w.name, len(res.endToEnd), len(spec.EndToEnd))
		}
		if left := len(env.servers) + len(env.dirs); left != 0 {
			t.Errorf("%s: %d servers or directories left registered after the run", w.name, left)
		}
	}
	if ents, _ := os.ReadDir(workDir); len(ents) != 1 { // bin/
		t.Errorf("work dir holds %d entries after the runs, want only bin/", len(ents))
	}
}

// TestLayersProduceEveryMetric runs the in-process measurement at a
// fraction of its sample sizes and checks that, together with a run's own
// numbers, it yields exactly the per-layer metrics BENCHMARK.json names.
func TestLayersProduceEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("trains four in-process deployments; skipped under -short")
	}
	root, err := findRepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := readContract(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	spans := filepath.Join(dir, "spans.json")
	layers, err := runLayers(dir, spans, layerSizes{us: 30, chunk: 10, ms: 3, recover: 2, allocs: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
	// What a run contributes from outside the server, with empty inputs:
	// only the names matter here.
	outside, _ := outsideIn(outsideInputs{ingest: &ingestStats{}, scrape: promSeries{}})
	res := &runResult{endToEnd: map[string]value{}, perLayer: outside}
	measured := map[string]value{}
	for _, m := range spec.EndToEnd {
		measured[m.Name] = value{v: 1, unit: m.Unit}
	}
	res.setEndToEnd(measured, 1, 1)
	addDerived(res, layers, workloads[0])
	want := map[string]string{}
	for _, m := range spec.PerLayer {
		want[m.Name] = m.Unit
	}
	for name, v := range res.perLayer {
		if unit, ok := want[name]; !ok {
			t.Errorf("metric %s is produced but not in BENCHMARK.json", name)
		} else if unit != v.unit {
			t.Errorf("metric %s is in %s, BENCHMARK.json says %s", name, v.unit, unit)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("BENCHMARK.json names per-layer metric %s, which nothing produces", name)
	}
}

// TestContractLimits checks BENCHMARK.json against the limits past which the
// driver refuses it before a single run.
func TestContractLimits(t *testing.T) {
	root, err := findRepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := readContract(root)
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds < 3 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 3..60", spec.RunSeconds)
	}
	for _, w := range spec.Workloads {
		if n := utf8.RuneCountInString(w.Why); n == 0 || n > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters, want one line of 1..200", w.Name, n)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, at most 16 and 128 are accepted", len(spec.EndToEnd), len(spec.PerLayer))
	}
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// knownKeys reports whether every key of a JSON object is one of names,
// compared the way encoding/json matches struct tags.
func knownKeys(obj map[string]json.RawMessage, names ...string) bool {
	for k := range obj {
		known := false
		for _, n := range names {
			known = known || strings.EqualFold(k, n)
		}
		if !known {
			return false
		}
	}
	return true
}

// FuzzDeploymentsFile: the -deployments file is an operator's bytes, and a
// spec reaches the same decoder from PUT /v1/deployments/{name}. Any bytes are
// an error or a fleet — never a panic — and an accepted fleet has no field the
// decoders do not know (a typo is not a silent zero), no name twice, and every
// number within its Go type; each entry's spec then builds a whole config or
// is refused.
func FuzzDeploymentsFile(f *testing.F) {
	for _, seed := range []string{
		`{"deployments": [{"name": "a", "warmup": 3, "spec": {"workload": "taxi", "drift": "ddm"}, "quotas": {"max_ingest_queue": 4}}]}`,
		`{"deployments": [{"name": "a", "spec": {"workload": "url", "optimizer": "adam", "lr": 0.01, "rows": 40}}, {"name": "b", "spec": {"workload": "taxi"}}]}`,
		`{"deployments": [{"name": "a", "warmpup": 3, "spec": {"workload": "taxi"}}]}`,
		`{"deployments": [{"name": "a", "spec": {"workload": "taxi"}}, {"name": "a", "spec": {"workload": "url"}}]}`,
		`{"deployments": [{"name": "a", "warmup": 1e30, "spec": {"workload": "taxi", "rows": 99999999999999999999, "lr": 1e999}}]}`,
		`{"deployments": [{"name": "a", "spec": {"workload": "taxi", "optimizer": "lion"}}]}`,
		`{"deployments": []}`, `{"deployments": [{"name": "a"}]}`, `[]`, ``,
	} {
		f.Add([]byte(seed))
	}
	o := testOptions()
	o.deployments = filepath.Join(f.TempDir(), "fleet.json")
	builder := &specBuilder{newScheduler: o.newScheduler}
	f.Fuzz(func(t *testing.T, in []byte) {
		if err := os.WriteFile(o.deployments, in, 0o644); err != nil {
			t.Fatal(err)
		}
		entries, err := o.entries()
		if err != nil {
			return
		}
		var file map[string]json.RawMessage
		var rows []map[string]json.RawMessage
		if json.Unmarshal(in, &file) != nil || !knownKeys(file, "deployments") {
			t.Fatalf("accepted a file with an unknown field: %s", in)
		}
		for k, v := range file { // the one key, however it is cased
			if json.Unmarshal(v, &rows) != nil || len(rows) != len(entries) || len(rows) == 0 {
				t.Fatalf("%q: %d entries decoded from %d rows: %s", k, len(entries), len(rows), in)
			}
		}
		seen := map[string]bool{}
		for i, e := range entries {
			if seen[e.Name] || !knownKeys(rows[i], "name", "spec", "warmup", "quotas") {
				t.Fatalf("accepted entry %d with a repeated name or an unknown field: %s", i, in)
			}
			seen[e.Name] = true
			cfg, chunk, err := builder.config(e.Name, e.Spec, e.Warmup)
			if err != nil {
				continue
			}
			var spec map[string]json.RawMessage
			if json.Unmarshal(e.Spec, &spec) != nil || !knownKeys(spec, "workload", "optimizer", "lr", "rows", "drift") {
				t.Fatalf("accepted a spec with an unknown field: %s", e.Spec)
			}
			if cfg.NewPipeline == nil || cfg.NewModel == nil || cfg.NewOptimizer() == nil || cfg.Metric == nil || chunk == nil {
				t.Fatalf("spec %s built half a config", e.Spec)
			}
		}
	})
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"cdml/datasets"
	"cdml/internal/registry"
	"cdml/internal/sched"
	"cdml/internal/serve"
	"cdml/internal/snapstream"
)

// idle never schedules a proactive training. The server's dynamic scheduler
// reads the wall clock and a restarted process starts it over, so a restart
// is bit-identical only between its firings; the restart tests take the
// clock out to compare whole runs.
type idle struct{}

func (idle) Due(time.Time) bool                                   { return false }
func (idle) TrainingDone(time.Time, time.Duration, time.Duration) {}

// testOptions parses args as the command line would and pins the scheduler.
func testOptions(args ...string) options {
	o := parseFlags(args)
	o.newScheduler = func() sched.Scheduler { return idle{} }
	return o
}

func mustGet(t *testing.T, api *serve.Server, name string) *registry.Deployment {
	t.Helper()
	d, ok := api.Registry().Get(name)
	if !ok {
		t.Fatalf("deployment %q was not booted", name)
	}
	return d
}

// life is one booted process: the registry behind boot's server.
type life struct{ api *serve.Server }

func bootLife(t *testing.T, o options) *life {
	t.Helper()
	api, err := boot(o)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	l := &life{api: api}
	t.Cleanup(l.kill)
	return l
}

// kill ends the life the way a crash does as far as the next one can tell:
// nothing is flushed but the checkpoint already due, the
// directories stay. Safe to call twice.
func (l *life) kill() {
	l.api.Registry().Close()
	l.api.Close()
}

// door is one way of declaring the deployments to boot.
type door struct {
	name      string
	workloads map[string]string // deployment name -> workload
	warmups   map[string]int
	args      func(t *testing.T) []string
}

var doors = []door{
	{
		name:      "flags",
		workloads: map[string]string{"default": "taxi"},
		warmups:   map[string]int{"default": 6},
		args: func(*testing.T) []string {
			return []string{"-workload", "taxi", "-warmup", "6", "-rows", "30"}
		},
	},
	{
		name:      "file",
		workloads: map[string]string{"urls": "url", "trips": "taxi"},
		warmups:   map[string]int{"urls": 4, "trips": 6},
		args: func(t *testing.T) []string {
			return []string{"-deployments", writeFile(t, `{"deployments": [
				{"name": "urls",  "warmup": 4, "spec": {"workload": "url", "rows": 20}},
				{"name": "trips", "warmup": 6, "spec": {"workload": "taxi", "rows": 30},
				 "quotas": {"max_ingest_queue": 64}}
			]}`)}
		},
	},
}

func writeFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "deployments.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// liveChunks is the labelled traffic a workload's deployment receives after
// boot: a stream of its own, not the warmup's.
func liveChunks(workload string, n int) [][][]byte {
	var chunk func(int) [][]byte
	switch workload {
	case "url":
		cfg := datasets.DefaultURLConfig()
		cfg.Vocab, cfg.HashDim, cfg.RowsPerChunk, cfg.Seed = 5000, 1<<15, 20, 7
		chunk = datasets.NewURL(cfg).Chunk
	default:
		cfg := datasets.DefaultTaxiConfig()
		cfg.RowsPerChunk, cfg.Seed = 30, 7
		chunk = datasets.NewTaxi(cfg).Chunk
	}
	out := make([][][]byte, n)
	for i := range out {
		out[i] = chunk(i)
	}
	return out
}

// ingestLogged is the async ingest path without its queue: durable append
// (the 202 ack point), then the consuming tick.
func ingestLogged(t *testing.T, d *registry.Deployment, chunks [][][]byte) {
	t.Helper()
	for i, c := range chunks {
		seq, err := d.AppendIngestLog(c)
		if err != nil {
			t.Fatalf("%s: append chunk %d: %v", d.Name(), i, err)
		}
		if err := d.IngestLogged(context.Background(), c, time.Time{}, seq); err != nil {
			t.Fatalf("%s: logged ingest chunk %d: %v", d.Name(), i, err)
		}
	}
}

// answers is what a deployment is compared by: the published snapshot
// version and the bits of its predictions on a fixed probe batch.
type answers struct {
	version uint64
	preds   []uint64
}

func answersOf(t *testing.T, d *registry.Deployment, probe [][]byte) answers {
	t.Helper()
	preds, err := d.Predict(probe)
	if err != nil {
		t.Fatalf("%s: predict: %v", d.Name(), err)
	}
	a := answers{version: d.Serving().Published().Version(), preds: make([]uint64, len(preds))}
	for i, p := range preds {
		a.preds[i] = math.Float64bits(p)
	}
	return a
}

func (a answers) equal(b answers) bool {
	if a.version != b.version || len(a.preds) != len(b.preds) || len(a.preds) == 0 {
		return false
	}
	for i := range a.preds {
		if a.preds[i] != b.preds[i] {
			return false
		}
	}
	return true
}

const (
	liveTotal = 12 // live chunks per deployment over the whole run
	applied   = 5  // ticked before the kill
	accepted  = 8  // durably acked before the kill: the last 3 sit in the queue
)

// TestChaosBootRecoversEveryDeployment is the boot matrix: both doors ×
// {cold start, kill with logged-but-unapplied chunks, the same with the
// newest checkpoint torn}. Every deployment of the restarted process must
// come back on the version that holds every accepted chunk and, fed the rest
// of the stream, end with the version and the prediction bits of a process
// that never stopped and had no durability configured at all.
func TestChaosBootRecoversEveryDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("boot kill-and-recover matrix; run via `make chaos`")
	}
	for _, dr := range doors {
		live, probes := map[string][][][]byte{}, map[string][][]byte{}
		for name, w := range dr.workloads {
			live[name] = liveChunks(w, liveTotal+1)
			probes[name] = live[name][liveTotal]
		}
		ref := bootLife(t, testOptions(dr.args(t)...))
		want := map[string]answers{}
		for name := range dr.workloads {
			d := mustGet(t, ref.api, name)
			ingestLogged(t, d, live[name][:liveTotal])
			want[name] = answersOf(t, d, probes[name])
			if want[name].version != uint64(1+dr.warmups[name]+liveTotal) {
				t.Fatalf("%s/%s: reference at version %d", dr.name, name, want[name].version)
			}
		}
		ref.kill()

		for _, scenario := range []string{"cold start", "kill with queued chunks", "kill and torn newest checkpoint"} {
			t.Run(dr.name+"/"+scenario, func(t *testing.T) {
				dir := t.TempDir()
				o := testOptions(append(dr.args(t),
					"-checkpoint-dir", filepath.Join(dir, "ck"), "-checkpoint-every", "3",
					"-wal-dir", filepath.Join(dir, "wal"))...)
				l := bootLife(t, o)
				resumeAt := 0
				if scenario != "cold start" {
					resumeAt = accepted
					for name := range dr.workloads {
						d := mustGet(t, l.api, name)
						ingestLogged(t, d, live[name][:applied])
						for _, c := range live[name][applied:accepted] {
							if _, err := d.AppendIngestLog(c); err != nil {
								t.Fatal(err)
							}
						}
						if strings.Contains(scenario, "torn") {
							// A checkpoint that covers every applied chunk, so tearing
							// it makes recovery fall back and replay further.
							if _, err := d.Serving().CheckpointNow(); err != nil {
								t.Fatal(err)
							}
						}
					}
					l.kill()
					if strings.Contains(scenario, "torn") {
						for name := range dr.workloads {
							tearNewestCheckpoint(t, filepath.Join(dir, "ck", name, "ckpt"))
						}
					}
					l = bootLife(t, o)
				}
				for name := range dr.workloads {
					d := mustGet(t, l.api, name)
					if got, want := d.Serving().Published().Version(), uint64(1+dr.warmups[name]+resumeAt); got != want {
						t.Fatalf("%s: booted at version %d, want %d (warmup + every accepted chunk)", name, got, want)
					}
					ingestLogged(t, d, live[name][resumeAt:liveTotal])
					if got := answersOf(t, d, probes[name]); !got.equal(want[name]) {
						t.Errorf("%s: version %d, want %d; predictions bit-identical to the uninterrupted run: false",
							name, got.version, want[name].version)
					}
				}
			})
		}
	}
}

// tearNewestCheckpoint cuts the newest checkpoint file short: the on-disk
// image of a crash mid-write that somehow reached the final name.
func tearNewestCheckpoint(t *testing.T, dir string) {
	t.Helper()
	files, err := snapstream.List(dir)
	if err != nil || len(files) < 2 {
		t.Fatalf("%s holds %d checkpoints (err %v), want at least 2", dir, len(files), err)
	}
	fi, err := os.Stat(files[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(files[0].Path, fi.Size()-fi.Size()/3); err != nil {
		t.Fatal(err)
	}
}

// call makes one JSON request against the booted API and decodes the answer.
func call(t *testing.T, srv *httptest.Server, method, path, body string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: %d %s: %v", method, path, resp.StatusCode, raw, err)
		}
	}
	return resp.StatusCode
}

func serveLife(t *testing.T, l *life) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(l.api)
	t.Cleanup(srv.Close)
	return srv
}

// TestFlagsDefaultIsAFullDeployment: "default" declared by flags is built by
// Create like any other, so it reports its recent loss and hosts a challenger.
func TestFlagsDefaultIsAFullDeployment(t *testing.T) {
	l := bootLife(t, testOptions(doors[0].args(t)...))
	srv := serveLife(t, l)
	var info serve.DeploymentInfo
	if code := call(t, srv, "GET", "/v1/deployments/default", "", &info); code != http.StatusOK {
		t.Fatalf("describe: %d", code)
	}
	if info.WindowEvaluated == 0 {
		t.Fatalf("default after warmup: window_evaluated = %d", info.WindowEvaluated)
	}
	if code := call(t, srv, "POST", "/v1/deployments/default/challengers",
		`{"spec": {"workload": "taxi", "optimizer": "adam"}}`, nil); code != http.StatusAccepted {
		t.Fatalf("POST challengers on flags-booted default: %d, want 202", code)
	}
	if _, ok := mustGet(t, l.api, "default").Challenger(); !ok {
		t.Fatal("no challenger attached")
	}
}

// TestREADMENamesEveryFlag is the flags half of the catalogue guard: every
// flag cdml-serve registers appears in README.md as `-name`, a whole word,
// in prose or in a command line — and, the other way, every `-name` README.md
// puts in backticks is a flag cdml-serve registers (bar go test's -short).
func TestREADMENamesEveryFlag(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, fs := declareFlags()
	n := 0
	fs.VisitAll(func(f *flag.Flag) {
		n++
		if !regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(f.Name) + `($|[^\w-])`).Match(readme) {
			t.Errorf("README.md never names -%s (%s)", f.Name, f.Usage)
		}
	})
	if n == 0 {
		t.Fatal("cdml-serve registers no flags")
	}
	for _, m := range regexp.MustCompile("`-([a-z][a-z0-9-]*[a-z0-9])[` ]").FindAllSubmatch(readme, -1) {
		if name := string(m[1]); fs.Lookup(name) == nil && name != "short" {
			t.Errorf("README.md names -%s, which cdml-serve does not register", name)
		}
	}
}

// TestPutCreatedDeploymentIsDurable: a deployment created at run time on a
// server booted from flags gets the process-wide durability settings — its
// own checkpoint and log directories and the -checkpoint-every
// cadence, for it and for its challenger — and a later PUT of the same name
// recovers it, in this life or the next.
func TestPutCreatedDeploymentIsDurable(t *testing.T) {
	dir := t.TempDir()
	o := testOptions(append(doors[0].args(t),
		"-checkpoint-dir", filepath.Join(dir, "ck"), "-checkpoint-every", "2", "-checkpoint-keep", "10",
		"-wal-dir", filepath.Join(dir, "wal"))...)
	l := bootLife(t, o)
	srv := serveLife(t, l)
	const spec = `{"spec": {"workload": "taxi"}}`
	if code := call(t, srv, "PUT", "/v1/deployments/exp", spec, nil); code != http.StatusCreated {
		t.Fatalf("PUT exp: %d", code)
	}
	if code := call(t, srv, "POST", "/v1/deployments/exp/challengers", spec, nil); code != http.StatusAccepted {
		t.Fatalf("POST exp/challengers: %d", code)
	}
	gens, _ := filepath.Glob(filepath.Join(dir, "ck", "exp", "gen*"))
	if len(gens) != 1 {
		t.Fatalf("challenger checkpoint directories = %v, want 1", gens)
	}
	dirs := []string{gens[0], filepath.Join(dir, "ck", "exp", "ckpt")}
	for i, c := range liveChunks("taxi", 4) {
		if code := call(t, srv, "POST", "/v1/deployments/exp/train", string(bytes.Join(c, []byte("\n"))), nil); code != http.StatusOK {
			t.Fatalf("train: %d", code)
		}
		if i != 1 {
			continue
		}
		// A checkpoint writer takes the version published when it runs, so
		// which version a cadence checkpoint holds depends on scheduling: let
		// both take the due one before the next tick publishes another.
		for _, d := range dirs {
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				if done, _ := filepath.Glob(filepath.Join(d, "ckpt-*.ckpt")); len(done) > 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%s: no checkpoint after 2 ticks (-checkpoint-every 2)", d)
				}
			}
		}
	}
	l.kill() // drains the checkpoint writers

	var newest uint64
	for _, d := range dirs {
		// The oldest checkpoint is the telling one: a later one is coalesced
		// when the writer is still busy with the one before.
		files, err := snapstream.List(d)
		if err != nil || len(files) == 0 || files[len(files)-1].Version != 3 {
			t.Fatalf("%s: checkpoints %+v (err %v), want the first at version 3 (-checkpoint-every 2)", d, files, err)
		}
		newest = files[0].Version
	}
	wl := filepath.Join(dir, "wal", "exp", "wal")
	if ents, err := os.ReadDir(wl); err != nil || len(ents) == 0 {
		t.Fatalf("%s: %d entries (err %v), want the deployment's own files", wl, len(ents), err)
	}

	srv = serveLife(t, bootLife(t, o))
	var info serve.DeploymentInfo
	if code := call(t, srv, "PUT", "/v1/deployments/exp", spec, &info); code != http.StatusCreated || info.SnapshotVersion != newest {
		t.Fatalf("PUT exp in the next life: %d at snapshot version %d, want 201 at its newest checkpoint's %d", code, info.SnapshotVersion, newest)
	}
	if code := call(t, srv, "DELETE", "/v1/deployments/exp", "", nil); code != http.StatusOK {
		t.Fatalf("DELETE exp: %d", code)
	}
	if code := call(t, srv, "PUT", "/v1/deployments/exp", spec, &info); code != http.StatusCreated || info.SnapshotVersion != 1 {
		t.Fatalf("PUT exp after DELETE: %d at snapshot version %d, want a fresh deployment", code, info.SnapshotVersion)
	}
	if code := call(t, srv, "POST", "/v1/deployments/exp/checkpoint", "", nil); code != http.StatusOK {
		t.Fatalf("POST exp/checkpoint: %d", code)
	}

	// No boot re-creates a PUT-created deployment. When the next life's PUT
	// names another pipeline, the checkpoint is not its own: 500 for as long
	// as the directories are there, and DELETE of the unserved name is what
	// removes them.
	srv = serveLife(t, bootLife(t, o))
	const other = `{"spec": {"workload": "url"}}`
	if code := call(t, srv, "PUT", "/v1/deployments/exp", other, nil); code != http.StatusInternalServerError {
		t.Fatalf("PUT exp as another pipeline over its checkpoint: %d, want 500", code)
	}
	if code := call(t, srv, "DELETE", "/v1/deployments/exp", "", nil); code != http.StatusOK {
		t.Fatalf("DELETE of exp's leftover directories: %d", code)
	}
	if code := call(t, srv, "DELETE", "/v1/deployments/exp", "", nil); code != http.StatusNotFound {
		t.Fatalf("second DELETE exp: %d, want 404", code)
	}
	if code := call(t, srv, "PUT", "/v1/deployments/exp", other, &info); code != http.StatusCreated || info.SnapshotVersion != 1 {
		t.Fatalf("PUT exp as another pipeline after DELETE: %d at snapshot version %d, want a fresh deployment", code, info.SnapshotVersion)
	}
}

// always schedules a proactive training on every tick.
type always struct{}

func (always) Due(time.Time) bool                                   { return true }
func (always) TrainingDone(time.Time, time.Duration, time.Duration) {}

// TestServerNeverReadsRawChunksBack pins the traffic fact the server's
// in-memory chunk store rests on: with the log on and a proactive training
// on every tick, every sampled chunk is answered from materialized
// features — no miss, no re-materialization, μ = 1 — so a raw chunk is
// written and never read back. A change that makes the server read raw
// chunks back (a bounded feature cache, say) reopens the question of a
// raw-chunk reader over the ingest log (ROADMAP item 13).
func TestServerNeverReadsRawChunksBack(t *testing.T) {
	o := testOptions(append(doors[1].args(t), "-wal-dir", t.TempDir())...)
	o.newScheduler = func() sched.Scheduler { return always{} }
	l := bootLife(t, o)
	const chunks = 64
	for name, w := range doors[1].workloads {
		d := mustGet(t, l.api, name)
		runs := d.Serving().Stats().ProactiveRuns
		ingestLogged(t, d, liveChunks(w, chunks))
		if got := d.Serving().Stats().ProactiveRuns - runs; got != chunks {
			t.Fatalf("%s: %d proactive trainings over %d ticks, want one each", name, got, chunks)
		}
	}
	var text bytes.Buffer
	if err := l.api.Registry().Metrics().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for name := range doors[1].workloads {
		for metric, want := range map[string]string{
			"cdml_store_sample_misses_total":      "0",
			"cdml_store_rematerializations_total": "0",
			"cdml_store_mu":                       "1",
		} {
			m := regexp.MustCompile(`(?m)^` + metric + `\{deployment="` + name + `"[^}]*\} (\S+)$`).FindSubmatch(text.Bytes())
			got := "absent"
			if m != nil {
				got = string(m[1])
			}
			if got != want {
				t.Errorf("%s: %s = %s, want %s", name, metric, got, want)
			}
		}
	}
}

// TestBootTimeDriftStartsChallenger: a deployment declared in the fleet file
// with "drift" set goes through the spec builder like a PUT, so the
// auto-challenger finds its spec when the detector fires. (Boot used to
// build such entries around the builder: the fire found "no spec recorded"
// and the error was dropped.)
func TestBootTimeDriftStartsChallenger(t *testing.T) {
	o := testOptions("-auto-challenger", "-deployments", writeFile(t, `{"deployments": [
		{"name": "urls", "warmup": 30, "spec": {"workload": "url", "rows": 40, "drift": "ddm"}}]}`))
	_, warmup, err := (&specBuilder{newScheduler: o.newScheduler}).config("urls", []byte(`{"workload": "url", "rows": 40}`), 30)
	if err != nil {
		t.Fatal(err)
	}
	d := mustGet(t, bootLife(t, o).api, "urls")
	// The concept flips: the warmup's own chunks come back with every label
	// the opposite of what they taught.
	for i := 0; i < 30; i++ {
		flipped := warmup(i)
		for j, rec := range flipped {
			flipped[j] = append([]byte{rec[0] ^ '+' ^ '-'}, rec[1:]...)
		}
		if err := d.Ingest(flipped); err != nil {
			t.Fatal(err)
		}
		if _, ok := d.Challenger(); ok {
			return
		}
	}
	t.Fatalf("no automatic challenger after 30 drifted chunks (%d drift events)", d.Serving().Stats().DriftEvents)
}

// TestBootRefusesBadInput: boot reports, as an error and before anything is
// built, a typo'd field, a duplicate name, and a durability root laid out
// the way a single deployment used to keep it.
func TestBootRefusesBadInput(t *testing.T) {
	oldCkpt, oldWAL := t.TempDir(), t.TempDir()
	if err := os.WriteFile(snapstream.FilePath(oldCkpt, 9), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(oldWAL, "wal-0000000000000001.seg.open"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := t.TempDir()
	for _, tc := range []struct {
		name, want string
		args       []string
	}{
		{"typo in the file", `unknown field "warmpup"`, []string{"-deployments", writeFile(t,
			`{"deployments": [{"name": "a", "warmpup": 3, "spec": {"workload": "taxi"}}]}`)}},
		{"typo in a spec", `unknown field "optimiser"`, []string{"-deployments", writeFile(t,
			`{"deployments": [{"name": "a", "spec": {"workload": "taxi", "optimiser": "adam"}}]}`)}},
		{"duplicate name", `lists "a" twice`, []string{"-checkpoint-dir", fresh, "-deployments", writeFile(t,
			`{"deployments": [{"name": "a", "spec": {"workload": "taxi"}}, {"name": "a", "spec": {"workload": "url"}}]}`)}},
		{"unknown workload", `unknown workload "texi"`, []string{"-workload", "texi"}},
		{"old checkpoint layout", filepath.Join(oldCkpt, "default", "ckpt"), []string{"-checkpoint-dir", oldCkpt}},
		{"old log layout", filepath.Join(oldWAL, "default", "wal"), []string{"-wal-dir", oldWAL}},
	} {
		api, err := boot(testOptions(tc.args...))
		if err == nil {
			api.Registry().Close()
			api.Close()
			t.Fatalf("%s: boot succeeded", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to name %s", tc.name, err, tc.want)
		}
	}
	if ents, _ := os.ReadDir(fresh); len(ents) != 0 {
		t.Errorf("a duplicate name was reported after %d director(ies) had been built", len(ents))
	}
}

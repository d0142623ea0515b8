package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cdml/internal/core"
	"cdml/internal/data"
	"cdml/internal/eval"
	"cdml/internal/model"
	"cdml/internal/obs"
	"cdml/internal/opt"
	"cdml/internal/pipeline"
	"cdml/internal/sample"
)

// newTraceTestServer is newTestServer plus knobs: an auto-checkpoint policy
// (ckptDir != "") and extra server options.
func newTraceTestServer(t *testing.T, ckptDir string, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	cfg := core.Config{
		Mode: core.ModeContinuous,
		NewPipeline: func() *pipeline.Pipeline {
			return pipeline.New(testParser{},
				pipeline.NewStandardScaler([]string{"x0", "x1"}),
				pipeline.NewAssembler([]string{"x0", "x1"}, nil, "features"),
			)
		},
		NewModel:       func() model.Model { return model.NewSVM(2, 1e-4) },
		NewOptimizer:   func() opt.Optimizer { return opt.NewAdam(0.05) },
		Store:          data.NewStore(data.NewMemoryBackend()),
		Sampler:        sample.NewTime(1),
		SampleChunks:   3,
		ProactiveEvery: 2,
		Metric:         &eval.Misclassification{},
		Predict:        core.ClassifyPredictor,
	}
	if ckptDir != "" {
		cfg.AutoCheckpoint = &core.CheckpointPolicy{Dir: ckptDir, EveryTicks: 1, Keep: 4}
	}
	dep, err := core.NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := New(dep, append([]Option{WithSlog(nil)}, opts...)...)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func getTrace(t *testing.T, ts *httptest.Server, id string) traceResponse {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/deployments/default/trace?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf(".../trace?id= status %d", resp.StatusCode)
	}
	var tr traceResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	return tr
}

func rootNames(spans []*obs.Span) []string {
	names := make([]string, len(spans))
	for i, sp := range spans {
		names[i] = sp.Name
	}
	return names
}

func findRoot(spans []*obs.Span, name string) *obs.Span {
	for _, sp := range spans {
		if sp.Name == name {
			return sp
		}
	}
	return nil
}

func childNames(sp *obs.Span) map[string]bool {
	names := make(map[string]bool, len(sp.Children))
	for _, c := range sp.Children {
		names[c.Name] = true
	}
	return names
}

// TestTraceEndToEndAsyncIngest is the PR's acceptance criterion: one trace id
// follows an asynchronously ingested chunk from request receipt, across the
// bounded queue (the wait is its own span), through the training tick's
// stages, into the background checkpoint writer — and .../trace?id=
// reassembles the whole story from the three separately recorded span trees.
func TestTraceEndToEndAsyncIngest(t *testing.T) {
	_, ts := newTraceTestServer(t, t.TempDir())
	r := rand.New(rand.NewSource(7))

	resp, err := ts.Client().Post(ts.URL+"/v1/deployments/default/ingest", "text/plain", strings.NewReader(chunkBody(r, 30)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf(".../ingest status %d", resp.StatusCode)
	}
	traceID := resp.Header.Get("X-Trace-ID")
	if traceID == "" {
		t.Fatal("202 response missing X-Trace-ID")
	}

	// The tick and the checkpoint write happen after the 202: poll until the
	// request, tick, and checkpoint trees have all been recorded.
	var tr traceResponse
	deadline := time.Now().Add(10 * time.Second)
	for {
		tr = getTrace(t, ts, traceID)
		if findRoot(tr.Spans, "POST /v1/deployments/{name}/ingest") != nil &&
			findRoot(tr.Spans, "tick") != nil &&
			findRoot(tr.Spans, "checkpoint") != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s incomplete after 10s: roots %v", traceID, rootNames(tr.Spans))
		}
		time.Sleep(5 * time.Millisecond)
	}

	if tr.ID != traceID {
		t.Fatalf("response echoes id %q, want %q", tr.ID, traceID)
	}
	for _, sp := range tr.Spans {
		if sp.TraceID != traceID {
			t.Fatalf("root %q carries trace id %q, want %q", sp.Name, sp.TraceID, traceID)
		}
	}
	// Trees come back in start order: the HTTP request began everything.
	if tr.Spans[0].Name != "POST /v1/deployments/{name}/ingest" {
		t.Fatalf("first tree is %q, want the request root (order: %v)", tr.Spans[0].Name, rootNames(tr.Spans))
	}
	req := findRoot(tr.Spans, "POST /v1/deployments/{name}/ingest")
	if req.RequestID == "" {
		t.Fatal("request root missing request id")
	}

	tick := findRoot(tr.Spans, "tick")
	stages := childNames(tick)
	if !stages["queue-wait"] {
		t.Fatalf("tick of an async ingest has no queue-wait stage: %v", stages)
	}
	if len(tick.Children) < 2 {
		t.Fatalf("tick has only %d stages, want queue-wait plus real work: %v", len(tick.Children), stages)
	}
	// The queue wait is backdated to enqueue time: it must be the tick's
	// first stage and account for real elapsed time.
	if tick.Children[0].Name != "queue-wait" {
		t.Fatalf("queue-wait is not the first stage: %v", tick.Children[0].Name)
	}
	if tick.Children[0].DurationNS <= 0 {
		t.Fatal("queue-wait span has no duration")
	}

	ckpt := findRoot(tr.Spans, "checkpoint")
	have := childNames(ckpt)
	for _, want := range []string{"encode", "write", "fsync", "rename"} {
		if !have[want] {
			t.Fatalf("checkpoint tree missing %q stage: %v", want, have)
		}
	}
}

// TestTraceSyncTrainClientSuppliedID covers the synchronous path plus trace
// stitching: a client-supplied X-Trace-ID is echoed and tags the tick that
// ran inside the request, so the caller can join this server's spans into
// its own trace.
func TestTraceSyncTrainClientSuppliedID(t *testing.T) {
	_, ts := newTraceTestServer(t, "")
	r := rand.New(rand.NewSource(8))
	const traceID = "cdml-client-trace-0001"

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/deployments/default/train", strings.NewReader(chunkBody(r, 20)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Trace-ID", traceID)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf(".../train status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-ID"); got != traceID {
		t.Fatalf("echoed trace id %q, want %q", got, traceID)
	}

	// The tick is recorded before the 200; the request span a moment after
	// the response flushes — poll for both.
	var tr traceResponse
	deadline := time.Now().Add(5 * time.Second)
	for {
		tr = getTrace(t, ts, traceID)
		if findRoot(tr.Spans, "POST /v1/deployments/{name}/train") != nil && findRoot(tr.Spans, "tick") != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace incomplete after 5s: roots %v", rootNames(tr.Spans))
		}
		time.Sleep(5 * time.Millisecond)
	}
	tick := findRoot(tr.Spans, "tick")
	if tick.TraceID != traceID {
		t.Fatalf("tick trace id %q, want the client-supplied %q", tick.TraceID, traceID)
	}
	// Synchronous ingest never waited in the queue.
	if childNames(tick)["queue-wait"] {
		t.Fatal("synchronous train tick must not have a queue-wait stage")
	}
}

// TestStatusLastTickBreakdown covers the .../status additions: the last
// tick's stage breakdown appears after training, and the oldest-queued-item
// age field is present (and zero on an idle queue).
func TestStatusLastTickBreakdown(t *testing.T) {
	_, ts := newTraceTestServer(t, "")
	r := rand.New(rand.NewSource(9))

	getStatus := func() (statusResponse, map[string]any) {
		resp, err := ts.Client().Get(ts.URL + "/v1/deployments/default/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var st statusResponse
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		return st, m
	}

	st, m := getStatus()
	if st.LastTick != nil {
		t.Fatal("LastTick must be omitted before the first tick")
	}
	if _, ok := m["ingest_oldest_age_seconds"]; !ok {
		t.Fatal("status JSON missing ingest_oldest_age_seconds")
	}
	if st.IngestOldestAgeSeconds > 0.001 {
		t.Fatalf("idle queue reports oldest age %v", st.IngestOldestAgeSeconds)
	}

	resp, err := ts.Client().Post(ts.URL+"/v1/deployments/default/train", "text/plain", strings.NewReader(chunkBody(r, 20)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	st, _ = getStatus()
	if st.LastTick == nil {
		t.Fatal("LastTick missing after a tick")
	}
	if st.LastTick.DurationMS <= 0 {
		t.Fatalf("LastTick duration %v", st.LastTick.DurationMS)
	}
	if len(st.LastTick.StagesMS) == 0 {
		t.Fatal("LastTick has no stage breakdown")
	}
	for stage, ms := range st.LastTick.StagesMS {
		if ms < 0 {
			t.Fatalf("stage %q has negative duration %v", stage, ms)
		}
	}
	if _, ok := st.LastTick.StagesMS["publish"]; !ok {
		t.Fatalf("LastTick has no publish stage: %v", st.LastTick.StagesMS)
	}
	if st.LastTick.TraceID == "" {
		t.Fatal("LastTick of a traced train request must carry its trace id")
	}
}

// TestIngestQueueOldestAge pins the FIFO-mirror bookkeeping directly: the
// head item's age is reported until the drainer finishes it.
func TestIngestQueueOldestAge(t *testing.T) {
	q := newChunkQueue(4)
	if q.oldestAge() != 0 {
		t.Fatal("empty queue must report zero age")
	}
	const wait = 100 * time.Millisecond
	if _, err := q.enqueue(ingestItem{}, noLog); err != nil {
		t.Fatal("enqueue failed")
	}
	time.Sleep(wait)
	if _, err := q.enqueue(ingestItem{}, noLog); err != nil {
		t.Fatal("enqueue failed")
	}
	if age := q.oldestAge(); age < wait {
		t.Fatalf("oldest age %v, want >= %v (the head item's wait)", age, wait)
	}
	q.itemDone()
	if age := q.oldestAge(); age >= wait {
		t.Fatalf("after itemDone the old head still reported: %v", age)
	}
	q.itemDone()
	q.itemDone() // extra pops must be harmless
	if q.oldestAge() != 0 {
		t.Fatal("drained queue must report zero age")
	}
}

// syncWriter is a race-safe log sink: the middleware logs from the request
// goroutine while the test reads from its own.
type syncWriter struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// TestRequestLogCarriesIDs covers the slog migration: every request line is
// structured and carries request_id and trace_id.
func TestRequestLogCarriesIDs(t *testing.T) {
	var buf syncWriter
	_, ts := newTraceTestServer(t, "", WithSlog(slog.New(slog.NewTextHandler(&buf, nil))))

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Trace-ID", "log-trace-42")
	req.Header.Set("X-Request-ID", "log-req-42")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// The log line is emitted just after the response flushes; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		out := buf.String()
		if strings.Contains(out, "msg=\"http request\"") &&
			strings.Contains(out, "path=/v1/healthz") &&
			strings.Contains(out, "request_id=log-req-42") &&
			strings.Contains(out, "trace_id=log-trace-42") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("request log line incomplete after 5s:\n%s", out)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPprofOptIn: the profiling surface exists only when asked for.
func TestPprofOptIn(t *testing.T) {
	_, tsOn := newTraceTestServer(t, "", WithPprof())
	resp, err := tsOn.Client().Get(tsOn.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ with WithPprof: status %d", resp.StatusCode)
	}

	_, tsOff := newTraceTestServer(t, "")
	resp2, err := tsOff.Client().Get(tsOff.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode == http.StatusOK {
		t.Fatal("/debug/pprof/ must not be registered by default")
	}
}

// TestRuntimeMetricsOptIn: WithRuntimeMetrics adds the cdml_runtime_* family
// to the exposition and Close stops the sampler.
func TestRuntimeMetricsOptIn(t *testing.T) {
	s, ts := newTraceTestServer(t, "", WithRuntimeMetrics(time.Second))
	resp, err := ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, fam := range []string{"cdml_runtime_goroutines", "cdml_runtime_heap_alloc_bytes"} {
		if !strings.Contains(out, fam) {
			t.Fatalf("exposition missing %s:\n%s", fam, out)
		}
	}
	s.Close() // Cleanup closes again; Stop must be idempotent.
}

// TestMetricsExemplarAfterRequest: request latency histograms carry the last
// slow request's trace id as an exemplar comment, linking /v1/metrics to
// .../trace?id=.
func TestMetricsExemplarAfterRequest(t *testing.T) {
	_, ts := newTraceTestServer(t, "")
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Trace-ID", "exemplar-trace-7")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		mresp, err := ts.Client().Get(ts.URL + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(mresp.Body)
		mresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		out := string(body)
		if strings.Contains(out, "# exemplar cdml_http_request_seconds") &&
			strings.Contains(out, "trace_id=exemplar-trace-7") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no exemplar for the healthz request after 5s:\n%s", out)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCheckpointNowUnsupportedVersusFailed separates the two ways POST
// .../checkpoint can fail on a deployment served through New: no checkpoint
// policy is 501 "unsupported", a
// policy whose write fails is 500 "internal" — an I/O failure must never be
// reported as a missing feature.
func TestCheckpointNowUnsupportedVersusFailed(t *testing.T) {
	_, ts := newTraceTestServer(t, "")
	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/deployments/default/checkpoint", nil)
	if code != http.StatusNotImplemented || errCode(t, body) != "unsupported" {
		t.Fatalf("no policy: %d %s, want 501 unsupported", code, body)
	}

	// The policy's directory exists once the deployer is built; swap it for a
	// regular file so the write fails even when the tests run as root.
	dir := filepath.Join(t.TempDir(), "ckpt")
	_, ts = newTraceTestServer(t, dir)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/deployments/default/checkpoint", nil)
	if code != http.StatusInternalServerError || errCode(t, body) != "internal" {
		t.Fatalf("unwritable dir: %d %s, want 500 internal", code, body)
	}
}

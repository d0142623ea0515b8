package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cdml/internal/core"
	"cdml/internal/data"
	"cdml/internal/eval"
	"cdml/internal/model"
	"cdml/internal/opt"
	"cdml/internal/pipeline"
	"cdml/internal/registry"
	"cdml/internal/sample"
	"cdml/internal/snapstream"
	"cdml/internal/wal"
)

func TestAsyncIngestAcceptsAndDrains(t *testing.T) {
	s, ts := newTestServer(t)
	client := ts.Client()
	r := rand.New(rand.NewSource(11))

	const chunks, rows = 8, 30
	for i := 0; i < chunks; i++ {
		resp, err := client.Post(ts.URL+"/v1/deployments/default/ingest", "text/plain", strings.NewReader(chunkBody(r, rows)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf(".../ingest status %d: %s", resp.StatusCode, body)
		}
		var ir ingestResponse
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if ir.Queued != rows {
			t.Fatalf("queued %d records, want %d", ir.Queued, rows)
		}
		if ir.QueueDepth < 1 {
			t.Fatalf("queue depth %d, want >= 1 (includes this chunk)", ir.QueueDepth)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.DrainIngest(ctx); err != nil {
		t.Fatal(err)
	}
	// Every accepted chunk must have been ingested by the drainer.
	if got := defaultDep(t, s).Stats().Evaluated; got != int64(chunks*rows) {
		t.Fatalf("evaluated %d records after drain, want %d", got, chunks*rows)
	}
	// The final tick published; .../status reflects the drained state.
	var st statusResponse
	resp, err := client.Get(ts.URL + "/v1/deployments/default/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.SnapshotVersion != uint64(1+chunks) {
		t.Fatalf("snapshot version %d, want %d", st.SnapshotVersion, 1+chunks)
	}
	if st.IngestQueueDepth != 0 {
		t.Fatalf("queue depth %d after drain", st.IngestQueueDepth)
	}

	// After the drain, intake is closed: further ingest answers 503.
	resp, err = client.Post(ts.URL+"/v1/deployments/default/ingest", "text/plain", strings.NewReader(chunkBody(r, rows)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain ingest status %d, want 503", resp.StatusCode)
	}
	// DrainIngest is idempotent.
	if err := s.DrainIngest(ctx); err != nil {
		t.Fatal(err)
	}
}

// noLog is the ingest-log append of a deployment that has none.
func noLog([][]byte) (uint64, error) { return 0, nil }

// TestIngestQueueIdleReportsZeroAgeAndDepth races a full-speed consumer
// against every enqueue: once idle, the queue reports zero age and depth.
func TestIngestQueueIdleReportsZeroAgeAndDepth(t *testing.T) {
	q := newChunkQueue(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range q.ch {
			q.itemDone()
		}
	}()
	for i := 0; i < 1000; i++ {
		for {
			if _, err := q.enqueue(ingestItem{}, noLog); err == nil {
				break
			}
			runtime.Gosched() // full queue: let the consumer run
		}
	}
	q.close()
	<-done
	if age := q.oldestAge(); age != 0 {
		t.Fatalf("idle queue reports oldest age %v", age)
	}
	if d := q.depth(); d != 0 {
		t.Fatalf("idle queue depth %d, want 0", d)
	}
}

// TestIngestShuttingDownDistinctFromQueueFull pins the shutdown answer: a
// draining server refuses ingest with 503 shutting_down and no Retry-After
// — retrying a server that will never accept is pointless, and the old
// queue_full + Retry-After answer told clients to do exactly that.
func TestIngestShuttingDownDistinctFromQueueFull(t *testing.T) {
	s, ts := newTestServer(t)
	client := ts.Client()
	r := rand.New(rand.NewSource(16))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.DrainIngest(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(ts.URL+"/v1/deployments/default/ingest", "text/plain", strings.NewReader(chunkBody(r, 10)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining ingest status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Fatalf("draining 503 carries Retry-After %q; shutdown is not backpressure", ra)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != "shutting_down" {
		t.Fatalf("error code %q, want shutting_down", eb.Error.Code)
	}
}

// TestIngestWALSurfacesOnStatus runs the async ingest path against a
// deployment with a write-ahead ingest log: every 202'd chunk must be
// appended and, after the drain, committed — .../status's wal section is
// the observable contract.
func TestIngestWALSurfacesOnStatus(t *testing.T) {
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
		ProactiveEvery: 100,
		Metric:         &eval.Misclassification{},
		Predict:        core.ClassifyPredictor,
		IngestLog:      &wal.Options{Dir: t.TempDir()},
	}
	dep, err := core.NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := New(dep, WithSlog(nil))
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	client := ts.Client()
	r := rand.New(rand.NewSource(17))

	const chunks = 3
	for i := 0; i < chunks; i++ {
		resp, err := client.Post(ts.URL+"/v1/deployments/default/ingest", "text/plain", strings.NewReader(chunkBody(r, 20)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf(".../ingest status %d: %s", resp.StatusCode, body)
		}
		resp.Body.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.DrainIngest(ctx); err != nil {
		t.Fatal(err)
	}

	var st statusResponse
	resp, err := client.Get(ts.URL + "/v1/deployments/default/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.WAL == nil {
		t.Fatal(".../status has no wal section for a logged deployment")
	}
	if st.WAL.AppendedTotal != chunks || st.WAL.AppliedTotal != chunks {
		t.Fatalf("wal appended/applied = %d/%d, want %d/%d",
			st.WAL.AppendedTotal, st.WAL.AppliedTotal, chunks, chunks)
	}
	if st.WAL.PendingReplay != 0 {
		t.Fatalf("wal pending_replay = %d after drain, want 0", st.WAL.PendingReplay)
	}
	if st.WAL.LastSeq != chunks {
		t.Fatalf("wal last_seq = %d, want %d", st.WAL.LastSeq, chunks)
	}
}

// TestChaosConcurrentIngestTrainsInLogOrder posts chunks from concurrent
// clients to a logged deployment with proactive training on. The drainer
// must train them in the order the log holds them: the commit records name
// their data sequence numbers in increasing order, and a deployer that
// replays a copy of the log ends at the live payload, byte for byte.
func TestChaosConcurrentIngestTrainsInLogOrder(t *testing.T) {
	const clients, chunks = 8, 25
	cfg, dir := testConfig(), t.TempDir()
	cfg.IngestLog = &wal.Options{Dir: dir}
	dep, err := core.NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := New(dep, WithSlog(nil))
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	var wg sync.WaitGroup
	for c := range clients {
		r := rand.New(rand.NewSource(int64(100 + c)))
		bodies := make([]string, chunks)
		for i := range bodies {
			bodies[i] = chunkBody(r, 10)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, body := range bodies {
				resp, err := ts.Client().Post(ts.URL+"/v1/deployments/default/ingest", "text/plain", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf(".../ingest status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.DrainIngest(ctx); err != nil || t.Failed() {
		t.Fatal(err)
	}

	// The commit records, in log order.
	replayDir := t.TempDir()
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*"))
	if err != nil {
		t.Fatal(err)
	}
	var commits []uint64
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err == nil {
			err = os.WriteFile(filepath.Join(replayDir, filepath.Base(p)), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		for len(b) > 0 {
			f, next, err := snapstream.NextFrame("CDMLWAL1", p, b)
			if err != nil {
				t.Fatal(err)
			}
			if f.Payload[0] == 2 { // a commit record; its frame version is the data seq
				commits = append(commits, f.Version)
			}
			b = next
		}
	}
	inverted := 0
	for i := 1; i < len(commits); i++ {
		if commits[i] < commits[i-1] {
			inverted++
		}
	}
	if len(commits) != clients*chunks || inverted > 0 {
		t.Fatalf("%d commit records, %d of them after a higher sequence number: the drainer trained chunks out of log order", len(commits), inverted)
	}

	cfg = testConfig()
	cfg.IngestLog = &wal.Options{Dir: replayDir}
	replay, err := core.NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Shutdown()
	if n, err := replay.ReplayIngestLog(); err != nil || n != clients*chunks {
		t.Fatalf("replayed %d chunks (err %v), want %d", n, err, clients*chunks)
	}
	live, err := dep.Current().Frame()
	if err != nil {
		t.Fatal(err)
	}
	got, err := replay.Current().Frame()
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != live.Version || !bytes.Equal(got.Payload, live.Payload) {
		t.Fatalf("the replay ended at version %d, the live deployment at %d; payloads equal: %v",
			got.Version, live.Version, bytes.Equal(got.Payload, live.Payload))
	}
}

// gatedBackend blocks the first PutRaw calls until released, pinning the
// drainer goroutine inside Deployer.Ingest so the test can fill the queue
// deterministically.
type gatedBackend struct {
	data.Backend
	entered chan struct{}
	release chan struct{}
}

func (g *gatedBackend) PutRaw(rc data.RawChunk) error {
	g.entered <- struct{}{}
	<-g.release
	return g.Backend.PutRaw(rc)
}

func TestIngestQueueFullBackpressure(t *testing.T) {
	gate := &gatedBackend{
		Backend: data.NewMemoryBackend(),
		entered: make(chan struct{}, 16),
		release: make(chan struct{}),
	}
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
		Store:          data.NewStore(gate),
		Sampler:        sample.NewTime(1),
		SampleChunks:   3,
		ProactiveEvery: 100, // no proactive training: only PutRaw/PutFeatures hit the gate
		Metric:         &eval.Misclassification{},
		Predict:        core.ClassifyPredictor,
	}
	dep, err := core.NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(registry.Options{Metrics: dep.Metrics()})
	if _, err := reg.Adopt(DefaultDeployment, dep, registry.Quotas{MaxIngestQueue: 1}); err != nil {
		t.Fatal(err)
	}
	s := NewWithRegistry(reg, WithSlog(nil))
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	client := ts.Client()
	r := rand.New(rand.NewSource(12))

	post := func() *http.Response {
		t.Helper()
		resp, err := client.Post(ts.URL+"/v1/deployments/default/ingest", "text/plain", strings.NewReader(chunkBody(r, 20)))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Chunk A: accepted, drainer picks it up and blocks inside Ingest.
	resp := post()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("chunk A status %d", resp.StatusCode)
	}
	resp.Body.Close()
	<-gate.entered // drainer is now mid-tick; the channel buffer is empty

	// Chunk B: fills the capacity-1 buffer.
	resp = post()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("chunk B status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Chunk C: queue full — explicit 503 backpressure with a stable code
	// and a Retry-After hint the client can obey directly.
	resp = post()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("chunk C status %d, want 503", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("503 queue_full without Retry-After header")
	}
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 || secs > 60 {
		t.Fatalf("Retry-After %q, want an integer in [1, 60]", ra)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if eb.Error.Code != "queue_full" {
		t.Fatalf("error code %q, want queue_full", eb.Error.Code)
	}

	// Queue state is visible on .../status while the drainer is stuck.
	var st statusResponse
	resp, err = client.Get(ts.URL + "/v1/deployments/default/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.IngestQueueCapacity != 1 {
		t.Fatalf("capacity %d, want 1", st.IngestQueueCapacity)
	}
	if st.IngestQueueDepth != 2 {
		t.Fatalf("depth %d, want 2 (one in flight, one buffered)", st.IngestQueueDepth)
	}

	// Release the gate; both accepted chunks must finish training.
	close(gate.release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.DrainIngest(ctx); err != nil {
		t.Fatal(err)
	}
	if got := dep.Stats().Evaluated; got != 2*20 {
		t.Fatalf("evaluated %d records, want %d", got, 2*20)
	}
}

func TestStatusEndpointFields(t *testing.T) {
	_, ts := newTestServer(t)
	client := ts.Client()
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 3; i++ {
		resp, err := client.Post(ts.URL+"/v1/deployments/default/train", "text/plain", strings.NewReader(chunkBody(r, 25)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	resp, err := client.Get(ts.URL + "/v1/deployments/default/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf(".../status status %d", resp.StatusCode)
	}
	var st statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Mode != "continuous" {
		t.Fatalf("mode %q", st.Mode)
	}
	// Version 1 is the construction snapshot; each .../train tick republishes.
	if st.SnapshotVersion != 4 {
		t.Fatalf("snapshot version %d, want 4", st.SnapshotVersion)
	}
	builtAt, err := time.Parse(time.RFC3339Nano, st.SnapshotBuiltAt)
	if err != nil {
		t.Fatalf("snapshot_built_at %q: %v", st.SnapshotBuiltAt, err)
	}
	if time.Since(builtAt) > time.Minute {
		t.Fatalf("snapshot_built_at %v is stale", builtAt)
	}
	if st.SnapshotAgeSeconds < 0 {
		t.Fatalf("snapshot age %v negative", st.SnapshotAgeSeconds)
	}
	if st.IngestQueueCapacity != chunkQueueCap {
		t.Fatalf("capacity %d, want the cap %d", st.IngestQueueCapacity, chunkQueueCap)
	}
	if st.IngestAsyncErrors != 0 || st.IngestLastError != "" {
		t.Fatalf("unexpected async errors: %d %q", st.IngestAsyncErrors, st.IngestLastError)
	}
	if st.UptimeSeconds <= 0 {
		t.Fatalf("uptime %v", st.UptimeSeconds)
	}
}

func TestAsyncIngestErrorSurfacesOnStatus(t *testing.T) {
	// A backend that fails after a few operations makes an async tick fail;
	// the failure must land on .../status, not vanish into the drainer.
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
		Store:          data.NewStore(&failAfterBackend{Backend: data.NewMemoryBackend(), budget: 4}),
		Sampler:        sample.NewTime(1),
		SampleChunks:   3,
		ProactiveEvery: 100,
		Metric:         &eval.Misclassification{},
		Predict:        core.ClassifyPredictor,
	}
	dep, err := core.NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := New(dep, WithSlog(nil))
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	client := ts.Client()
	r := rand.New(rand.NewSource(14))

	for i := 0; i < 5; i++ {
		resp, err := client.Post(ts.URL+"/v1/deployments/default/ingest", "text/plain", strings.NewReader(chunkBody(r, 20)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.DrainIngest(ctx); err != nil {
		t.Fatal(err)
	}

	var st statusResponse
	resp, err := client.Get(ts.URL + "/v1/deployments/default/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.IngestAsyncErrors == 0 {
		t.Fatal("async tick failures not counted")
	}
	if st.IngestLastError == "" {
		t.Fatal("last async error not surfaced")
	}
}

// failAfterBackend errors every mutation once the budget is spent.
type failAfterBackend struct {
	data.Backend
	mu     sync.Mutex
	budget int
}

func (f *failAfterBackend) spend() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.budget--
	if f.budget < 0 {
		return errInjected{}
	}
	return nil
}

type errInjected struct{}

func (errInjected) Error() string { return "injected storage failure" }

func (f *failAfterBackend) PutRaw(rc data.RawChunk) error {
	if err := f.spend(); err != nil {
		return err
	}
	return f.Backend.PutRaw(rc)
}

func (f *failAfterBackend) PutFeatures(fc data.FeatureChunk) error {
	if err := f.spend(); err != nil {
		return err
	}
	return f.Backend.PutFeatures(fc)
}

// TestRestoreRacingPredictOverHTTP restores checkpoints while concurrent
// clients predict. Under -race this verifies the HTTP surface inherits the
// snapshot guarantee: .../restore swaps state atomically under the readers.
func TestRestoreRacingPredictOverHTTP(t *testing.T) {
	_, ts := newTestServer(t)
	client := ts.Client()
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 10; i++ {
		resp, err := client.Post(ts.URL+"/v1/deployments/default/train", "text/plain", strings.NewReader(chunkBody(r, 30)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	ckpt := snapshotBody(t, ts)

	const readers = 4
	stop := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(int64(100 + g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Post(ts.URL+"/v1/deployments/default/predict", "text/plain", strings.NewReader(chunkBody(rr, 10)))
				if err != nil {
					errs <- err
					return
				}
				var pr PredictResponse
				err = json.NewDecoder(resp.Body).Decode(&pr)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}

	for round := 0; round < 5; round++ {
		resp, err := client.Post(ts.URL+"/v1/deployments/default/restore", "application/octet-stream", bytes.NewReader(ckpt))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf(".../restore round %d status %d: %s", round, resp.StatusCode, body)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
)

// replicaTestConfig is newTestServer's config as a function, so a primary
// and its replica can be built from identical (but independent) specs — the
// precondition the replication protocol shares with real deployments.
func replicaTestConfig() core.Config {
	return core.Config{
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
}

// recordChunk generates n "label,x0,x1" records with y = sign(x0+x1).
func recordChunk(r *rand.Rand, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		x0, x1 := r.NormFloat64(), r.NormFloat64()
		y := "+1"
		if x0+x1 < 0 {
			y = "-1"
		}
		out[i] = []byte(fmt.Sprintf("%s,%.4f,%.4f", y, x0, x1))
	}
	return out
}

// newReplicaPrimary boots a trained single-deployment primary.
func newReplicaPrimary(t *testing.T, chunks int) (*Server, *httptest.Server) {
	t.Helper()
	dep, err := core.NewDeployer(replicaTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < chunks; i++ {
		if err := dep.Ingest(recordChunk(r, 40)); err != nil {
			t.Fatal(err)
		}
	}
	s := New(dep, WithSlog(nil))
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// newReplicaServer boots a replica of primaryURL from the same spec.
func newReplicaServer(t *testing.T, primaryURL string) (*Server, *httptest.Server) {
	t.Helper()
	dep, err := core.NewDeployer(replicaTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := New(dep, WithSlog(nil), WithReplicaOf(primaryURL, 10*time.Millisecond))
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func getStatus(t *testing.T, ts *httptest.Server) statusResponse {
	t.Helper()
	return statusOf(t, ts.URL+"/v1/deployments/default")
}

// waitReplicaVersion polls the replica's .../status until its snapshot
// version reaches want.
func waitReplicaVersion(t *testing.T, ts *httptest.Server, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st := getStatus(t, ts); st.SnapshotVersion >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("replica never reached snapshot version %d (at %d)",
		want, getStatus(t, ts).SnapshotVersion)
}

func predictions(t *testing.T, ts *httptest.Server, body string) []float64 {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/deployments/default/predict", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf(".../predict status %d", resp.StatusCode)
	}
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	return pr.Predictions
}

func trainChunks(t *testing.T, ts *httptest.Server, r *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		resp, err := ts.Client().Post(ts.URL+"/v1/deployments/default/train", "text/plain", strings.NewReader(chunkBody(r, 40)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf(".../train status %d", resp.StatusCode)
		}
	}
}

// TestReplicaSyncBitIdentical is the e2e pair: a replica converges on the
// primary's published snapshot and answers bit-identical predictions, then
// catches further training within the poll interval, with staleness visible
// in .../status.
func TestReplicaSyncBitIdentical(t *testing.T) {
	_, pts := newReplicaPrimary(t, 12)
	_, rts := newReplicaServer(t, pts.URL)

	pv := getStatus(t, pts).SnapshotVersion
	waitReplicaVersion(t, rts, pv)

	body := chunkBody(rand.New(rand.NewSource(99)), 30)
	want := predictions(t, pts, body)
	got := predictions(t, rts, body)
	if len(want) != len(got) {
		t.Fatalf("prediction count: primary %d, replica %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("prediction %d differs: primary %v, replica %v", i, want[i], got[i])
		}
	}

	// Train the primary further; the replica must converge again.
	trainChunks(t, pts, rand.New(rand.NewSource(8)), 5)
	pv2 := getStatus(t, pts).SnapshotVersion
	if pv2 <= pv {
		t.Fatalf("primary version did not advance: %d -> %d", pv, pv2)
	}
	waitReplicaVersion(t, rts, pv2)
	body2 := chunkBody(rand.New(rand.NewSource(100)), 30)
	want2, got2 := predictions(t, pts, body2), predictions(t, rts, body2)
	for i := range want2 {
		if want2[i] != got2[i] {
			t.Fatalf("post-catchup prediction %d differs", i)
		}
	}
	if !bytes.Equal(statePayload(t, rts), statePayload(t, pts)) {
		t.Fatal("the synced replica's state is not the primary's, byte for byte")
	}

	st := getStatus(t, rts)
	if st.Role != "replica" {
		t.Fatalf("replica role = %q, want replica", st.Role)
	}
	if st.Replica == nil {
		t.Fatal("replica status missing the replica section")
	}
	if st.Replica.VersionLag != 0 {
		t.Fatalf("synced replica reports version lag %d", st.Replica.VersionLag)
	}
	if st.Replica.Applies < 1 || st.Replica.Polls < st.Replica.Applies {
		t.Fatalf("implausible sync counters: polls %d, applies %d", st.Replica.Polls, st.Replica.Applies)
	}
	if st.Replica.SnapshotVersion != pv2 {
		t.Fatalf("replica applied version %d, want %d", st.Replica.SnapshotVersion, pv2)
	}
}

// TestReplicaRejectsWrites pins every state-changing endpoint to 409
// read_only_replica on a replica.
func TestReplicaRejectsWrites(t *testing.T) {
	_, pts := newReplicaPrimary(t, 4)
	_, rts := newReplicaServer(t, pts.URL)
	waitReplicaVersion(t, rts, getStatus(t, pts).SnapshotVersion)

	cases := []struct{ method, path string }{
		{http.MethodPost, "/v1/deployments/default/train"},
		{http.MethodPost, "/v1/deployments/default/ingest"},
		{http.MethodPost, "/v1/deployments/default/restore"},
		{http.MethodPost, "/v1/deployments/default/train"},
		{http.MethodPost, "/v1/deployments/default/checkpoint"},
		{http.MethodPost, "/v1/deployments/default/challengers"},
		{http.MethodDelete, "/v1/deployments/default/challengers"},
		{http.MethodPost, "/v1/deployments/default/rollback"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, rts.URL+c.path, strings.NewReader("+1,0.1,0.2\n"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := rts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("%s %s status %d, want 409", c.method, c.path, resp.StatusCode)
		}
		if err != nil || eb.Error.Code != "read_only_replica" {
			t.Fatalf("%s %s error code %q, want read_only_replica", c.method, c.path, eb.Error.Code)
		}
	}

	// Reads keep answering.
	for _, path := range []string{"/v1/deployments/default/predict", "/v1/deployments/default/status", "/v1/deployments/default/stats"} {
		var resp *http.Response
		var err error
		if path == "/v1/deployments/default/predict" {
			resp, err = rts.Client().Post(rts.URL+path, "text/plain", strings.NewReader("+1,0.1,0.2\n"))
		} else {
			resp, err = rts.Client().Get(rts.URL + path)
		}
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s on replica status %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestReplicaTornFrameFallsBack serves the replica a truncated frame over
// HTTP: the poll fails loudly in the sync counters while the replica keeps
// answering from its last good snapshot.
func TestReplicaTornFrameFallsBack(t *testing.T) {
	dep, err := core.NewDeployer(replicaTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		if err := dep.Ingest(recordChunk(r, 40)); err != nil {
			t.Fatal(err)
		}
	}
	f, ok, err := dep.FrameSince(0)
	if err != nil || !ok {
		t.Fatalf("frame from trained deployer: ok=%v err=%v", ok, err)
	}
	good := snapstream.EncodeFrame(f)
	torn := snapstream.EncodeFrame(snapstream.Frame{Version: f.Version + 1, Payload: f.Payload})
	torn = torn[:len(torn)/2]

	var serveTorn atomic.Bool
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if serveTorn.Load() {
			w.Header().Set(snapstream.VersionHeader, strconv.FormatUint(f.Version+1, 10))
			_, _ = w.Write(torn)
			return
		}
		w.Header().Set(snapstream.VersionHeader, strconv.FormatUint(f.Version, 10))
		if since, _ := strconv.ParseUint(req.URL.Query().Get("since"), 10, 64); since >= f.Version {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		_, _ = w.Write(good)
	}))
	t.Cleanup(fake.Close)

	_, rts := newReplicaServer(t, fake.URL)
	waitReplicaVersion(t, rts, f.Version)
	body := chunkBody(rand.New(rand.NewSource(42)), 20)
	baseline := predictions(t, rts, body)

	serveTorn.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := getStatus(t, rts); st.Replica != nil && st.Replica.SyncErrors >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("torn frames never surfaced as sync errors")
		}
		time.Sleep(5 * time.Millisecond)
	}

	st := getStatus(t, rts)
	if st.Replica.SnapshotVersion != f.Version {
		t.Fatalf("torn frame was applied: version %d, want %d", st.Replica.SnapshotVersion, f.Version)
	}
	if st.Replica.VersionLag < 1 {
		t.Fatalf("version lag %d, want >= 1 while the primary advertises a newer version", st.Replica.VersionLag)
	}
	if !strings.Contains(st.Replica.LastSyncError, "torn") {
		t.Fatalf("last sync error %q does not name the torn frame", st.Replica.LastSyncError)
	}
	after := predictions(t, rts, body)
	for i := range baseline {
		if baseline[i] != after[i] {
			t.Fatalf("prediction %d changed after torn sync; replica left its good snapshot", i)
		}
	}
}

// TestReplicaFollowsAPrimaryBack: a primary that comes back at a lower
// version (it restarted and recovered less than it had published) is
// followed there within a few polls — the replica serves the primary's
// state again and reports the primary's version, with no lag.
func TestReplicaFollowsAPrimaryBack(t *testing.T) {
	trained := func(chunks int, seed int64) (*core.Deployer, snapstream.Frame) {
		t.Helper()
		dep, err := core.NewDeployer(replicaTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < chunks; i++ {
			if err := dep.Ingest(recordChunk(r, 40)); err != nil {
				t.Fatal(err)
			}
		}
		f, _, err := dep.FrameSince(0)
		if err != nil {
			t.Fatal(err)
		}
		return dep, f
	}
	_, high := trained(8, 7)
	low, lowFrame := trained(4, 8)
	var current atomic.Pointer[snapstream.Frame]
	current.Store(&high)
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		f := current.Load()
		w.Header().Set(snapstream.VersionHeader, strconv.FormatUint(f.Version, 10))
		if since, _ := strconv.ParseUint(req.URL.Query().Get("since"), 10, 64); since >= f.Version {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		_, _ = w.Write(snapstream.EncodeFrame(*f))
	}))
	t.Cleanup(fake.Close)

	_, rts := newReplicaServer(t, fake.URL)
	waitReplicaVersion(t, rts, high.Version)
	current.Store(&lowFrame)
	deadline := time.Now().Add(5 * time.Second)
	var st statusResponse
	for {
		if st = getStatus(t, rts); st.Replica.SnapshotVersion == lowFrame.Version || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Replica.SnapshotVersion != lowFrame.Version || st.Replica.VersionLag != 0 {
		t.Fatalf("after the primary went back %d -> %d the replica holds %d with lag %d",
			high.Version, lowFrame.Version, st.Replica.SnapshotVersion, st.Replica.VersionLag)
	}
	if st.SnapshotVersion <= high.Version {
		t.Fatalf("the replica published the primary's older state at version %d, not after %d", st.SnapshotVersion, high.Version)
	}
	body := chunkBody(rand.New(rand.NewSource(13)), 30)
	want, err := low.Predict(bytes.Split([]byte(strings.TrimSpace(body)), []byte("\n")))
	if err != nil {
		t.Fatal(err)
	}
	got := predictions(t, rts, body)
	if len(got) != len(want) {
		t.Fatalf("prediction counts: primary %d, replica %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("prediction %d: replica %v, the primary's state %v", i, got[i], want[i])
		}
	}
}

// TestChaosReplicaKillResync kills a synced replica, trains the primary
// on, and verifies a fresh replica resyncs to bit-identical predictions —
// the recovery story of the replication protocol.
func TestChaosReplicaKillResync(t *testing.T) {
	_, pts := newReplicaPrimary(t, 10)
	s1, rts1 := newReplicaServer(t, pts.URL)
	pv := getStatus(t, pts).SnapshotVersion
	waitReplicaVersion(t, rts1, pv)

	// Kill the replica mid-flight.
	rts1.Close()
	s1.Close()

	// The primary keeps training while the replica is down.
	trainChunks(t, pts, rand.New(rand.NewSource(11)), 6)
	pv2 := getStatus(t, pts).SnapshotVersion
	if pv2 <= pv {
		t.Fatalf("primary version did not advance past %d", pv)
	}

	// A fresh replica resyncs from scratch and converges bit-identically.
	_, rts2 := newReplicaServer(t, pts.URL)
	waitReplicaVersion(t, rts2, pv2)
	body := chunkBody(rand.New(rand.NewSource(12)), 30)
	want, got := predictions(t, pts, body), predictions(t, rts2, body)
	if len(want) == 0 || len(want) != len(got) {
		t.Fatalf("prediction counts: primary %d, replica %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("resynced prediction %d differs", i)
		}
	}
	if !bytes.Equal(statePayload(t, rts2), statePayload(t, pts)) {
		t.Fatal("the resynced replica's state is not the primary's, byte for byte")
	}
}

// TestChaosPredictDuringReplicaSwap hammers a replica's lock-free predict
// path while its poller concurrently swaps in freshly trained snapshots —
// the replica-side mirror of TestPredictDuringRetrain, run under -race by
// make chaos.
func TestChaosPredictDuringReplicaSwap(t *testing.T) {
	_, pts := newReplicaPrimary(t, 5)
	dep, err := core.NewDeployer(replicaTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := New(dep, WithSlog(nil), WithReplicaOf(pts.URL, time.Millisecond))
	rts := httptest.NewServer(s)
	t.Cleanup(func() { rts.Close(); s.Close() })
	waitReplicaVersion(t, rts, getStatus(t, pts).SnapshotVersion)

	done := make(chan struct{})
	var trainErr error
	go func() {
		defer close(done)
		r := rand.New(rand.NewSource(21))
		for i := 0; i < 15; i++ {
			resp, err := pts.Client().Post(pts.URL+"/v1/deployments/default/train", "text/plain", strings.NewReader(chunkBody(r, 40)))
			if err != nil {
				trainErr = err
				return
			}
			resp.Body.Close()
		}
	}()

	var wg sync.WaitGroup
	var bad atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := rts.Client().Post(rts.URL+"/v1/deployments/default/predict", "text/plain", strings.NewReader(chunkBody(r, 10)))
				if err != nil {
					bad.Add(1)
					return
				}
				if resp.StatusCode != http.StatusOK {
					bad.Add(1)
				}
				resp.Body.Close()
			}
		}(int64(30 + g))
	}
	wg.Wait()
	<-done
	if trainErr != nil {
		t.Fatal(trainErr)
	}
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d predict requests failed during replica swaps", n)
	}

	// After training settles, the pair converges bit-identically.
	pv := getStatus(t, pts).SnapshotVersion
	waitReplicaVersion(t, rts, pv)
	body := chunkBody(rand.New(rand.NewSource(50)), 20)
	want, got := predictions(t, pts, body), predictions(t, rts, body)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("prediction %d differs after concurrent swaps", i)
		}
	}
	if !bytes.Equal(statePayload(t, rts), statePayload(t, pts)) {
		t.Fatal("after concurrent swaps the replica's state is not the primary's, byte for byte")
	}
}

// TestTrainOverQuota: max_store_chunks is the store's N, not a refusal —
// /train past it answers 200 and the deployment keeps its newest N chunks.
func TestTrainOverQuota(t *testing.T) {
	const n = 2
	reg := registry.New(registry.Options{})
	cfg := replicaTestConfig()
	if _, err := reg.Create("q", cfg, registry.Quotas{MaxStoreChunks: n}); err != nil {
		t.Fatal(err)
	}
	s := NewWithRegistry(reg, WithSlog(nil))
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close(); reg.Close() })

	r := rand.New(rand.NewSource(5))
	for i := 0; i < 2*n; i++ {
		resp, err := ts.Client().Post(ts.URL+"/v1/deployments/q/train", "text/plain", strings.NewReader(chunkBody(r, 10)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("train %d with N = %d: status %d, want 200", i+1, n, resp.StatusCode)
		}
	}
	if got := cfg.Store.RawIDs(); len(got) != n || got[0] != n || got[n-1] != 2*n-1 {
		t.Fatalf("store holds chunks %v, want the newest %d", got, n)
	}
}

// TestSnapshotEndpointProtocol pins the replication feed's wire contract:
// a full self-validating frame without ?since=, 304 with the current
// version header when ?since= is current, and 400 on garbage.
func TestSnapshotEndpointProtocol(t *testing.T) {
	_, pts := newReplicaPrimary(t, 6)
	v := getStatus(t, pts).SnapshotVersion

	resp, err := pts.Client().Get(pts.URL + "/v1/deployments/default/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 0)
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		raw = append(raw, buf[:n]...)
		if err != nil {
			break
		}
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(snapstream.VersionHeader); got != strconv.FormatUint(v, 10) {
		t.Fatalf("version header %q, want %d", got, v)
	}
	f, err := snapstream.DecodeFrame("feed", raw)
	if err != nil {
		t.Fatalf("feed frame does not decode: %v", err)
	}
	if f.Version != v {
		t.Fatalf("frame version %d, want %d", f.Version, v)
	}

	resp2, err := pts.Client().Get(pts.URL + "/v1/deployments/default/snapshot?since=" + strconv.FormatUint(v, 10))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional snapshot status %d, want 304", resp2.StatusCode)
	}
	if got := resp2.Header.Get(snapstream.VersionHeader); got != strconv.FormatUint(v, 10) {
		t.Fatalf("304 version header %q, want %d", got, v)
	}

	resp3, err := pts.Client().Get(pts.URL + "/v1/deployments/default/snapshot?since=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage since: status %d, want 400", resp3.StatusCode)
	}
}

// TestFailedTickWindowServesTheLastVersion drives the failed-tick window over
// HTTP: a tick that fails after its online step publishes nothing, so GET
// .../snapshot answers 200 with version V's frame — byte-equal to the one
// downloaded before the failing tick — an up-to-date poll gets its 304, POST
// .../checkpoint writes V, and a replica that boots into the window applies
// V and catches up once the next successful tick publishes.
func TestFailedTickWindowServesTheLastVersion(t *testing.T) {
	fault := data.NewFaultBackend(data.NewMemoryBackend())
	cfg := replicaTestConfig()
	cfg.Store = data.NewStore(fault)
	cfg.ProactiveEvery = 1
	cfg.AutoCheckpoint = &core.CheckpointPolicy{Dir: t.TempDir(), EveryTicks: 1 << 20}
	dep, err := core.NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 3; i++ {
		if err := dep.Ingest(recordChunk(r, 40)); err != nil {
			t.Fatal(err)
		}
	}
	ps := New(dep, WithSlog(nil))
	pts := httptest.NewServer(ps)
	t.Cleanup(func() { pts.Close(); ps.Close() })
	published := getStatus(t, pts).SnapshotVersion
	base := pts.URL + "/v1/deployments/default"
	download := func() []byte {
		t.Helper()
		resp, err := pts.Client().Get(base + "/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body bytes.Buffer
		if _, err := body.ReadFrom(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET .../snapshot: status %d (%v)", resp.StatusCode, err)
		}
		return body.Bytes()
	}
	want := download()

	fault.FailN(data.OpGetFeatures, 1<<20, fmt.Errorf("injected store failure"))
	resp, err := pts.Client().Post(base+"/train", "text/plain", strings.NewReader(chunkBody(r, 40)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("train with a failing gather: status %d, want 500", resp.StatusCode)
	}
	failed := getStatus(t, pts)
	if got := failed.SnapshotVersion; got != published {
		t.Fatalf("the failed tick published: version %d, want %d", got, published)
	}
	// The failed tick is the last one recorded, up to the stage that failed.
	if lt := failed.LastTick; lt == nil || lt.TraceID != resp.Header.Get("X-Trace-ID") || lt.StagesMS["proactive-train"] <= 0 {
		t.Fatalf("last_tick after the failed tick (trace %s): %+v", resp.Header.Get("X-Trace-ID"), lt)
	}

	if got := download(); !bytes.Equal(got, want) {
		t.Fatalf("GET .../snapshot in the window is not version %d's frame", published)
	}
	resp, err = pts.Client().Post(base+"/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var now checkpointNowResponse
	derr := json.NewDecoder(resp.Body).Decode(&now)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || derr != nil || now.Version != published {
		t.Fatalf("POST checkpoint in the window: status %d version %d (%v), want 200 at %d",
			resp.StatusCode, now.Version, derr, published)
	}
	f, err := snapstream.ReadFile(now.Path)
	if err != nil || !bytes.Equal(snapstream.EncodeFrame(f), want) {
		t.Fatalf("the checkpoint written in the window is not version %d's frame (%v)", published, err)
	}
	resp, err = pts.Client().Get(base + "/snapshot?since=" + strconv.FormatUint(published, 10))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified || resp.Header.Get(snapstream.VersionHeader) != strconv.FormatUint(published, 10) {
		t.Fatalf("up-to-date poll in the window: status %d version %q, want 304 at %d",
			resp.StatusCode, resp.Header.Get(snapstream.VersionHeader), published)
	}

	// A replica that boots into the window gets V.
	_, rts := newReplicaServer(t, pts.URL)
	waitReplicaVersion(t, rts, published)

	// The next successful tick publishes for everyone.
	fault.Reset()
	trainChunks(t, pts, r, 1)
	waitReplicaVersion(t, rts, published+1)
}

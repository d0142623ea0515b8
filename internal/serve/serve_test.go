package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cdml/internal/core"
	"cdml/internal/data"
	"cdml/internal/dataset"
	"cdml/internal/eval"
	"cdml/internal/model"
	"cdml/internal/opt"
	"cdml/internal/pipeline"
	"cdml/internal/sample"
	"cdml/internal/snapstream"
)

// testParser parses "label,x0,x1".
type testParser struct{}

func (testParser) Name() string { return "serve-test-parser" }

func (testParser) Parse(records [][]byte) (*data.Frame, error) {
	var ys, x0s, x1s []float64
	for _, rec := range records {
		parts := bytes.Split(rec, []byte(","))
		if len(parts) != 3 {
			continue
		}
		y, e1 := strconv.ParseFloat(string(parts[0]), 64)
		x0, e2 := strconv.ParseFloat(string(parts[1]), 64)
		x1, e3 := strconv.ParseFloat(string(parts[2]), 64)
		if e1 != nil || e2 != nil || e3 != nil {
			continue
		}
		ys = append(ys, y)
		x0s = append(x0s, x0)
		x1s = append(x1s, x1)
	}
	f := data.NewFrame(len(ys))
	f.SetFloat("label", ys)
	f.SetFloat("x0", x0s)
	f.SetFloat("x1", x1s)
	return f, nil
}

// testConfig is newTestServer's deployment: a fresh store and sampler each
// call, so two deployers built from it start in the same state.
func testConfig() core.Config {
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

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	dep, err := core.NewDeployer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := New(dep, WithSlog(nil))
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// defaultDep resolves the deployer serving the "default" deployment, which
// the old single-deployment API exposed as a server field.
func defaultDep(t *testing.T, s *Server) *core.Deployer {
	t.Helper()
	d, ok := s.registry.Get(DefaultDeployment)
	if !ok {
		t.Fatal("no default deployment")
	}
	return d.Serving()
}

// snapshotBody is GET .../snapshot without ?since=: the frame a restore
// takes.
func snapshotBody(t *testing.T, ts *httptest.Server) []byte {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/deployments/default/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK || len(b) == 0 {
		t.Fatalf("GET .../snapshot: status %d, %d bytes, %v", resp.StatusCode, len(b), err)
	}
	return b
}

// statePayload is the server's whole state as its snapshot payload. Equal
// state is equal payloads (DESIGN.md §5n); the frame around it also carries
// the version, which two servers in the same state need not share.
func statePayload(t *testing.T, ts *httptest.Server) []byte {
	t.Helper()
	f, err := snapstream.DecodeFrame("snapshot", snapshotBody(t, ts))
	if err != nil {
		t.Fatal(err)
	}
	return f.Payload
}

func chunkBody(r *rand.Rand, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		x0, x1 := r.NormFloat64(), r.NormFloat64()
		y := "+1"
		if x0+x1 < 0 {
			y = "-1"
		}
		fmt.Fprintf(&b, "%s,%.4f,%.4f\n", y, x0, x1)
	}
	return b.String()
}

func TestTrainThenPredict(t *testing.T) {
	_, ts := newTestServer(t)
	r := rand.New(rand.NewSource(1))
	client := ts.Client()

	// Train over several chunks.
	for i := 0; i < 20; i++ {
		resp, err := client.Post(ts.URL+"/v1/deployments/default/train", "text/plain", strings.NewReader(chunkBody(r, 40)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf(".../train status %d", resp.StatusCode)
		}
		var tr trainResponse
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if tr.Ingested != 40 {
			t.Fatalf("ingested %d", tr.Ingested)
		}
	}

	// Predict on fresh data.
	resp, err := client.Post(ts.URL+"/v1/deployments/default/predict", "text/plain", strings.NewReader(chunkBody(r, 100)))
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
	if pr.Served != 100 || len(pr.Predictions) != 100 {
		t.Fatalf("served %d, preds %d", pr.Served, len(pr.Predictions))
	}
	for _, p := range pr.Predictions {
		if p != 1 && p != -1 {
			t.Fatalf("prediction %v not a class label", p)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	r := rand.New(rand.NewSource(2))
	client := ts.Client()
	for i := 0; i < 6; i++ {
		resp, err := client.Post(ts.URL+"/v1/deployments/default/train", "text/plain", strings.NewReader(chunkBody(r, 20)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := client.Get(ts.URL + "/v1/deployments/default/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Mode != "continuous" {
		t.Fatalf("mode %q", st.Mode)
	}
	if st.Evaluated != 120 {
		t.Fatalf("evaluated %d, want 120", st.Evaluated)
	}
	if st.ProactiveRuns == 0 {
		t.Fatal("no proactive training over 6 chunks with period 2")
	}
	if st.CostSeconds <= 0 {
		t.Fatal("no cost recorded")
	}
	if st.RecentEvaluated != 120 || st.RecentLoss <= 0 || st.RecentLoss > 1 {
		t.Fatalf("recent loss %v over %d records, want a loss in (0, 1] over 120", st.RecentLoss, st.RecentEvaluated)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestMethodValidation(t *testing.T) {
	_, ts := newTestServer(t)
	client := ts.Client()
	cases := []struct {
		method, path string
	}{
		{http.MethodGet, "/v1/deployments/default/predict"},
		{http.MethodGet, "/v1/deployments/default/train"},
		{http.MethodPost, "/v1/deployments/default/stats"},
	}
	for _, c := range cases {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, nil)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status %d", c.method, c.path, resp.StatusCode)
		}
	}
}

func TestEmptyBodyRejected(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/v1/deployments/default/predict", "/v1/deployments/default/train"} {
		resp, err := ts.Client().Post(ts.URL+path, "text/plain", strings.NewReader("\n\n"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
}

func TestMalformedRecordsDroppedNotFatal(t *testing.T) {
	_, ts := newTestServer(t)
	body := "+1,0.5,0.5\ngarbage-line\n-1,-0.5,-0.5\n"
	resp, err := ts.Client().Post(ts.URL+"/v1/deployments/default/predict", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Served != 2 || pr.Dropped != 1 {
		t.Fatalf("served %d dropped %d", pr.Served, pr.Dropped)
	}
}

func TestCRLFBodies(t *testing.T) {
	_, ts := newTestServer(t)
	body := "+1,0.5,0.5\r\n-1,-0.5,-0.5\r\n"
	resp, err := ts.Client().Post(ts.URL+"/v1/deployments/default/predict", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Served != 2 {
		t.Fatalf("served %d with CRLF endings", pr.Served)
	}
}

func TestConcurrentTrainAndPredict(t *testing.T) {
	_, ts := newTestServer(t)
	client := ts.Client()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 8; i++ {
				resp, err := client.Post(ts.URL+"/v1/deployments/default/train", "text/plain", strings.NewReader(chunkBody(r, 10)))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
			}
		}(int64(g))
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + 100))
			for i := 0; i < 8; i++ {
				resp, err := client.Post(ts.URL+"/v1/deployments/default/predict", "text/plain", strings.NewReader(chunkBody(r, 10)))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestCheckpointRestoreOverHTTP(t *testing.T) {
	_, ts := newTestServer(t)
	client := ts.Client()
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 10; i++ {
		resp, err := client.Post(ts.URL+"/v1/deployments/default/train", "text/plain", strings.NewReader(chunkBody(r, 30)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	// Download the trained server's snapshot.
	snapshot := snapshotBody(t, ts)

	// Push it into a fresh server and compare predictions.
	_, ts2 := newTestServer(t)
	resp2, err := ts2.Client().Post(ts2.URL+"/v1/deployments/default/restore", "application/octet-stream", bytes.NewReader(snapshot))
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp2.Body)
		t.Fatalf(".../restore status %d: %s", resp2.StatusCode, body)
	}
	resp2.Body.Close()

	query := chunkBody(r, 50)
	var preds [2]PredictResponse
	for i, url := range []string{ts.URL, ts2.URL} {
		resp, err := client.Post(url+"/v1/deployments/default/predict", "text/plain", strings.NewReader(query))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&preds[i]); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	for i := range preds[0].Predictions {
		if preds[0].Predictions[i] != preds[1].Predictions[i] {
			t.Fatalf("prediction %d differs after HTTP restore", i)
		}
	}
}

// TestRestoreRefusesUntaggedPayload: a restore body is one snapshot frame
// around one snapshot payload (DESIGN.md §5i, §5n). Core's committed
// checkpoint file restores to the state it was written from — GET
// .../snapshot then frames the fixture's payload byte for byte — and a
// damaged body, a bare payload (named: not a frame), or a frame whose
// payload does not open with the payload tag (here the first bytes of a gob
// stream; named: the tag) is a 400 that leaves the serving state as it was.
func TestRestoreRefusesUntaggedPayload(t *testing.T) {
	wire, err := os.ReadFile(filepath.Join("..", "core", "testdata", "ckpt-v2-url.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	fixture, err := snapstream.DecodeFrame("fixture", wire)
	if err != nil {
		t.Fatal(err)
	}
	v2 := fixture.Payload
	// The deployment core's fixtures were written from (core.v1Fixture).
	dep, err := core.NewDeployer(core.Config{
		Mode:           core.ModeContinuous,
		NewPipeline:    func() *pipeline.Pipeline { return dataset.NewURLPipeline(256) },
		NewModel:       func() model.Model { return dataset.NewURLModel(256, 1e-3) },
		NewOptimizer:   func() opt.Optimizer { return opt.NewAdam(0.05) },
		Store:          data.NewStore(data.NewMemoryBackend()),
		Sampler:        sample.NewTime(1),
		SampleChunks:   5,
		ProactiveEvery: 4,
		Metric:         &eval.Misclassification{},
		Predict:        core.ClassifyPredictor,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(dep, WithSlog(nil)))
	t.Cleanup(ts.Close)
	restore := func(body []byte) (int, string) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/deployments/default/restore", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		answer, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(answer)
	}
	framed := func(payload []byte) []byte {
		return snapstream.EncodeFrame(snapstream.Frame{Version: fixture.Version, Payload: payload})
	}

	fresh := statePayload(t, ts)
	if bytes.Equal(fresh, v2) {
		t.Fatal("setup: a fresh deployment already holds the fixture's state")
	}
	for name, c := range map[string]struct {
		body  []byte
		named string
	}{
		"a torn frame":                {wire[:len(wire)/2], "torn"},
		"a frame grown":               {append(append([]byte(nil), wire...), 0), "after the frame"},
		"a bare payload":              {v2, "not a checkpoint frame"},
		"a frame, payload tag broken": {framed(append([]byte{'c'}, v2[1:]...)), string(v2[:8])},
		"a frame around a gob stream": {framed([]byte("a\x7f\x03\x01\x01\x08snapshot\x01\xff\x80\x00\x01\x08\x01\x04Kind\x01\x0c\x00")), string(v2[:8])},
	} {
		status, answer := restore(c.body)
		if status != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, status)
		}
		if !strings.Contains(answer, c.named) {
			t.Fatalf("%s: the refusal does not say %q: %s", name, c.named, answer)
		}
		if !bytes.Equal(statePayload(t, ts), fresh) {
			t.Fatalf("%s was refused but changed the serving state", name)
		}
	}
	if status, answer := restore(wire); status != http.StatusOK {
		t.Fatalf("restoring the committed checkpoint: status %d: %s", status, answer)
	}
	if !bytes.Equal(statePayload(t, ts), v2) {
		t.Fatal("the state restored from the v2 frame does not encode to its payload")
	}
}

// TestRestoreBodyIsChecksummed flips every bit of a restore body. A flip
// in the magic, the length, the payload or the CRC answers 400 and leaves
// the published version where it was; the version field is not under the
// CRC, and a flip there can only move the published version forward — past
// the serving one, or to the next.
func TestRestoreBodyIsChecksummed(t *testing.T) {
	_, src := newTestServer(t)
	trainChunks(t, src, rand.New(rand.NewSource(3)), 4)
	body := snapshotBody(t, src)
	s, _ := newTestServer(t)
	dep := defaultDep(t, s)
	restore := func(b []byte) int {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/deployments/default/restore", bytes.NewReader(b)))
		return rec.Code
	}
	const versionAt, versionEnd = 8, 16
	for i := range body {
		for bit := 0; bit < 8; bit++ {
			b := bytes.Clone(body)
			b[i] ^= 1 << bit
			before := dep.Published().Version()
			code := restore(b)
			after := dep.Published().Version()
			if i >= versionAt && i < versionEnd {
				if code != http.StatusOK || after <= before {
					t.Fatalf("version bit %d.%d: status %d, version %d -> %d, want 200 and forward", i, bit, code, before, after)
				}
				continue
			}
			if code != http.StatusBadRequest || after != before {
				t.Fatalf("bit %d.%d of a %d-byte body: status %d, version %d -> %d, want 400 and unchanged",
					i, bit, len(body), code, before, after)
			}
		}
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := ts.Client().Post(ts.URL+"/v1/deployments/default/restore", "application/octet-stream", strings.NewReader("garbage"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// zeros is an endless stream of zero bytes (the test bounds it with
// io.LimitReader); an io.Reader body forces chunked encoding, so the server
// cannot rely on Content-Length and must detect the overflow while reading.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

// TestRestoreOversizedBodyIs413 covers the truncation bug: a checkpoint
// larger than the body cap used to be silently cut at the cap and surfaced
// as a confusing 400 decode error. It must be a 413 with a stable code,
// whether the size is declared up front or discovered mid-stream.
func TestRestoreOversizedBodyIs413(t *testing.T) {
	_, ts := newTestServer(t)
	const tooBig = maxBody + 1

	check := func(t *testing.T, resp *http.Response) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413", resp.StatusCode)
		}
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatal(err)
		}
		if eb.Error.Code != "payload_too_large" {
			t.Fatalf("error code %q, want payload_too_large", eb.Error.Code)
		}
	}

	t.Run("content-length", func(t *testing.T) {
		// bytes.Reader bodies carry Content-Length, so the server can refuse
		// before reading the payload.
		resp, err := ts.Client().Post(ts.URL+"/v1/deployments/default/restore", "application/octet-stream",
			bytes.NewReader(make([]byte, tooBig)))
		if err != nil {
			t.Fatal(err)
		}
		check(t, resp)
	})

	t.Run("chunked", func(t *testing.T) {
		resp, err := ts.Client().Post(ts.URL+"/v1/deployments/default/restore", "application/octet-stream",
			io.LimitReader(zeros{}, tooBig))
		if err != nil {
			t.Fatal(err)
		}
		check(t, resp)
	})
}

// TestRestoreOversizedBodyNotApplied pins down the order of validation: a
// valid checkpoint followed by trailing bytes that push the body past the
// cap must be rejected with 413 *without* having been applied — the
// handler used to restore first and size-check afterwards, replacing the
// live model and then telling the client it had not.
func TestRestoreOversizedBodyNotApplied(t *testing.T) {
	// Source of a decodable checkpoint: a trained server.
	_, ts1 := newTestServer(t)
	r := rand.New(rand.NewSource(41))
	for i := 0; i < 5; i++ {
		resp, err := ts1.Client().Post(ts1.URL+"/v1/deployments/default/train", "text/plain", strings.NewReader(chunkBody(r, 30)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	snapshot := snapshotBody(t, ts1)

	// Target: a fresh server whose live state must survive the rejection.
	s2, ts2 := newTestServer(t)
	before := defaultDep(t, s2).Current().Version()
	// io.MultiReader has no Content-Length, so the overflow is only
	// discoverable mid-stream — after the valid checkpoint prefix.
	body := io.MultiReader(bytes.NewReader(snapshot), io.LimitReader(zeros{}, maxBody+1))
	resp2, err := ts2.Client().Post(ts2.URL+"/v1/deployments/default/restore", "application/octet-stream", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp2.StatusCode)
	}
	if got := defaultDep(t, s2).Current().Version(); got != before {
		t.Fatalf("rejected restore was applied anyway: snapshot version %d, want unchanged %d", got, before)
	}
}

// TestErrorEnvelope checks the uniform {"error":{"code","message"}} shape
// and the machine-readable codes.
func TestErrorEnvelope(t *testing.T) {
	_, ts := newTestServer(t)
	client := ts.Client()
	cases := []struct {
		name       string
		do         func() (*http.Response, error)
		wantStatus int
		wantCode   string
	}{
		{"empty body", func() (*http.Response, error) {
			return client.Post(ts.URL+"/v1/deployments/default/predict", "text/plain", strings.NewReader("\n"))
		}, http.StatusBadRequest, "bad_request"},
		{"wrong method", func() (*http.Response, error) {
			req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/deployments/default/train", nil)
			return client.Do(req)
		}, http.StatusMethodNotAllowed, "method_not_allowed"},
		{"bad trace n", func() (*http.Response, error) {
			return client.Get(ts.URL + "/v1/deployments/default/trace?n=abc")
		}, http.StatusBadRequest, "bad_request"},
	}
	for _, c := range cases {
		resp, err := c.do()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if resp.StatusCode != c.wantStatus {
			t.Fatalf("%s: status %d, want %d", c.name, resp.StatusCode, c.wantStatus)
		}
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("%s: decoding envelope: %v", c.name, err)
		}
		resp.Body.Close()
		if eb.Error.Code != c.wantCode {
			t.Fatalf("%s: code %q, want %q", c.name, eb.Error.Code, c.wantCode)
		}
		if eb.Error.Message == "" {
			t.Fatalf("%s: empty error message", c.name)
		}
	}
}

func TestCheckpointMethodValidation(t *testing.T) {
	_, ts := newTestServer(t)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/deployments/default/checkpoint", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "POST" {
		t.Fatalf("DELETE .../checkpoint status %d, Allow %q", resp.StatusCode, resp.Header.Get("Allow"))
	}
	// The download is GET .../snapshot; .../checkpoint only writes one.
	resp, err = ts.Client().Get(ts.URL + "/v1/deployments/default/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "POST" {
		t.Fatalf("GET .../checkpoint status %d, Allow %q", resp.StatusCode, resp.Header.Get("Allow"))
	}
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/v1/deployments/default/restore", nil)
	resp2, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET .../restore status %d", resp2.StatusCode)
	}
}

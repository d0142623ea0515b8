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
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cdml/internal/core"
	"cdml/internal/data"
	"cdml/internal/eval"
	"cdml/internal/model"
	"cdml/internal/obs"
	"cdml/internal/opt"
	"cdml/internal/pipeline"
	"cdml/internal/registry"
	"cdml/internal/snapstream"
)

// fleetConfig builds a minimal online deployment for registry-backed tests;
// newOpt picks a learning (Adam) or deliberately frozen (zero-rate SGD)
// optimizer.
func fleetConfig(newOpt func() opt.Optimizer) core.Config {
	return core.Config{
		Mode: core.ModeOnline,
		NewPipeline: func() *pipeline.Pipeline {
			return pipeline.New(testParser{},
				pipeline.NewStandardScaler([]string{"x0", "x1"}),
				pipeline.NewAssembler([]string{"x0", "x1"}, nil, "features"),
			)
		},
		NewModel:     func() model.Model { return model.NewSVM(2, 1e-4) },
		NewOptimizer: newOpt,
		Store:        data.NewStore(data.NewMemoryBackend()),
		Metric:       &eval.Misclassification{},
		Predict:      core.ClassifyPredictor,
	}
}

// testBuilder interprets {"optimizer": "adam"|"frozen"} specs.
func testBuilder(name string, spec json.RawMessage) (core.Config, error) {
	var req struct {
		Optimizer string `json:"optimizer"`
	}
	if len(spec) > 0 {
		if err := json.Unmarshal(spec, &req); err != nil {
			return core.Config{}, fmt.Errorf("bad spec: %w", err)
		}
	}
	switch req.Optimizer {
	case "", "adam":
		return fleetConfig(func() opt.Optimizer { return opt.NewAdam(0.05) }), nil
	case "frozen":
		return fleetConfig(func() opt.Optimizer { return opt.NewSGD(0) }), nil
	default:
		return core.Config{}, fmt.Errorf("unknown optimizer %q", req.Optimizer)
	}
}

// newFleetServer starts a server over an empty registry with the test
// config builder wired in, so deployments are created over HTTP.
func newFleetServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	reg := registry.New(registry.Options{Metrics: obs.NewRegistry()})
	s := NewWithRegistry(reg, WithSlog(nil), WithConfigBuilder(testBuilder))
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})
	return s, ts
}

// trainChunk generates n "label,x0,x1" records with y = sign(x0+x1).
func trainChunk(r *rand.Rand, n int) []byte {
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		x0, x1 := r.NormFloat64(), r.NormFloat64()
		y := "+1"
		if x0+x1 < 0 {
			y = "-1"
		}
		fmt.Fprintf(&buf, "%s,%.6f,%.6f\n", y, x0, x1)
	}
	return buf.Bytes()
}

func doJSON(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var e errorBody
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("not an error envelope: %s", body)
	}
	return e.Error.Code
}

// TestRouteTableIsCanonical pins the one-URL-per-endpoint surface: the route
// table holds exactly the documented templates, all under /v1/, no handler
// is reachable through two rows, and the single-deployment spellings of
// earlier releases answer the JSON 404 like any other unknown path.
func TestRouteTableIsCanonical(t *testing.T) {
	s, ts := newTestServer(t)
	want := []string{
		"/v1/deployments",
		"/v1/deployments/{name}",
		"/v1/deployments/{name}/challengers",
		"/v1/deployments/{name}/checkpoint",
		"/v1/deployments/{name}/ingest",
		"/v1/deployments/{name}/predict",
		"/v1/deployments/{name}/restore",
		"/v1/deployments/{name}/rollback",
		"/v1/deployments/{name}/snapshot",
		"/v1/deployments/{name}/stats",
		"/v1/deployments/{name}/status",
		"/v1/deployments/{name}/trace",
		"/v1/deployments/{name}/train",
		"/v1/healthz",
		"/v1/metrics",
	}
	var got []string
	owner := make(map[uintptr]string) // handler func → the one row that may hold it
	for _, rt := range s.routes {
		got = append(got, rt.template)
		if !strings.HasPrefix(rt.template, "/v1/") {
			t.Errorf("route %q is not under /v1/", rt.template)
		}
		for method, mh := range rt.handlers {
			fn := reflect.ValueOf(mh.fn).Pointer()
			if prev, dup := owner[fn]; dup {
				t.Errorf("%s %s shares its handler with %s", method, rt.template, prev)
			}
			owner[fn] = rt.template
		}
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("route table = %q\nwant %q", got, want)
	}

	for _, c := range []struct{ method, path string }{
		{http.MethodPost, "/predict"},
		{http.MethodPost, "/v1/predict"},
		{http.MethodGet, "/metrics"},
		{http.MethodGet, "/healthz"},
	} {
		code, body := doJSON(t, c.method, ts.URL+c.path, []byte("+1,0.5,0.5\n"))
		if code != http.StatusNotFound || errCode(t, body) != "not_found" {
			t.Errorf("%s %s = %d %s, want 404 not_found", c.method, c.path, code, body)
		}
	}
}

// TestPackageDocListsTheRouteTable: the "//\tMETHOD /path" lines of the
// package doc in serve.go are the registered (method, template) pairs — a
// route cannot be added without its line, or removed and stay documented.
func TestPackageDocListsTheRouteTable(t *testing.T) {
	src, err := os.ReadFile("serve.go")
	if err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`(?m)^//\t(GET|PUT|POST|DELETE)\s+(/\S*)`)
	var documented []string
	for _, m := range line.FindAllStringSubmatch(string(src), -1) {
		documented = append(documented, m[1]+" "+m[2])
	}
	s, _ := newTestServer(t)
	var registered []string
	for _, rt := range s.routes {
		for method := range rt.handlers {
			registered = append(registered, method+" "+rt.template)
		}
	}
	sort.Strings(documented)
	sort.Strings(registered)
	if !reflect.DeepEqual(documented, registered) {
		t.Fatalf("serve.go's package doc lists\n%q\nthe route table registers\n%q", documented, registered)
	}
}

// TestSingleDeploymentServedAsDefault verifies a server built from a bare
// deployer (New) serves it through the scoped surface under the name
// "default": train → predict, status identity, and the fleet list.
func TestSingleDeploymentServedAsDefault(t *testing.T) {
	_, ts := newTestServer(t)
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/deployments/default/train", trainChunk(rnd, 30))
		if code != http.StatusOK {
			t.Fatalf("scoped train: %d %s", code, body)
		}
	}
	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/deployments/default/predict", []byte("0,0.5,0.5\n0,-1.2,-0.3\n"))
	if code != http.StatusOK {
		t.Fatalf("scoped predict: %d %s", code, body)
	}
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Predictions) != 2 || pr.Served != 2 {
		t.Fatalf("predictions: %s", body)
	}

	code, body = doJSON(t, http.MethodGet, ts.URL+"/v1/deployments/default/status", nil)
	if code != http.StatusOK {
		t.Fatalf("scoped status: %d %s", code, body)
	}
	var st statusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Name != "default" || st.Role != "champion" || st.DeploymentVersion != 1 {
		t.Fatalf("status identity: %+v", st)
	}

	code, body = doJSON(t, http.MethodGet, ts.URL+"/v1/deployments", nil)
	if code != http.StatusOK {
		t.Fatalf("list: %d %s", code, body)
	}
	var list deploymentList
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Deployments) != 1 || list.Deployments[0].Name != "default" {
		t.Fatalf("list = %s", body)
	}
}

// TestUnknownDeployment404 verifies every scoped route answers a JSON 404
// with code "unknown_deployment" for names that are not registered,
// predict included.
func TestUnknownDeployment404(t *testing.T) {
	_, ts := newFleetServer(t)
	cases := []struct{ method, path string }{
		{http.MethodPost, "/v1/deployments/nope/predict"},
		{http.MethodPost, "/v1/deployments/nope/train"},
		{http.MethodPost, "/v1/deployments/nope/ingest"},
		{http.MethodGet, "/v1/deployments/nope/status"},
		{http.MethodGet, "/v1/deployments/nope/stats"},
		{http.MethodGet, "/v1/deployments/nope/trace"},
		{http.MethodGet, "/v1/deployments/nope/snapshot"},
		{http.MethodPost, "/v1/deployments/nope/challengers"},
		{http.MethodDelete, "/v1/deployments/nope/challengers"},
		{http.MethodPost, "/v1/deployments/nope/rollback"},
		{http.MethodGet, "/v1/deployments/nope"},
		{http.MethodDelete, "/v1/deployments/nope"},
	}
	for _, c := range cases {
		code, body := doJSON(t, c.method, ts.URL+c.path, []byte("x\n"))
		if code != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404 (%s)", c.method, c.path, code, body)
			continue
		}
		if got := errCode(t, body); got != "unknown_deployment" {
			t.Errorf("%s %s: code %q, want unknown_deployment", c.method, c.path, got)
		}
	}
}

// TestScopedMethodValidation verifies wrong-method requests on scoped routes
// answer 405 with an Allow header and the JSON envelope — even for unknown
// deployment names (the method check runs before name resolution).
func TestScopedMethodValidation(t *testing.T) {
	_, ts := newFleetServer(t)
	cases := []struct{ method, path, allow string }{
		{http.MethodGet, "/v1/deployments/nope/predict", "POST"},
		{http.MethodDelete, "/v1/deployments/nope/train", "POST"},
		{http.MethodPost, "/v1/deployments/nope/status", "GET"},
		{http.MethodPatch, "/v1/deployments/nope/challengers", "DELETE, POST"},
		{http.MethodPost, "/v1/deployments", "GET"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405 (%s)", c.method, c.path, resp.StatusCode, body)
			continue
		}
		if got := resp.Header.Get("Allow"); got != c.allow {
			t.Errorf("%s %s: Allow %q, want %q", c.method, c.path, got, c.allow)
		}
		if got := errCode(t, body); got != "method_not_allowed" {
			t.Errorf("%s %s: code %q, want method_not_allowed", c.method, c.path, got)
		}
	}
}

// TestDeploymentLifecycleOverHTTP walks create → train → predict → delete →
// recreate through the management API.
func TestDeploymentLifecycleOverHTTP(t *testing.T) {
	_, ts := newFleetServer(t)
	spec := []byte(`{"spec":{"optimizer":"adam"},"quotas":{"max_ingest_queue":8}}`)

	code, body := doJSON(t, http.MethodPut, ts.URL+"/v1/deployments/exp", spec)
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	var info DeploymentInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "exp" || info.Version != 1 {
		t.Fatalf("created info = %+v", info)
	}

	if code, body = doJSON(t, http.MethodPut, ts.URL+"/v1/deployments/exp", spec); code != http.StatusConflict {
		t.Fatalf("duplicate create: %d %s", code, body)
	} else if got := errCode(t, body); got != "deployment_exists" {
		t.Fatalf("duplicate create code %q", got)
	}
	if code, body = doJSON(t, http.MethodPut, ts.URL+"/v1/deployments/_bad", spec); code != http.StatusBadRequest {
		t.Fatalf("bad name: %d %s", code, body)
	}
	if code, body = doJSON(t, http.MethodPut, ts.URL+"/v1/deployments/nospec", []byte(`{"spec":{"optimizer":"warp"}}`)); code != http.StatusBadRequest {
		t.Fatalf("bad spec: %d %s", code, body)
	}

	rnd := rand.New(rand.NewSource(11))
	for i := 0; i < 5; i++ {
		if code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/deployments/exp/train", trainChunk(rnd, 30)); code != http.StatusOK {
			t.Fatalf("train: %d %s", code, body)
		}
	}
	code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/deployments/exp/predict", []byte("0,1.0,1.0\n"))
	if code != http.StatusOK {
		t.Fatalf("predict: %d %s", code, body)
	}
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Predictions) != 1 {
		t.Fatalf("predictions = %v", pr.Predictions)
	}

	code, body = doJSON(t, http.MethodGet, ts.URL+"/v1/deployments/exp/status", nil)
	if code != http.StatusOK {
		t.Fatalf("status: %d %s", code, body)
	}
	var st statusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Name != "exp" || st.WindowEvaluated == 0 || st.IngestQueueCapacity != 8 {
		t.Fatalf("status = %+v", st)
	}

	if code, body = doJSON(t, http.MethodDelete, ts.URL+"/v1/deployments/exp", nil); code != http.StatusOK {
		t.Fatalf("delete: %d %s", code, body)
	}
	if code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/deployments/exp/predict", []byte("0,1,1\n")); code != http.StatusNotFound {
		t.Fatalf("predict after delete: %d %s", code, body)
	}
	if code, body = doJSON(t, http.MethodPut, ts.URL+"/v1/deployments/exp", spec); code != http.StatusCreated {
		t.Fatalf("recreate: %d %s", code, body)
	}
}

// TestManagementRequiresBuilder verifies the management surface degrades to
// 501 "unsupported" when no config builder is wired in (the single-deployment
// compat topology).
func TestManagementRequiresBuilder(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := doJSON(t, http.MethodPut, ts.URL+"/v1/deployments/exp", []byte(`{"spec":{}}`))
	if code != http.StatusNotImplemented {
		t.Fatalf("create without builder: %d %s", code, body)
	}
	if got := errCode(t, body); got != "unsupported" {
		t.Fatalf("create without builder code %q", got)
	}
	code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/deployments/default/challengers", []byte(`{"spec":{}}`))
	if code != http.StatusNotImplemented {
		t.Fatalf("challenger without builder: %d %s", code, body)
	}
}

// TestCreateFailureStatus separates the two ways registry.Create can fail
// behind PUT /v1/deployments/{name}: a config core rejects is the client's
// spec (400 "bad_request"), a name whose durable state cannot be recovered
// is the server's (500 "internal").
func TestCreateFailureStatus(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "torn", "ckpt")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapstream.FilePath(dir, 5), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := registry.New(registry.Options{CheckpointRoot: root})
	builder := func(name string, spec json.RawMessage) (core.Config, error) {
		cfg, err := testBuilder(name, nil)
		if name == "storeless" {
			cfg.Store = nil
		}
		return cfg, err
	}
	ts := httptest.NewServer(NewWithRegistry(reg, WithSlog(nil), WithConfigBuilder(builder)))
	defer ts.Close()
	defer reg.Close()
	for name, want := range map[string]struct {
		status int
		code   string
	}{
		"storeless": {http.StatusBadRequest, "bad_request"},
		"torn":      {http.StatusInternalServerError, "internal"},
		"fine":      {http.StatusCreated, ""},
	} {
		code, body := doJSON(t, http.MethodPut, ts.URL+"/v1/deployments/"+name, []byte(`{"spec":{}}`))
		if code != want.status || (want.code != "" && errCode(t, body) != want.code) {
			t.Errorf("PUT %s: %d %s, want %d %s", name, code, body, want.status, want.code)
		}
	}
}

// TestServeNewServerHostsChallenger: a server built around a bare deployer
// (New) is a full deployment — it reports its recent loss after one /train,
// takes a challenger over HTTP, is promoted over and rolled back.
func TestServeNewServerHostsChallenger(t *testing.T) {
	dep, err := core.NewDeployer(fleetConfig(func() opt.Optimizer { return opt.NewSGD(0) }))
	if err != nil {
		t.Fatal(err)
	}
	s := New(dep, WithSlog(nil), WithConfigBuilder(testBuilder))
	ts := httptest.NewServer(s)
	t.Cleanup(s.Registry().Close)
	t.Cleanup(ts.Close)
	base := ts.URL + "/v1/deployments/default"

	rnd := rand.New(rand.NewSource(3))
	if code, body := doJSON(t, http.MethodPost, base+"/train", trainChunk(rnd, 50)); code != http.StatusOK {
		t.Fatalf("train: %d %s", code, body)
	}
	if st := statusOf(t, base); st.WindowEvaluated != 50 {
		t.Fatalf("window_evaluated = %d after one /train of 50 records", st.WindowEvaluated)
	}
	code, body := doJSON(t, http.MethodPost, base+"/challengers",
		[]byte(`{"spec":{"optimizer":"adam"},"policy":{"min_evaluated":150,"margin":0.1,"max_shadow_ticks":-1}}`))
	if code != http.StatusAccepted {
		t.Fatalf("challenger on a New server: %d %s, want 202", code, body)
	}
	trainUntilPromoted(t, base, rnd)
	if st := statusOf(t, base); !st.HasRollback || st.Challenger != nil || st.WindowEvaluated == 0 {
		t.Fatalf("after promotion: %+v", st)
	}
	if code, body = doJSON(t, http.MethodPost, base+"/rollback", nil); code != http.StatusOK {
		t.Fatalf("rollback: %d %s", code, body)
	}
	if s.Registry().List()[0].Serving() != dep {
		t.Fatal("rollback did not bring the adopted deployer back")
	}
}

// statusOf is GET base/status, decoded.
func statusOf(t *testing.T, base string) statusResponse {
	t.Helper()
	code, body := doJSON(t, http.MethodGet, base+"/status", nil)
	if code != http.StatusOK {
		t.Fatalf("status: %d %s", code, body)
	}
	var st statusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// trainUntilPromoted posts 50-record chunks to base/train until the
// deployment version moves: the /train that returns has taken the verdict,
// so the next status read sees it.
func trainUntilPromoted(t *testing.T, base string, rnd *rand.Rand) {
	t.Helper()
	for n := 0; statusOf(t, base).DeploymentVersion == 1; n++ {
		if n == 40 {
			t.Fatal("challenger not promoted within 40 chunks")
		}
		if code, body := doJSON(t, http.MethodPost, base+"/train", trainChunk(rnd, 50)); code != http.StatusOK {
			t.Fatalf("train: %d %s", code, body)
		}
	}
}

// TestConcurrentCreateDeletePredict hammers the copy-on-write handle map:
// creators, deleters, and predictors race over a small set of names; every
// response must be a well-formed 2xx/4xx — never a 5xx, never a torn route.
func TestConcurrentCreateDeletePredict(t *testing.T) {
	_, ts := newFleetServer(t)
	names := []string{"a", "b", "c"}
	spec := []byte(`{"spec":{"optimizer":"adam"}}`)
	var churn, readers sync.WaitGroup
	var serverErrs atomic.Int64
	stop := make(chan struct{})

	for _, name := range names {
		churn.Add(1)
		go func(name string) {
			defer churn.Done()
			for i := 0; i < 15; i++ {
				code, _ := doJSON(t, http.MethodPut, ts.URL+"/v1/deployments/"+name, spec)
				if code >= 500 {
					serverErrs.Add(1)
				}
				code, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/deployments/"+name, nil)
				if code >= 500 {
					serverErrs.Add(1)
				}
			}
		}(name)
	}
	for w := 0; w < 3; w++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rnd := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				name := names[rnd.Intn(len(names))]
				code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/deployments/"+name+"/predict", []byte("0,1,1\n"))
				if code != http.StatusOK && code != http.StatusNotFound {
					serverErrs.Add(1)
				}
			}
		}(int64(w))
	}
	churn.Wait()
	close(stop)
	readers.Wait()
	if n := serverErrs.Load(); n != 0 {
		t.Fatalf("%d unexpected responses under create/delete/predict races", n)
	}
}

// TestHTTPPromotionEndToEnd is the serving-layer acceptance test: a frozen
// champion created over HTTP is shadowed by a learning challenger started
// over HTTP; live traffic flows through POST train while a goroutine
// predicts continuously. The challenger must be auto-promoted, the
// predictors must never see an error, and the deployment version must move
// 1 → 2 with the old champion retained for rollback.
func TestHTTPPromotionEndToEnd(t *testing.T) {
	_, ts := newFleetServer(t)

	code, body := doJSON(t, http.MethodPut, ts.URL+"/v1/deployments/exp", []byte(`{"spec":{"optimizer":"frozen"}}`))
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var predictErrs atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		rnd := rand.New(rand.NewSource(42))
		for {
			select {
			case <-stop:
				return
			default:
			}
			code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/deployments/exp/predict", trainChunk(rnd, 4))
			if code != http.StatusOK {
				predictErrs.Add(1)
			}
		}
	}()

	code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/deployments/exp/challengers",
		[]byte(`{"spec":{"optimizer":"adam"},"policy":{"min_evaluated":150,"margin":0.1,"max_shadow_ticks":-1}}`))
	if code != http.StatusAccepted {
		t.Fatalf("challenger start: %d %s", code, body)
	}

	trainUntilPromoted(t, ts.URL+"/v1/deployments/exp", rand.New(rand.NewSource(3)))
	close(stop)
	wg.Wait()
	if n := predictErrs.Load(); n != 0 {
		t.Fatalf("%d predictions failed across the promotion swap", n)
	}

	st := statusOf(t, ts.URL+"/v1/deployments/exp")
	if st.DeploymentVersion != 2 {
		t.Fatalf("version = %d, want 2", st.DeploymentVersion)
	}
	if !st.HasRollback {
		t.Fatal("old champion not retained for rollback")
	}
	if st.Challenger != nil {
		t.Fatal("challenger still attached after promotion")
	}

	code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/deployments/exp/rollback", nil)
	if code != http.StatusOK {
		t.Fatalf("rollback: %d %s", code, body)
	}
	var rb struct {
		Status  string `json:"status"`
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal(body, &rb); err != nil {
		t.Fatal(err)
	}
	if rb.Status != "rolled_back" || rb.Version != 3 {
		t.Fatalf("rollback = %s", body)
	}
	// A second rollback has nothing to roll back to.
	if code, body = doJSON(t, http.MethodPost, ts.URL+"/v1/deployments/exp/rollback", nil); code != http.StatusConflict {
		t.Fatalf("second rollback: %d %s", code, body)
	}
}

// TestChallengerStopOverHTTP attaches a never-promoting challenger, verifies
// it shows in status, retires it, and checks the slot is free again.
func TestChallengerStopOverHTTP(t *testing.T) {
	_, ts := newFleetServer(t)
	if code, body := doJSON(t, http.MethodPut, ts.URL+"/v1/deployments/exp", []byte(`{"spec":{}}`)); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	pol := []byte(`{"spec":{"optimizer":"adam"},"policy":{"min_evaluated":1000000,"max_shadow_ticks":-1}}`)
	if code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/deployments/exp/challengers", pol); code != http.StatusAccepted {
		t.Fatalf("challenger start: %d %s", code, body)
	}
	if code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/deployments/exp/challengers", pol); code != http.StatusConflict {
		t.Fatalf("second challenger: %d %s", code, body)
	} else if got := errCode(t, body); got != "challenger_exists" {
		t.Fatalf("second challenger code %q", got)
	}

	code, body := doJSON(t, http.MethodGet, ts.URL+"/v1/deployments/exp", nil)
	if code != http.StatusOK {
		t.Fatalf("describe: %d %s", code, body)
	}
	var info DeploymentInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Challenger == nil || info.Challenger.Policy.MinEvaluated != 1000000 {
		t.Fatalf("describe = %s", body)
	}

	if code, body := doJSON(t, http.MethodDelete, ts.URL+"/v1/deployments/exp/challengers", nil); code != http.StatusOK {
		t.Fatalf("challenger stop: %d %s", code, body)
	}
	if code, body := doJSON(t, http.MethodDelete, ts.URL+"/v1/deployments/exp/challengers", nil); code != http.StatusNotFound {
		t.Fatalf("stop without challenger: %d %s", code, body)
	}
	if code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/deployments/exp/challengers", pol); code != http.StatusAccepted {
		t.Fatalf("challenger after retire: %d %s", code, body)
	}
}

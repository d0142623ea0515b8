package serve

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// --- readRecords edge cases -------------------------------------------------

func readRecordsFromString(t *testing.T, body string) ([][]byte, error) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/deployments/default/predict", strings.NewReader(body))
	return readRecords(req)
}

func TestReadRecordsLoneCRLF(t *testing.T) {
	// A body of just "\r\n" is one empty CRLF-terminated line: no records.
	recs, err := readRecordsFromString(t, "\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("lone CRLF produced %d records: %q", len(recs), recs)
	}
	// Mixed: CRLF noise between real records must not produce empty records.
	recs, err = readRecordsFromString(t, "a,1,2\r\n\r\nb,3,4\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[0]) != "a,1,2" || string(recs[1]) != "b,3,4" {
		t.Fatalf("records = %q", recs)
	}
}

func TestReadRecordsBareCRRecord(t *testing.T) {
	// A line that is only "\r" (CR with no LF until the next newline) is
	// dropped rather than surfacing as an empty record.
	recs, err := readRecordsFromString(t, "\r\nx,1,2\n\r")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0]) != "x,1,2" {
		t.Fatalf("records = %q", recs)
	}
}

func TestReadRecordsAtMaxBodyBoundary(t *testing.T) {
	// Exactly maxBody bytes: accepted, one record (no trailing newline).
	body := strings.Repeat("a", maxBody)
	recs, err := readRecordsFromString(t, body)
	if err != nil {
		t.Fatalf("body of exactly maxBody rejected: %v", err)
	}
	if len(recs) != 1 || len(recs[0]) != maxBody {
		t.Fatalf("got %d records, first len %d", len(recs), len(recs[0]))
	}
}

func TestReadRecordsOneByteOverMaxBody(t *testing.T) {
	body := strings.Repeat("a", maxBody+1)
	if _, err := readRecordsFromString(t, body); err == nil {
		t.Fatal("body one byte over maxBody accepted")
	}
}

func TestReadRecordsMaxBodyWithTrailingNewline(t *testing.T) {
	// maxBody-1 payload bytes plus the newline: exactly at the cap, accepted.
	body := strings.Repeat("a", maxBody-1) + "\n"
	recs, err := readRecordsFromString(t, body)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || len(recs[0]) != maxBody-1 {
		t.Fatalf("got %d records, first len %d", len(recs), len(recs[0]))
	}
}

// --- /v1/metrics ------------------------------------------------------------

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	client := ts.Client()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 6; i++ {
		resp, err := client.Post(ts.URL+"/v1/deployments/default/train", "text/plain", strings.NewReader(chunkBody(r, 20)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := client.Post(ts.URL+"/v1/deployments/default/predict", "text/plain", strings.NewReader(chunkBody(r, 10)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	mresp, err := client.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/metrics status %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	for _, want := range []string{
		// Per-endpoint request counters and latency histograms, labeled by
		// path template (never the raw path), API version, and deployment.
		`cdml_http_requests_total{path="/v1/deployments/{name}/train",version="v1",deployment="default",code="2xx"} 6`,
		`cdml_http_requests_total{path="/v1/deployments/{name}/predict",version="v1",deployment="default",code="2xx"} 1`,
		`cdml_http_request_seconds_bucket{path="/v1/deployments/{name}/train",version="v1",deployment="default",le="+Inf"} 6`,
		// Untouched endpoints' series exist at zero.
		`cdml_http_requests_total{path="/v1/deployments/{name}/ingest",version="v1",deployment="default",code="2xx"} 0`,
		// Deployment counters and the predict-latency quantiles.
		"cdml_ticks_total 6",
		"cdml_chunks_ingested_total 6",
		"cdml_proactive_runs_total",
		"cdml_drift_fires_total 0",
		"cdml_predict_latency_seconds_p50",
		"cdml_predict_latency_seconds_p95",
		"cdml_predict_latency_seconds_p99",
		// Bridged cost clock and store accounting.
		`cdml_cost_seconds{category="preprocess"}`,
		"cdml_store_sample_hits_total",
		"cdml_store_mu",
		"cdml_engine_tasks_total",
		"cdml_prequential_error",
		"cdml_recent_loss 0.",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/v1/metrics missing %q:\n%s", want, text)
		}
	}

	// Well-formed exposition: every non-comment line is "series value".
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
}

// --- .../trace --------------------------------------------------------------

func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	client := ts.Client()
	r := rand.New(rand.NewSource(11))
	const chunks = 5
	for i := 0; i < chunks; i++ {
		resp, err := client.Post(ts.URL+"/v1/deployments/default/train", "text/plain", strings.NewReader(chunkBody(r, 15)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := client.Get(ts.URL + "/v1/deployments/default/trace?n=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr traceResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.Total != chunks {
		t.Fatalf("total ticks %d, want %d", tr.Total, chunks)
	}
	if len(tr.Spans) != 3 {
		t.Fatalf("spans %d, want 3 (bounded by ?n)", len(tr.Spans))
	}
	root := tr.Spans[0]
	if root.Name != "tick" || root.DurationMS < 0 {
		t.Fatalf("root span %+v", root)
	}
	stages := map[string]bool{}
	for _, c := range root.Children {
		stages[c.Name] = true
	}
	for _, want := range []string{"parse", "serve", "preprocess", "materialize"} {
		if !stages[want] {
			t.Fatalf("tick span missing stage %q (has %v)", want, stages)
		}
	}
}

func TestTraceRingBounded(t *testing.T) {
	_, ts := newTestServer(t)
	client := ts.Client()
	r := rand.New(rand.NewSource(13))
	// More ticks than the default ring capacity (64).
	for i := 0; i < 70; i++ {
		resp, err := client.Post(ts.URL+"/v1/deployments/default/train", "text/plain", strings.NewReader(chunkBody(r, 3)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := client.Get(ts.URL + "/v1/deployments/default/trace?n=1000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr traceResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.Total != 70 {
		t.Fatalf("total %d, want 70", tr.Total)
	}
	if len(tr.Spans) != 64 {
		t.Fatalf("ring retained %d spans, want 64", len(tr.Spans))
	}
}

func TestTraceRejectsBadN(t *testing.T) {
	_, ts := newTestServer(t)
	for _, q := range []string{"?n=0", "?n=-3", "?n=abc"} {
		resp, err := ts.Client().Get(ts.URL + "/v1/deployments/default/trace" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf(".../trace%s status %d, want 400", q, resp.StatusCode)
		}
	}
}

// --- middleware -------------------------------------------------------------

func TestMethodNotAllowedSetsAllowHeader(t *testing.T) {
	_, ts := newTestServer(t)
	client := ts.Client()
	cases := []struct {
		method, path, allow string
	}{
		{http.MethodGet, "/v1/deployments/default/predict", "POST"},
		{http.MethodGet, "/v1/deployments/default/train", "POST"},
		{http.MethodPost, "/v1/deployments/default/stats", "GET"},
		{http.MethodPost, "/v1/metrics", "GET"},
		{http.MethodPost, "/v1/deployments/default/trace", "GET"},
		{http.MethodDelete, "/v1/deployments/default/checkpoint", "POST"},
		{http.MethodGet, "/v1/deployments/default/checkpoint", "POST"},
		{http.MethodGet, "/v1/deployments/default/restore", "POST"},
		{http.MethodDelete, "/v1/healthz", "GET"},
	}
	for _, c := range cases {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, nil)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status %d, want 405", c.method, c.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != c.allow {
			t.Fatalf("%s %s: Allow %q, want %q", c.method, c.path, got, c.allow)
		}
	}
}

func TestRequestIDAssignedAndEchoed(t *testing.T) {
	_, ts := newTestServer(t)
	client := ts.Client()

	// Server assigns an id when the client sends none.
	resp, err := client.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	assigned := resp.Header.Get("X-Request-ID")
	if assigned == "" {
		t.Fatal("no X-Request-ID assigned")
	}

	// A client-supplied id is echoed back verbatim.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/healthz", nil)
	req.Header.Set("X-Request-ID", "client-id-42")
	resp2, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); got != "client-id-42" {
		t.Fatalf("echoed id %q, want client-id-42", got)
	}

	// Distinct requests get distinct assigned ids.
	resp3, err := client.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.Header.Get("X-Request-ID") == assigned {
		t.Fatal("request ids not unique")
	}
}

func TestErrorResponsesCountedByClass(t *testing.T) {
	s, ts := newTestServer(t)
	client := ts.Client()
	// Two 400s on predict (empty body).
	for i := 0; i < 2; i++ {
		resp, err := client.Post(ts.URL+"/v1/deployments/default/predict", "text/plain", strings.NewReader("\n"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	var sb strings.Builder
	if err := s.reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `cdml_http_requests_total{path="/v1/deployments/{name}/predict",version="v1",deployment="default",code="4xx"} 2`) {
		t.Fatalf("4xx counter missing:\n%s", sb.String())
	}
}

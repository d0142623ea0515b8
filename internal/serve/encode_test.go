package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/quick"

	"cdml/internal/core"
	"cdml/internal/data"
	"cdml/internal/eval"
	"cdml/internal/linalg"
	"cdml/internal/model"
	"cdml/internal/opt"
	"cdml/internal/pipeline"
)

// The append encoder writes what encoding/json writes, byte for byte: load
// generators and clients cut the answer at ,"latency_ms": and compare text.
func TestAppendPredictResponseMatchesJSON(t *testing.T) {
	check := func(resp PredictResponse) {
		t.Helper()
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if got := appendPredictResponse(nil, resp); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendPredictResponse = %q, encoding/json = %q", got, want.Bytes())
		}
	}
	check(PredictResponse{})                         // nil predictions encode as null
	check(PredictResponse{Predictions: []float64{}}) // empty, not nil: []
	check(PredictResponse{Predictions: []float64{1.5}, Served: 1, Dropped: -3, LatencyMS: 0.017})
	check(PredictResponse{
		Predictions: []float64{
			0, math.Copysign(0, -1), 1, -1, 0.1, 1e-7, -1e-7, 1e-6, 9.99e-7, 1e20, 1e21, -1e21, 1.5e300, 1e-300,
			5e-324, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789.123456789,
			1e-10, 1.234e-9, 1e-100, 6.02214076e23, 0.000001, 100000000000000000000, 999999999999999900000,
		},
		Served: 26, Dropped: 1 << 40, LatencyMS: 1e-9,
	})
	f := func(preds []float64, served, dropped int, latency float64) bool {
		finite := preds[:0:0]
		for _, p := range preds {
			if !math.IsNaN(p) && !math.IsInf(p, 0) {
				finite = append(finite, p, 1/p, p*1e-300)
			}
		}
		if math.IsNaN(latency) || math.IsInf(latency, 0) {
			latency = 0
		}
		for k, p := range finite { // 1/p of a denormal overflows
			if math.IsInf(p, 0) {
				finite[k] = 0
			}
		}
		check(PredictResponse{Predictions: finite, Served: served, Dropped: dropped, LatencyMS: latency})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// readRecords answers the same for a body with a declared Content-Length —
// exact, too small or too large — and a chunked one, and with a declared
// length the allocation count does not depend on the body's size.
func TestReadRecordsDeclaredAndChunkedLengths(t *testing.T) {
	body := strings.Repeat("a,1,2\r\n\nb,3,4\n", 300) + "last"
	want := strings.FieldsFunc(strings.ReplaceAll(body, "\r", ""), func(r rune) bool { return r == '\n' })
	for _, declared := range []int64{int64(len(body)), -1, 0, 10, int64(len(body)) + 100} {
		req := httptest.NewRequest(http.MethodPost, "/", io.NopCloser(strings.NewReader(body)))
		req.ContentLength = declared
		recs, err := readRecords(req)
		if err != nil {
			t.Fatalf("declared %d: %v", declared, err)
		}
		if len(recs) != len(want) {
			t.Fatalf("declared %d: %d records, want %d", declared, len(recs), len(want))
		}
		for i := range recs {
			if string(recs[i]) != want[i] {
				t.Fatalf("declared %d: record %d = %q, want %q", declared, i, recs[i], want[i])
			}
		}
	}
	allocs := func(n int) float64 {
		b := []byte(strings.Repeat("a,1,2\n", n))
		rd := bytes.NewReader(b)
		req := httptest.NewRequest(http.MethodPost, "/", rd)
		return testing.AllocsPerRun(20, func() {
			rd.Reset(b)
			if recs, err := readRecords(req); err != nil || len(recs) != n {
				t.Fatalf("%d records, err %v", len(recs), err)
			}
		})
	}
	if small, large := allocs(10), allocs(5000); small != large {
		t.Fatalf("readRecords: %v allocations for 10 records, %v for 5000", small, large)
	}
}

// A declared Content-Length reserves at most bodyPrealloc before any byte has
// arrived, and a body longer than that is still read whole.
func TestReadBodyPreallocIsBounded(t *testing.T) {
	req := httptest.NewRequest(http.MethodPost, "/", io.NopCloser(strings.NewReader("")))
	req.ContentLength = maxBody
	b, err := readBody(req)
	if err != nil || len(b) != 0 || cap(b) > bodyPrealloc+1 {
		t.Fatalf("declared %d, sent nothing: len %d cap %d err %v", maxBody, len(b), cap(b), err)
	}
	big := strings.Repeat("x", 3*bodyPrealloc+17)
	req = httptest.NewRequest(http.MethodPost, "/", io.NopCloser(strings.NewReader(big)))
	req.ContentLength = int64(len(big))
	if b, err = readBody(req); err != nil || string(b) != big {
		t.Fatalf("body past the prealloc: len %d, want %d, err %v", len(b), len(big), err)
	}
}

// nanServer serves a regression deployment over testParser whose model
// answers NaN for any record with x0 > 100, and whose prequential error turns
// NaN once a record labelled NaN has been trained on.
func nanServer(t *testing.T) *httptest.Server {
	t.Helper()
	dep, err := core.NewDeployer(core.Config{
		Mode: core.ModeOnline,
		NewPipeline: func() *pipeline.Pipeline {
			return pipeline.New(testParser{}, pipeline.NewAssembler([]string{"x0", "x1"}, nil, "features"))
		},
		NewModel:     func() model.Model { return model.NewLinearRegression(2, 1e-4) },
		NewOptimizer: func() opt.Optimizer { return opt.NewAdam(0.05) },
		Store:        data.NewStore(data.NewMemoryBackend()),
		Metric:       &eval.RMSE{},
		Predict: func(m model.Model, x linalg.Vector) float64 {
			if x.At(0) > 100 {
				return math.NaN()
			}
			return core.RegressionPredictor(m, x)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dep.Shutdown)
	ts := httptest.NewServer(New(dep, WithSlog(nil)))
	t.Cleanup(ts.Close)
	return ts
}

func wantErrorEnvelope(t *testing.T, resp *http.Response, status int, code string) {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	if resp.StatusCode != status || json.Unmarshal(raw, &eb) != nil || eb.Error.Code != code || eb.Error.Message == "" {
		t.Fatalf("status %d body %q, want %d with an error envelope of code %q", resp.StatusCode, raw, status, code)
	}
}

// One non-finite prediction in a batch used to answer 200 with an empty
// body: the header went out before encoding/json refused the NaN.
func TestPredictNonFiniteIs500(t *testing.T) {
	ts := nanServer(t)
	const url = "/v1/deployments/default/predict"
	resp, err := ts.Client().Post(ts.URL+url, "text/plain", strings.NewReader("0,1,2\n0,3,4\n"))
	if err != nil {
		t.Fatal(err)
	}
	var ok PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&ok); err != nil || resp.StatusCode != http.StatusOK || len(ok.Predictions) != 2 {
		t.Fatalf("finite batch: status %d, %+v, err %v", resp.StatusCode, ok, err)
	}
	resp.Body.Close()
	resp, err = ts.Client().Post(ts.URL+url, "text/plain", strings.NewReader("0,1,2\n0,1000,4\n"))
	if err != nil {
		t.Fatal(err)
	}
	wantErrorEnvelope(t, resp, http.StatusInternalServerError, codeInternal)
}

// Any response encoding/json refuses used to go out as its intended status
// with zero bytes; writeJSON now encodes first and answers 500.
func TestUnencodableResponseIs500(t *testing.T) {
	ts := nanServer(t)
	resp, err := ts.Client().Post(ts.URL+"/v1/deployments/default/train", "text/plain", strings.NewReader("1,1,2\nNaN,3,4\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("train status %d", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/deployments/default/stats") // cumulative_error is NaN now
	if err != nil {
		t.Fatal(err)
	}
	wantErrorEnvelope(t, resp, http.StatusInternalServerError, codeInternal)
}

package obs

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestCounterIncZeroAllocs(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_total", "test counter")
	allocs := testing.AllocsPerRun(1000, func() { c.Inc() })
	if allocs != 0 {
		t.Fatalf("Counter.Inc allocates %v per op, want 0", allocs)
	}
}

func TestHistogramObserveZeroAllocs(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_seconds", "test histogram")
	d := 123 * time.Microsecond
	allocs := testing.AllocsPerRun(1000, func() { h.Observe(d) })
	if allocs != 0 {
		t.Fatalf("Histogram.Observe allocates %v per op, want 0", allocs)
	}
}

func TestGaugeSetZeroAllocs(t *testing.T) {
	var g Gauge
	allocs := testing.AllocsPerRun(1000, func() { g.Set(3.14) })
	if allocs != 0 {
		t.Fatalf("Gauge.Set allocates %v per op, want 0", allocs)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// 1000 observations spread over 1µs..1ms.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	p50 := h.quantile(0.50)
	p95 := h.quantile(0.95)
	p99 := h.quantile(0.99)
	if !(p50 <= p95 && p95 <= p99) {
		t.Fatalf("quantiles not monotone: p50=%v p95=%v p99=%v", p50, p95, p99)
	}
	// The log buckets bound every estimate within a factor of 2 of truth.
	if p50 < 250e-6 || p50 > 1100e-6 {
		t.Fatalf("p50=%v out of plausible range for 1µs..1ms uniform", p50)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if _, got, _ := h.Snapshot(); math.Abs(got-0.5005) > 1e-6 {
		t.Fatalf("sum = %v, want 0.5005", got)
	}
}

func TestHistogramQuantilesMonotoneAcrossQ(t *testing.T) {
	h := NewHistogram()
	for _, d := range []time.Duration{time.Nanosecond, time.Microsecond, time.Millisecond, time.Second, 3 * time.Second} {
		for i := 0; i < 10; i++ {
			h.Observe(d)
		}
	}
	prev := -1.0
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := h.quantile(q)
		if v < prev {
			t.Fatalf("Quantile(%v)=%v < Quantile(prev)=%v", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramEmptyAndExtremes(t *testing.T) {
	h := NewHistogram()
	if h.quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	h.Observe(0)
	h.Observe(-time.Second)    // clamped to 0
	h.Observe(100 * time.Hour) // clamped into the last bucket
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.quantile(1) <= 0 {
		t.Fatal("max quantile should land in the top bucket")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "help", L("path", "/a"))
	b := reg.Counter("x_total", "help", L("path", "/a"))
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	c := reg.Counter("x_total", "help", L("path", "/b"))
	if a == c {
		t.Fatal("different labels must return different counters")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when re-registering a counter as a histogram")
		}
	}()
	reg.Histogram("x_total", "help")
}

func TestWriteTextExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("cdml_requests_total", "requests served", L("path", "/v1/deployments/{name}/predict")).Add(7)
	reg.Gauge("cdml_error", "current error").Set(0.25)
	reg.GaugeFunc("cdml_rate", "query rate", func() float64 { return 12.5 })
	h := reg.Histogram("cdml_latency_seconds", "request latency")
	h.Observe(time.Millisecond)
	h.Observe(2 * time.Millisecond)

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	for _, want := range []string{
		"# TYPE cdml_requests_total counter",
		`cdml_requests_total{path="/v1/deployments/{name}/predict"} 7`,
		"# TYPE cdml_error gauge",
		"cdml_error 0.25",
		"cdml_rate 12.5",
		"# TYPE cdml_latency_seconds histogram",
		`cdml_latency_seconds_bucket{le="+Inf"} 2`,
		"cdml_latency_seconds_count 2",
		"# TYPE cdml_latency_seconds_p50 gauge",
		"cdml_latency_seconds_p95",
		"cdml_latency_seconds_p99",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// Every non-comment line must be "name{labels} value" or "name value".
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
}

func TestWriteTextBucketCumulative(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "latency")
	for _, d := range []time.Duration{time.Microsecond, time.Millisecond, time.Millisecond, time.Second} {
		h.Observe(d)
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, line := range strings.Split(sb.String(), "\n") {
		if !strings.HasPrefix(line, "lat_seconds_bucket") {
			continue
		}
		fields := strings.Fields(line)
		v, err := parseFloat(fields[1])
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("bucket counts not cumulative: %q after %v", line, prev)
		}
		prev = v
	}
	if prev != 4 {
		t.Fatalf("final cumulative bucket = %v, want 4", prev)
	}
}

func parseFloat(s string) (float64, error) {
	return strconv.ParseFloat(s, 64)
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("esc_total", "h", L("path", "a\"b\\c\nd")).Inc()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `esc_total{path="a\"b\\c\nd"} 1`) {
		t.Fatalf("label not escaped:\n%s", sb.String())
	}
}

func TestConcurrentWritesAndScrapes(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("conc_total", "h")
	h := reg.Histogram("conc_seconds", "h")
	g := reg.Gauge("conc_gauge", "h")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(time.Microsecond)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := reg.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if c.Value() != 4000 || h.Count() != 4000 || g.Value() != 4000 {
		t.Fatalf("writes lost: counter=%d hist=%d gauge=%v", c.Value(), h.Count(), g.Value())
	}
}

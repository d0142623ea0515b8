// Package obs is the platform's dependency-free observability substrate:
// atomic counters and gauges, log-bucketed latency histograms with quantile
// estimates, a labeled registry with Prometheus text-format exposition, and
// a span tracer that records each deployment tick as a tree of timed stages
// (see trace.go).
//
// The design splits cost between the two sides of the instrument: the write
// path (Inc, Add, Set, Observe) is a single atomic operation with zero
// allocations, safe to call from the serving hot loop; the read path
// (WriteText, Quantile) takes snapshots under the registry lock and is only
// paid when something scrapes /metrics. Metrics are created once at wiring
// time — label rendering, map lookups, and registration all happen there,
// never per event.
package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count. The zero value is ready to
// use; Inc and Add are lock-free.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
//
//cdml:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored so the counter stays monotone).
//
//cdml:hotpath
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down. The zero value is ready
// to use; Set and Add are lock-free (Add uses a CAS loop).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
//
//cdml:hotpath
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta to the current value.
//
//cdml:hotpath
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Label is one name="value" pair attached to a metric at creation time.
// Labels are rendered once during registration, so they cost nothing on the
// write path.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindCounterFunc
	kindHistogram
)

func (k metricKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// sameFamily reports whether two kinds may share a metric family name
// (e.g. a Counter and a CounterFunc both expose TYPE counter).
func sameFamily(a, b metricKind) bool { return a.promType() == b.promType() }

// metric is one labeled instance within a family.
type metric struct {
	labels  string // pre-rendered `key="value",...` (no braces), "" if none
	kind    metricKind
	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// family groups all label variants of one metric name.
type family struct {
	name    string
	help    string
	kind    metricKind
	order   []string // label strings in registration order
	metrics map[string]*metric
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Creation methods are get-or-create: asking for an
// existing (name, labels) pair returns the existing instrument, so wiring
// code can be idempotent. Mixing kinds under one name panics — that is a
// programming error, not a runtime condition.
type Registry struct {
	mu       sync.Mutex
	order    []string           //cdml:guardedby mu
	families map[string]*family //cdml:guardedby mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels renders pairs as `k1="v1",k2="v2"` with values escaped per
// the exposition format (backslash, double-quote, newline).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// get returns the metric for (name, labels), creating family and metric as
// needed via mk.
func (r *Registry) get(kind metricKind, name, help string, labels []Label, mk func() *metric) *metric {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, metrics: make(map[string]*metric)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if !sameFamily(f.kind, kind) {
		panic(fmt.Sprintf("obs: metric %q registered as %s, re-requested as %s",
			name, f.kind.promType(), kind.promType()))
	}
	m, ok := f.metrics[ls]
	if !ok {
		m = mk()
		m.labels = ls
		m.kind = kind
		f.metrics[ls] = m
		f.order = append(f.order, ls)
	}
	return m
}

// Counter returns the counter registered under (name, labels), creating it
// on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	m := r.get(kindCounter, name, help, labels, func() *metric {
		return &metric{counter: &Counter{}}
	})
	if m.counter == nil {
		panic(fmt.Sprintf("obs: metric %q{%s} is not a Counter", name, renderLabels(labels)))
	}
	return m.counter
}

// Gauge returns the gauge registered under (name, labels), creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	m := r.get(kindGauge, name, help, labels, func() *metric {
		return &metric{gauge: &Gauge{}}
	})
	if m.gauge == nil {
		panic(fmt.Sprintf("obs: metric %q{%s} is not a Gauge", name, renderLabels(labels)))
	}
	return m.gauge
}

// GaugeFunc registers a gauge whose value is read by calling fn at scrape
// time — the bridge for state that already has its own synchronized
// bookkeeping (cost clocks, store statistics). fn must be safe to call from
// any goroutine. Registering the same (name, labels) twice keeps the first
// function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.get(kindGaugeFunc, name, help, labels, func() *metric {
		return &metric{fn: fn}
	})
}

// CounterFunc registers a counter whose value is read by calling fn at
// scrape time; fn must be monotone and safe to call from any goroutine.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.get(kindCounterFunc, name, help, labels, func() *metric {
		return &metric{fn: fn}
	})
}

// Histogram returns the latency histogram registered under (name, labels),
// creating it on first use.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	m := r.get(kindHistogram, name, help, labels, func() *metric {
		return &metric{hist: NewHistogram()}
	})
	if m.hist == nil {
		panic(fmt.Sprintf("obs: metric %q{%s} is not a Histogram", name, renderLabels(labels)))
	}
	return m.hist
}

// WriteText renders every registered metric in Prometheus text exposition
// format (version 0.0.4). Histograms emit cumulative buckets, _sum and
// _count, followed by companion gauge families <name>_p50/_p95/_p99 carrying
// the quantile estimates.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	// Snapshot the family structure so rendering (which calls user funcs)
	// happens outside the registry lock.
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		writeFamily(&b, f)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeFamily(b *strings.Builder, f *family) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, f.help)
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind.promType())
	for _, ls := range f.order {
		m := f.metrics[ls]
		switch m.kind {
		case kindCounter:
			writeSample(b, f.name, "", ls, float64(m.counter.Value()))
		case kindGauge:
			writeSample(b, f.name, "", ls, m.gauge.Value())
		case kindGaugeFunc, kindCounterFunc:
			writeSample(b, f.name, "", ls, m.fn())
		case kindHistogram:
			writeHistogram(b, f.name, ls, m.hist)
		}
	}
	if f.kind == kindHistogram {
		// Companion quantile gauges, one family per quantile.
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"_p50", 0.50}, {"_p95", 0.95}, {"_p99", 0.99}} {
			fmt.Fprintf(b, "# HELP %s%s %s (quantile estimate)\n", f.name, q.suffix, f.help)
			fmt.Fprintf(b, "# TYPE %s%s gauge\n", f.name, q.suffix)
			for _, ls := range f.order {
				writeSample(b, f.name+q.suffix, "", ls, f.metrics[ls].hist.quantile(q.q))
			}
		}
	}
}

// writeSample emits one exposition line; extra is an additional pre-rendered
// label (used for le="...") appended after the metric's own labels.
func writeSample(b *strings.Builder, name, extra, labels string, v float64) {
	b.WriteString(name)
	if labels != "" || extra != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		if labels != "" && extra != "" {
			b.WriteByte(',')
		}
		b.WriteString(extra)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

func writeHistogram(b *strings.Builder, name, labels string, h *Histogram) {
	counts, sum, count := h.Snapshot()
	var cum int64
	for i, c := range counts {
		cum += c
		if c == 0 {
			// Empty buckets are omitted; cum carries forward so the emitted
			// cumulative counts stay correct, and le="+Inf" is always present.
			continue
		}
		le := strconv.FormatFloat(bucketUpperBound(i), 'g', -1, 64)
		writeSample(b, name+"_bucket", `le="`+le+`"`, labels, float64(cum))
	}
	writeSample(b, name+"_bucket", `le="+Inf"`, labels, float64(count))
	writeSample(b, name+"_sum", "", labels, sum)
	writeSample(b, name+"_count", "", labels, float64(count))
	if e, ok := h.lastExemplar(); ok {
		// Exposed as a comment so text-format 0.0.4 parsers (which skip
		// '#' lines) stay compatible; follow the trace via .../trace?id=.
		fmt.Fprintf(b, "# exemplar %s{%s} trace_id=%s duration_seconds=%s\n",
			name, labels, e.TraceID, strconv.FormatFloat(e.Duration.Seconds(), 'g', -1, 64))
	}
}

func formatFloat(v float64) string {
	//lint:allow floateq: integrality test against math.Trunc is exact by construction
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

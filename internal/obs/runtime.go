package obs

import (
	"math"
	"runtime/metrics"
	"time"
)

// RuntimeSampler periodically copies Go runtime metrics (heap, GC pauses,
// goroutine count, scheduler latency) into gauges on a Registry, so the
// existing /metrics exposition answers "is the process healthy" questions
// without attaching a profiler. Sampling reads the runtime/metrics package's
// pre-aggregated values — a handful of cheap reads per period, safe to run
// at a few-second cadence in production.
type RuntimeSampler struct {
	stop chan struct{}
	done chan struct{}
}

// runtimeSamples maps runtime/metrics sample names to the gauges they feed.
type runtimeGaugeSpec struct {
	sample string // runtime/metrics name
	metric string // exposition family name
	help   string
}

var runtimeGaugeSpecs = []runtimeGaugeSpec{
	{"/sched/goroutines:goroutines", "cdml_runtime_goroutines", "Live goroutines."},
	{"/memory/classes/heap/objects:bytes", "cdml_runtime_heap_alloc_bytes", "Bytes of live heap objects."},
	{"/memory/classes/total:bytes", "cdml_runtime_memory_total_bytes", "Total bytes mapped by the Go runtime."},
	{"/gc/cycles/total:gc-cycles", "cdml_runtime_gc_cycles_total", "Completed GC cycles."},
	{"/gc/scan/heap:bytes", "cdml_runtime_gc_scannable_heap_bytes", "Heap the collector has to read on every cycle: live objects that hold pointers."},
	{"/cpu/classes/gc/total:cpu-seconds", "cdml_runtime_gc_cpu_seconds_total", "Estimated CPU time spent in the garbage collector."},
}

// runtimeHistSpecs are cumulative runtime histograms exposed as p50/p99
// gauges (the runtime keeps full distributions; two quantiles answer the
// operational question without exploding the exposition).
var runtimeHistSpecs = []runtimeGaugeSpec{
	{"/gc/pauses:seconds", "cdml_runtime_gc_pause", "Stop-the-world GC pause quantiles (seconds)."},
	{"/sched/latencies:seconds", "cdml_runtime_sched_latency", "Goroutine scheduling latency quantiles (seconds)."},
}

// StartRuntimeSampler registers the runtime metric family on reg and starts
// a goroutine that refreshes it every period (minimum 1s). Call Stop to shut
// the goroutine down. One sample is taken synchronously before returning so
// the metrics are never absent from a scrape.
func StartRuntimeSampler(reg *Registry, every time.Duration) *RuntimeSampler {
	if every < time.Second {
		every = time.Second
	}
	names := make([]metrics.Sample, 0, len(runtimeGaugeSpecs)+len(runtimeHistSpecs))
	gauges := make([]*Gauge, 0, len(runtimeGaugeSpecs))
	for _, spec := range runtimeGaugeSpecs {
		names = append(names, metrics.Sample{Name: spec.sample})
		gauges = append(gauges, reg.Gauge(spec.metric, spec.help))
	}
	type histGauges struct{ p50, p99 *Gauge }
	hists := make([]histGauges, 0, len(runtimeHistSpecs))
	for _, spec := range runtimeHistSpecs {
		names = append(names, metrics.Sample{Name: spec.sample})
		hists = append(hists, histGauges{
			p50: reg.Gauge(spec.metric+"_p50", spec.help, L("q", "0.5")),
			p99: reg.Gauge(spec.metric+"_p99", spec.help, L("q", "0.99")),
		})
	}

	sample := func() {
		metrics.Read(names)
		for i := range runtimeGaugeSpecs {
			switch s := names[i]; s.Value.Kind() {
			case metrics.KindUint64:
				gauges[i].Set(float64(s.Value.Uint64()))
			case metrics.KindFloat64:
				gauges[i].Set(s.Value.Float64())
			}
		}
		for i := range runtimeHistSpecs {
			s := names[len(runtimeGaugeSpecs)+i]
			if s.Value.Kind() != metrics.KindFloat64Histogram {
				continue
			}
			h := s.Value.Float64Histogram()
			hists[i].p50.Set(histQuantile(h, 0.50))
			hists[i].p99.Set(histQuantile(h, 0.99))
		}
	}
	sample()

	rs := &RuntimeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(rs.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				sample()
			case <-rs.stop:
				return
			}
		}
	}()
	return rs
}

// Stop halts sampling and waits for the sampler goroutine to exit.
// Idempotent-safe only for a single caller; the server owns its sampler.
func (rs *RuntimeSampler) Stop() {
	if rs == nil {
		return
	}
	select {
	case <-rs.stop:
	default:
		close(rs.stop)
	}
	<-rs.done
}

// histQuantile estimates the q-quantile of a cumulative runtime histogram by
// locating the bucket containing the target rank and returning its midpoint
// (clamped for the open-ended first/last buckets).
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if c == 0 || cum <= rank {
			continue
		}
		// Bucket i spans [Buckets[i], Buckets[i+1]).
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) || math.IsNaN(lo) || lo < 0 {
			lo = 0
		}
		if math.IsInf(hi, 1) || math.IsNaN(hi) {
			// Open-ended top bucket: the lower bound is the honest estimate.
			return lo
		}
		return (lo + hi) / 2
	}
	last := h.Buckets[len(h.Buckets)-1]
	if math.IsInf(last, 1) || math.IsNaN(last) {
		return 0
	}
	return last
}

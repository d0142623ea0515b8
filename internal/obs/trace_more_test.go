package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanNanosecondPrecision guards the satellite fix: durations must not
// round-trip through float64 milliseconds. A sub-millisecond span keeps its
// exact nanosecond duration.
func TestSpanNanosecondPrecision(t *testing.T) {
	s := StartSpan("fast")
	s.Finish()
	s.DurationNS = 1234 // simulate a 1.234µs span deterministically
	s.DurationMS = float64(s.DurationNS) / 1e6
	if got := s.Duration(); got != 1234*time.Nanosecond {
		t.Fatalf("Duration() = %v, want exactly 1.234µs", got)
	}
	// A real (non-simulated) finish must agree between the two fields.
	r := StartSpan("real")
	time.Sleep(50 * time.Microsecond)
	r.Finish()
	if r.DurationNS <= 0 {
		t.Fatal("DurationNS not set by Finish")
	}
	if got, want := r.DurationMS, float64(r.DurationNS)/1e6; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("DurationMS %v inconsistent with DurationNS %d", got, r.DurationNS)
	}
	if r.Duration() != time.Duration(r.DurationNS) {
		t.Fatalf("Duration() = %v, want %v", r.Duration(), time.Duration(r.DurationNS))
	}
}

func TestNewTraceIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id == "" || seen[id] {
			t.Fatalf("trace id %q empty or duplicated at i=%d", id, i)
		}
		seen[id] = true
	}
}

func TestContextCarriage(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context must carry no span")
	}
	if FromContext(nil) != nil { //lint:ignore SA1012 deliberate nil-ctx robustness check
		t.Fatal("nil context must carry no span")
	}
	s := StartSpan("req")
	ctx := ContextWithSpan(context.Background(), s)
	if got := FromContext(ctx); got != s {
		t.Fatalf("FromContext = %v, want the stored span", got)
	}
	// Nil span leaves the context unchanged.
	base := context.Background()
	if ContextWithSpan(base, nil) != base {
		t.Fatal("nil span must not wrap the context")
	}
}

func TestTracerByID(t *testing.T) {
	tr := NewTracer(4)
	mk := func(name, traceID, reqID string) *Span {
		s := StartSpan(name)
		s.TraceID = traceID
		s.RequestID = reqID
		s.Finish()
		tr.Record(s)
		return s
	}
	mk("tick-a", "trace-1", "req-1")
	mk("tick-b", "trace-2", "")
	mk("checkpoint-a", "trace-1", "")

	got := tr.ByID("trace-1")
	if len(got) != 2 || got[0].Name != "tick-a" || got[1].Name != "checkpoint-a" {
		t.Fatalf("ByID(trace-1) = %v, want [tick-a checkpoint-a] oldest first", names(got))
	}
	if got := tr.ByID("req-1"); len(got) != 1 || got[0].Name != "tick-a" {
		t.Fatalf("ByID by request id = %v", names(got))
	}
	if tr.ByID("") != nil || tr.ByID("unknown") != nil {
		t.Fatal("empty/unknown id must return nil")
	}

	// Wrap the ring: trace-1 spans are evicted, newer ones found.
	mk("tick-c", "trace-3", "")
	mk("tick-d", "trace-3", "")
	mk("tick-e", "trace-3", "")
	if got := tr.ByID("trace-1"); len(got) != 1 || got[0].Name != "checkpoint-a" {
		t.Fatalf("after wrap ByID(trace-1) = %v, want only checkpoint-a retained", names(got))
	}
	if got := tr.ByID("trace-3"); len(got) != 3 || got[0].Name != "tick-c" || got[2].Name != "tick-e" {
		t.Fatalf("after wrap ByID(trace-3) = %v, want [tick-c tick-d tick-e]", names(got))
	}
	var nilTr *Tracer
	if nilTr.ByID("x") != nil {
		t.Fatal("nil tracer ByID must be nil")
	}
}

// TestTracerLastNewestFirstProperty exercises Last(n) across every
// fill/wrap state for several capacities: whatever the ring state, Last must
// return the most recent records newest-first.
func TestTracerLastNewestFirstProperty(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 8} {
		for count := 0; count <= 20; count++ {
			tr := NewTracer(capacity)
			for i := 0; i < count; i++ {
				s := StartSpan(fmt.Sprintf("s%d", i))
				s.Finish()
				tr.Record(s)
			}
			retained := min(count, capacity)
			for _, n := range []int{0, 1, retained, retained + 5} {
				got := tr.Last(n)
				wantLen := retained
				if n > 0 && n < retained {
					wantLen = n
				}
				if len(got) != wantLen {
					t.Fatalf("cap=%d count=%d Last(%d) len=%d want %d",
						capacity, count, n, len(got), wantLen)
				}
				for i, s := range got {
					if want := fmt.Sprintf("s%d", count-1-i); s.Name != want {
						t.Fatalf("cap=%d count=%d Last(%d)[%d] = %q, want %q",
							capacity, count, n, i, s.Name, want)
					}
				}
			}
		}
	}
}

// TestTracerConcurrentAccess drives Record, Last, Total, Len, and ByID from
// concurrent goroutines; run with -race this is the tracer's thread-safety
// proof.
func TestTracerConcurrentAccess(t *testing.T) {
	tr := NewTracer(16)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				s := StartSpan("t")
				s.TraceID = fmt.Sprintf("trace-%d-%d", w, i)
				s.Finish()
				tr.Record(s)
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = tr.Last(8)
				_ = tr.Total()
				_ = tr.ByID("trace-1-5")
			}
		}()
	}
	// Writers finish, then release the readers.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for i := 0; i < 3*300; i++ {
		if tr.Total() >= 900 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done
	if tr.Total() != 900 || len(tr.Last(0)) != 16 {
		t.Fatalf("total=%d len=%d, want 900/16", tr.Total(), len(tr.Last(0)))
	}
}

func TestHistogramExemplar(t *testing.T) {
	h := NewHistogram()
	if _, ok := h.lastExemplar(); ok {
		t.Fatal("fresh histogram must have no exemplar")
	}
	h.ObserveExemplar(time.Millisecond, "") // untraced: observed but no exemplar
	if h.Count() != 1 {
		t.Fatal("untraced ObserveExemplar must still observe")
	}
	if _, ok := h.lastExemplar(); ok {
		t.Fatal("untraced observation must not set an exemplar")
	}
	h.ObserveExemplar(time.Millisecond, "trace-slow")
	e, ok := h.lastExemplar()
	if !ok || e.TraceID != "trace-slow" || e.Duration != time.Millisecond {
		t.Fatalf("exemplar = %+v ok=%v", e, ok)
	}
	// A faster observation does not displace a recent slower exemplar...
	h.ObserveExemplar(time.Microsecond, "trace-fast")
	if e, _ := h.lastExemplar(); e.TraceID != "trace-slow" {
		t.Fatalf("fast observation displaced slow exemplar: %+v", e)
	}
	// ...but a slower (same-or-higher bucket) one does.
	h.ObserveExemplar(10*time.Millisecond, "trace-slower")
	if e, _ := h.lastExemplar(); e.TraceID != "trace-slower" {
		t.Fatalf("slower observation must win the slot: %+v", e)
	}
}

func TestExemplarInExposition(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_latency_seconds", "Test latency.")
	h.ObserveExemplar(5*time.Millisecond, "trace-xyz")
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "# exemplar test_latency_seconds") ||
		!strings.Contains(out, "trace_id=trace-xyz") {
		t.Fatalf("exposition missing exemplar comment:\n%s", out)
	}
	// Exemplars must be comments: every non-comment line stays "name value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if got := len(strings.Fields(line)); got != 2 {
			t.Fatalf("non-comment exposition line has %d fields: %q", got, line)
		}
	}
}

func TestRuntimeSampler(t *testing.T) {
	reg := NewRegistry()
	rs := StartRuntimeSampler(reg, time.Second)
	defer rs.Stop()
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, fam := range []string{
		"cdml_runtime_goroutines",
		"cdml_runtime_heap_alloc_bytes",
		"cdml_runtime_memory_total_bytes",
		"cdml_runtime_gc_cycles_total",
		"cdml_runtime_gc_scannable_heap_bytes",
		"cdml_runtime_gc_cpu_seconds_total",
		"cdml_runtime_gc_pause_p50",
		"cdml_runtime_sched_latency_p99",
	} {
		if !strings.Contains(out, fam) {
			t.Errorf("exposition missing %s", fam)
		}
	}
	// The synchronous first sample means goroutines is already non-zero.
	g := reg.Gauge("cdml_runtime_goroutines", "Live goroutines.")
	if g.Value() < 1 {
		t.Fatalf("goroutines gauge = %v, want >= 1", g.Value())
	}
	rs.Stop() // second Stop must not panic or deadlock
}

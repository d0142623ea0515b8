package obs

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed stage of a unit of work. Spans form trees: the root
// covers the whole unit (an HTTP request, a deployment tick, a checkpoint
// write) and children cover its stages. A span tree is built by a single
// goroutine and becomes immutable once recorded, so readers never need
// synchronization on the tree itself.
//
// Work that crosses an async boundary (HTTP handler → ingest queue →
// training tick → background checkpoint writer) is stitched together by
// TraceID: each side records its own tree carrying the same trace id, and
// Tracer.ByID reassembles the end-to-end picture — the standard distributed
// -tracing shape, applied inside one process.
//
// All methods tolerate a nil receiver, so instrumentation call sites need no
// "is tracing on" branches.
type Span struct {
	// Name identifies the stage.
	Name string `json:"name"`
	// TraceID correlates span trees recorded on different sides of an async
	// boundary; empty for spans that belong to no trace (e.g. ticks driven
	// directly through the library). Set on roots only.
	TraceID string `json:"trace_id,omitempty"`
	// RequestID is the HTTP request id that started the trace, when one did.
	RequestID string `json:"request_id,omitempty"`
	// Start is the stage's start time.
	Start time.Time `json:"start"`
	// DurationNS is the stage's wall-clock duration in nanoseconds, set by
	// Finish. It is the authoritative duration; DurationMS is derived.
	DurationNS int64 `json:"duration_ns"`
	// DurationMS is the duration in milliseconds, derived from DurationNS at
	// Finish for human-oriented JSON consumers. Sub-millisecond spans keep
	// their precision in DurationNS.
	DurationMS float64 `json:"duration_ms"`
	// Children are the nested stages in start order.
	Children []*Span `json:"children,omitempty"`
}

// traceIDBase is a per-process random prefix so trace ids stay unique across
// restarts; the suffix is a process-local sequence number.
var traceIDBase = func() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Entropy exhaustion is effectively impossible; fall back to the
		// clock so ids stay usable rather than panicking in a constructor.
		return uint64(time.Now().UnixNano())
	}
	return binary.BigEndian.Uint64(b[:])
}()

var traceIDSeq atomic.Uint64

// NewTraceID returns a process-unique trace id: a random per-process base
// plus a sequence number, so ids are unique across concurrent requests and
// across restarts.
func NewTraceID() string {
	return fmt.Sprintf("%016x%08x", traceIDBase, traceIDSeq.Add(1))
}

// StartSpan starts a root span.
func StartSpan(name string) *Span {
	return &Span{Name: name, Start: time.Now()}
}

// StartChild starts a nested stage under s. Returns nil when s is nil.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{Name: name, Start: time.Now()}
	s.Children = append(s.Children, c)
	return c
}

// AddChild records under s a stage that has already happened — one its caller
// timed itself, or one that ended before s began (a queue wait). The clock is
// not read. No-op on a nil span.
func (s *Span) AddChild(name string, start time.Time, d time.Duration) {
	if s == nil {
		return
	}
	ns := d.Nanoseconds()
	s.Children = append(s.Children, &Span{Name: name, Start: start, DurationNS: ns, DurationMS: float64(ns) / 1e6})
}

// Finish stamps the span's duration. No-op on a nil span.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.DurationNS = time.Since(s.Start).Nanoseconds()
	s.DurationMS = float64(s.DurationNS) / 1e6
}

// Duration returns the recorded duration at full nanosecond precision.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.DurationNS)
}

// Tracer retains the last Capacity recorded span trees in a ring buffer, so
// /trace can show recent work without unbounded growth.
type Tracer struct {
	mu    sync.Mutex
	ring  []*Span //cdml:guardedby mu
	next  int     //cdml:guardedby mu
	total uint64  //cdml:guardedby mu
}

// DefaultTraceCapacity is the ring size used when a component creates its
// own tracer.
const DefaultTraceCapacity = 64

// NewTracer returns a tracer retaining the last capacity spans (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]*Span, 0, capacity)}
}

// Record retains a finished span tree, evicting the oldest when full.
// No-op when t or s is nil; the span must not be mutated afterwards.
func (t *Tracer) Record(s *Span) {
	if t == nil || s == nil {
		return
	}
	t.mu.Lock()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, s)
	} else {
		t.ring[t.next] = s
	}
	t.next = (t.next + 1) % cap(t.ring)
	t.total++
	t.mu.Unlock()
}

// Total returns the number of spans ever recorded.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Last returns up to n retained spans, newest first. Pass n <= 0 for all.
func (t *Tracer) Last(n int) []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	size := len(t.ring)
	if n <= 0 || n > size {
		n = size
	}
	out := make([]*Span, 0, n)
	for i := 0; i < n; i++ {
		var idx int
		if size < cap(t.ring) {
			// Ring not yet full: entries occupy [0, size) in record order.
			idx = size - 1 - i
		} else {
			// Full ring: next points at the oldest slot, so the newest span
			// sits just before it.
			idx = (t.next - 1 - i + size) % size
		}
		out = append(out, t.ring[idx])
	}
	return out
}

// ByID returns the retained span trees whose root carries id as its trace
// or request id, oldest first — the reassembled timeline of one unit of
// work across async boundaries. Returns nil when id is empty or unknown.
func (t *Tracer) ByID(id string) []*Span {
	if t == nil || id == "" {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	size := len(t.ring)
	var out []*Span
	for i := 0; i < size; i++ {
		idx := i
		if size == cap(t.ring) {
			// Full ring: next points at the oldest slot.
			idx = (t.next + i) % size
		}
		if s := t.ring[idx]; s != nil && (s.TraceID == id || s.RequestID == id) {
			out = append(out, s)
		}
	}
	return out
}

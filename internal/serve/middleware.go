package serve

import (
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"cdml/internal/obs"
)

// depHandlerFunc is a route handler: name is the resolved deployment name
// and h its serving state (nil only for global routes and allowUnknown
// methods such as PUT create).
type depHandlerFunc func(s *Server, name string, h *depHandle, w http.ResponseWriter, r *http.Request)

// methodHandler is one method's handler on a route. allowUnknown lets the
// handler run for names that do not resolve to a deployment (PUT creates
// one, DELETE removes the directories a past one left); every other method
// answers 404 "unknown_deployment" first.
// mutates marks handlers that change deployment state (train, ingest,
// restore, forced checkpoints, challenger/rollback management); on a
// replica those answer 409 "read_only_replica" before the handler runs, so
// the sync poller stays the replica's only writer.
type methodHandler struct {
	fn           depHandlerFunc
	allowUnknown bool
	mutates      bool
}

// routeDef is one row of the route table: a path template plus its
// handlers, metric identity, and — for deployment-scoped routes — the slot
// its per-deployment instruments occupy in every depHandle.
type routeDef struct {
	// idx is the route's slot in depHandle.em (-1 for global routes).
	idx int
	// template is the mux pattern and the metric path label — series carry
	// the template, never the raw request path, so cardinality is bounded
	// by the route table.
	template string
	// global marks routes not bound to any deployment (metrics, healthz,
	// the deployment list).
	global   bool
	handlers map[string]methodHandler
	// allow is the precomputed Allow header (sorted methods).
	allow string
	// em is the route's instrument set for global routes, and the
	// unknown-deployment instrument set for scoped ones (resolved handles
	// carry their own per-deployment set).
	em *endpointMetrics
}

// endpointMetrics holds the pre-created instruments of one (route,
// deployment) pair. Everything is allocated at registration, so the
// per-request cost is a handful of atomic operations.
type endpointMetrics struct {
	latency *obs.Histogram
	// byClass counts responses by status class: index 0 → 2xx, 1 → 3xx,
	// 2 → 4xx, 3 → 5xx.
	byClass [4]*obs.Counter
}

var statusClasses = [4]string{"2xx", "3xx", "4xx", "5xx"}

// newEndpointMetrics creates the instruments of one route for one
// deployment ("" on global routes omits the deployment label, "unknown"
// aggregates requests whose name did not resolve).
func newEndpointMetrics(reg *obs.Registry, path, deployment string) *endpointMetrics {
	base := make([]obs.Label, 0, 3)
	base = append(base, obs.L("path", path), obs.L("version", "v1"))
	if deployment != "" {
		base = append(base, obs.L("deployment", deployment))
	}
	em := &endpointMetrics{
		latency: reg.Histogram("cdml_http_request_seconds",
			"HTTP request handling latency by endpoint.", base...),
	}
	for i, class := range statusClasses {
		em.byClass[i] = reg.Counter("cdml_http_requests_total",
			"HTTP requests served by endpoint, API version, deployment, and status class.",
			append(base[:len(base):len(base)], obs.L("code", class))...)
	}
	return em
}

// observe feeds one finished request into the endpoint's instruments. The
// trace id rides along as a histogram exemplar, so the /metrics top bucket
// links to the concrete slow request in the trace endpoint.
func (em *endpointMetrics) observe(status int, d time.Duration, traceID string) {
	idx := status/100 - 2
	if idx < 0 || idx >= len(em.byClass) {
		idx = 2 // 1xx should not happen; count it with client errors
	}
	em.byClass[idx].Inc()
	em.latency.ObserveExemplar(d, traceID)
}

// statusRecorder captures the status code written by a handler.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

//cdml:hotpath
func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

//cdml:hotpath
func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

// requestIDHeader is the request correlation header: a client-supplied value
// is echoed back, otherwise the server assigns one.
const requestIDHeader = "X-Request-ID"

// traceIDHeader carries the trace id: echoed when client-supplied (so a
// caller can stitch this server's spans into its own trace), assigned
// otherwise. The response always carries it — the handle a client needs to
// later ask the trace endpoint where its request's latency went.
const traceIDHeader = "X-Trace-ID"

// nextRequestID returns a process-unique request id. The prefix is the
// server's start time, so ids stay distinguishable across restarts.
func (s *Server) nextRequestID() string {
	return fmt.Sprintf("%x-%06d", s.startNanos, s.reqSeq.Add(1))
}

// serveRoute is the middleware every request the mux dispatches passes
// through. It resolves the deployment
// handle, assigns/echoes X-Request-ID and X-Trace-ID, opens a per-request
// span carried in the request context (handlers and the deployment extend
// it across async boundaries), enforces the route's method set (405 plus
// an Allow header), rejects unresolved deployment names (404
// "unknown_deployment") unless the method explicitly handles them, runs the
// handler, and finishes with the per-endpoint counters/latency histogram —
// labeled by path template, API version, and deployment — and a structured
// log line.
func (s *Server) serveRoute(rt *routeDef, name string, w http.ResponseWriter, r *http.Request, methodOK bool) {
	start := time.Now()
	s.inFlight.Add(1)
	var h *depHandle
	em := rt.em
	if !rt.global {
		if h = s.handleByName(name); h != nil {
			em = h.em[rt.idx]
		}
	}
	id := r.Header.Get(requestIDHeader)
	if id == "" {
		id = s.nextRequestID()
	}
	traceID := r.Header.Get(traceIDHeader)
	if traceID == "" {
		traceID = obs.NewTraceID()
	}
	w.Header().Set(requestIDHeader, id)
	w.Header().Set(traceIDHeader, traceID)
	sp := obs.StartSpan(r.Method + " " + rt.template)
	sp.TraceID = traceID
	sp.RequestID = id
	r = r.WithContext(obs.ContextWithSpan(r.Context(), sp))
	rec := &statusRecorder{ResponseWriter: w}

	// A method-qualified mux pattern may still receive methods it did not
	// register (HEAD rides GET patterns), so the handler lookup re-checks.
	mh, knownMethod := rt.handlers[r.Method]
	switch {
	case !methodOK || !knownMethod:
		w.Header().Set("Allow", rt.allow)
		writeError(rec, http.StatusMethodNotAllowed, codeMethodNotAllowed,
			fmt.Errorf("serve: method %s not allowed on %s (allow: %s)", r.Method, rt.template, rt.allow))
	case !rt.global && h == nil && !mh.allowUnknown:
		writeError(rec, http.StatusNotFound, codeUnknownDeployment,
			fmt.Errorf("serve: unknown deployment %q", name))
	case h != nil && h.rep != nil && mh.mutates:
		writeError(rec, http.StatusConflict, codeReadOnlyReplica,
			fmt.Errorf("serve: deployment %q is a read-only replica of %s; send writes to the primary",
				name, s.replicaOf))
	default:
		mh.fn(s, name, h, rec, r)
	}

	if rec.status == 0 {
		// Handler wrote nothing; net/http will send 200 on return.
		rec.status = http.StatusOK
	}
	sp.Finish()
	s.reqTracer.Record(sp)
	elapsed := time.Since(start)
	em.observe(rec.status, elapsed, traceID)
	s.inFlight.Add(-1)
	if s.log != nil {
		attrs := [8]slog.Attr{
			slog.String("method", r.Method),
			slog.String("path", rt.template),
			slog.Int("status", rec.status),
			slog.Float64("duration_ms", float64(elapsed.Microseconds())/1000),
			slog.String("request_id", id),
			slog.String("trace_id", traceID),
		}
		n := 6
		if !rt.global {
			attrs[n] = slog.String("deployment", name)
			n++
		}
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "http request", attrs[:n]...)
	}
}

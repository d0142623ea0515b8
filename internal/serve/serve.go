// Package serve exposes a registry of live deployments over HTTP — the
// platform's query-answering surface (the paper's deployment platform
// "answers prediction queries in real-time" while continuously training;
// §1, §4.3), extended to host several named pipelines in one process.
//
// The canonical API is deployment-scoped. {name} is a deployment name
// (1–64 chars of [a-zA-Z0-9_-]); unknown names answer 404 with code
// "unknown_deployment".
//
//	GET    /v1/deployments                        list deployments: name, role,
//	                                              version, staleness, and the
//	                                              shadow challenger if one is
//	                                              attached
//	PUT    /v1/deployments/{name}                 create a deployment from a
//	                                              JSON spec (requires a
//	                                              config builder; 501 otherwise)
//	GET    /v1/deployments/{name}                 describe one deployment
//	DELETE /v1/deployments/{name}                 retire a deployment: stop its
//	                                              ingest drainer, shut down its
//	                                              champion/challenger/rollback
//	                                              deployers, free the name
//	POST   /v1/deployments/{name}/predict         body: newline-separated raw
//	                                              records; response:
//	                                              {"predictions": [...], ...}
//	POST   /v1/deployments/{name}/train           synchronous ingest: the tick
//	                                              has completed when the 200
//	                                              arrives
//	POST   /v1/deployments/{name}/ingest          asynchronous ingest: appended
//	                                              to the write-ahead ingest log
//	                                              (when configured) and queued on
//	                                              the deployment's bounded queue
//	                                              (202); 503 "queue_full" with
//	                                              Retry-After when training
//	                                              cannot keep up, 503
//	                                              "shutting_down" (no
//	                                              Retry-After) while draining
//	GET    /v1/deployments/{name}/status          snapshot version/staleness,
//	                                              queue state, deployment
//	                                              version, promotion window,
//	                                              and challenger status
//	GET    /v1/deployments/{name}/stats           error/cost/counts statistics
//	GET    /v1/deployments/{name}/trace           recent tick span trees;
//	                                              ?id=<trace or request id>
//	                                              assembles one end-to-end trace
//	POST   /v1/deployments/{name}/checkpoint      force a durable checkpoint now
//	                                              (501 without a policy); it
//	                                              and .../snapshot answer 503
//	                                              "resume_unavailable" with
//	                                              Retry-After between a failed
//	                                              tick and the next good one
//	GET    /v1/deployments/{name}/snapshot        the published snapshot as a
//	                                              self-validating CDMLCKP1
//	                                              frame: the download, and the
//	                                              replication feed, where
//	                                              ?since=<version> answers 304
//	                                              when nothing newer is
//	                                              published; X-Snapshot-Version
//	                                              always carries the current
//	                                              version
//	POST   /v1/deployments/{name}/restore         load a .../snapshot frame,
//	                                              length- and CRC-checked
//	POST   /v1/deployments/{name}/challengers     attach a shadow challenger
//	                                              built from a JSON spec: live
//	                                              ingest is tee'd into it, its
//	                                              predictions scored but never
//	                                              served, and the promotion
//	                                              policy auto-promotes or
//	                                              retires it (202)
//	DELETE /v1/deployments/{name}/challengers     retire the challenger now
//	POST   /v1/deployments/{name}/rollback        swap the previous champion
//	                                              back in
//	GET    /v1/metrics                            Prometheus text exposition of
//	                                              every deployment's series
//	                                              (labeled deployment=<name>)
//	GET    /v1/healthz                            200 "ok"
//
// That list is the whole surface — one URL per endpoint. A single-deployment
// server (New) serves its deployer under the name "default", i.e.
// /v1/deployments/default/predict and so on; every other path (/predict,
// /v1/predict, /metrics, ...) answers 404 "not_found".
//
// Every error response uses the uniform JSON envelope
//
//	{"error": {"code": "<machine-readable>", "message": "<human-readable>"}}
//
// with codes "bad_request", "method_not_allowed", "internal", "queue_full",
// "shutting_down", "payload_too_large", "unknown_deployment",
// "deployment_exists", "challenger_exists", "conflict", "not_found",
// "unsupported", "read_only_replica" and "resume_unavailable". Ingest
// never answers for a full store: a deployment keeps its newest N chunks
// (registry.Quotas.MaxStoreChunks) and drops the oldest.
//
// A response is encoded in full before its status line is written, so a
// success status always comes with its body: a value JSON cannot carry — one
// NaN or infinite prediction in a batch, a NaN statistic — answers 500
// "internal" in the envelope, never 200 with nothing after the headers. The
// predict response is appended by hand (strconv.AppendFloat into a pooled
// buffer, one Write) in exactly the bytes encoding/json produces for
// PredictResponse; everything else goes through encoding/json.
//
// A server started with WithReplicaOf runs every deployment in replica
// mode: a per-deployment poller syncs the primary's published snapshots
// through GET .../snapshot (conditional on ?since=, so steady state is a
// header exchange) and swaps them in atomically; predict/status/stats
// answer from the synced state, state-changing endpoints answer 409
// "read_only_replica", and /status reports the replica's version lag,
// snapshot age, and last sync alongside the cdml_replica_* series.
//
// Every request passes through a middleware that assigns an X-Request-ID
// (echoing a client-supplied one) and an X-Trace-ID (echoed likewise, and
// carried through ticks and checkpoint writes triggered by the request),
// enforces the route's method (405 with an Allow header otherwise), emits a
// structured log line (log/slog) with method/path/status/duration plus
// request_id and trace_id, and feeds the per-endpoint request counters and
// latency histograms exposed at /v1/metrics — labeled by path template
// (never the raw request path, so series cardinality is bounded by the
// route table), API version (the constant version="v1"), and deployment
// name.
//
// Opt-in extras: WithPprof registers net/http/pprof under /debug/pprof/,
// WithRuntimeMetrics adds a sampled cdml_runtime_* family to the
// exposition, and WithConfigBuilder enables the spec-driven PUT/challenger
// endpoints.
//
// Records use exactly the same wire format as the deployed pipeline's
// parser, so the same payload can be sent to .../train (with labels) and
// .../predict — train/serve consistency extends to the HTTP boundary.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cdml/internal/core"
	"cdml/internal/obs"
	"cdml/internal/registry"
	"cdml/internal/snapstream"
)

// maxBody bounds request bodies (16 MiB) so a misbehaving client cannot
// exhaust memory.
const maxBody = 16 << 20

// bodyPrealloc bounds what a declared Content-Length may reserve before a
// single body byte has arrived (1 MiB; a 256-record predict is ~32 KB).
const bodyPrealloc = 1 << 20

// requestTraceCapacity is the ring size of the request-span tracer: large
// enough that a slow request's trace is still resolvable by id a few hundred
// requests later, small enough to bound memory.
const requestTraceCapacity = 256

// DefaultDeployment is the name a single-deployment server (New) serves its
// deployer under.
const DefaultDeployment = "default"

// configBuilder turns a client-supplied JSON spec into a deployment config.
// The server never interprets specs itself — what a spec may express
// (workloads, optimizers, data sources) is the operator's policy, supplied
// via WithConfigBuilder. Without one, PUT /v1/deployments/{name} and the
// challenger endpoints answer 501 "unsupported".
type configBuilder func(name string, spec json.RawMessage) (core.Config, error)

// Server fronts a registry of deployments with HTTP handlers.
type Server struct {
	registry *registry.Registry
	mux      *http.ServeMux
	reg      *obs.Registry
	// reqTracer records one span tree per HTTP request, separate from the
	// deployments' tick tracers so request volume never evicts tick history.
	// /v1/deployments/{name}/trace?id= searches both.
	reqTracer *obs.Tracer
	log       *slog.Logger
	builder   configBuilder

	inFlight   *obs.Gauge
	reqSeq     atomic.Uint64
	startNanos int64

	// routes is the route table, fixed after construction. nScoped counts
	// the deployment-scoped routes; each depHandle carries one pre-created
	// endpointMetrics per scoped route, indexed by routeDef.idx.
	routes  []*routeDef
	nScoped int

	// handles maps deployment name → per-deployment serving state. Reads are
	// a lock-free atomic load on every request; writes copy the map under
	// hmu (copy-on-write, like the core snapshot pointer).
	hmu     sync.Mutex
	handles atomic.Pointer[map[string]*depHandle]

	pprof        bool
	runtimeEvery time.Duration
	sampler      *obs.RuntimeSampler

	// replicaOf, when non-empty, puts every deployment on this server in
	// replica mode: a per-deployment poller syncs published snapshots from
	// the primary at replicaOf (base URL), predict/status/stats answer from
	// the synced state, and mutating endpoints answer 409 read_only_replica.
	replicaOf string
	pollEvery time.Duration
}

// Option configures a Server.
type Option func(*Server)

// WithSlog replaces the request logger; pass nil to disable request logging
// (tests, benchmarks).
func WithSlog(l *slog.Logger) Option {
	return func(s *Server) { s.log = l }
}

// WithPprof registers the net/http/pprof handlers under /debug/pprof/ —
// opt-in, because profiling endpoints expose internals and belong behind
// operator intent (and usually a private listener).
func WithPprof() Option {
	return func(s *Server) { s.pprof = true }
}

// WithRuntimeMetrics starts a background sampler that refreshes the
// cdml_runtime_* gauge family (heap, GC pauses, goroutines, scheduler
// latency) every period. Call Close to stop it.
func WithRuntimeMetrics(every time.Duration) Option {
	return func(s *Server) { s.runtimeEvery = every }
}

// WithConfigBuilder enables the spec-driven management endpoints (PUT
// /v1/deployments/{name} and POST .../challengers), which build deployment
// configs through b.
func WithConfigBuilder(b configBuilder) Option {
	return func(s *Server) { s.builder = b }
}

// WithReplicaOf puts the server in replica mode: every deployment polls
// GET {primary}/v1/deployments/{name}/snapshot?since=<version> every poll
// interval (default DefaultReplicaPoll when poll <= 0) and atomically swaps
// newer snapshots into its local deployer. The local deployment must be
// built from the same spec as the primary's — the frame codec validates
// model and optimizer identity on apply. Mutating endpoints answer 409
// "read_only_replica"; /status reports the replica's staleness.
func WithReplicaOf(primary string, poll time.Duration) Option {
	return func(s *Server) {
		s.replicaOf = strings.TrimRight(primary, "/")
		if poll <= 0 {
			poll = DefaultReplicaPoll
		}
		s.pollEvery = poll
	}
}

// New returns a single-deployment server: dep is adopted into a fresh
// registry as "default" and addressed by that name through the
// deployment-scoped API (/v1/deployments/default/...). The registry did
// not build dep, so it has no directories, labels or recovery of the
// registry's; use NewWithRegistry and registry.Create for those.
func New(dep *core.Deployer, opts ...Option) *Server {
	r := registry.New(registry.Options{Metrics: dep.Metrics()})
	if _, err := r.Adopt(DefaultDeployment, dep, registry.Quotas{}); err != nil {
		// Unreachable: the name is valid and the registry empty.
		panic(err)
	}
	return NewWithRegistry(r, opts...)
}

// NewWithRegistry returns a server fronting r. Deployments already
// registered get their serving state (ingest queue, drainer, metrics)
// built immediately; deployments created later through the HTTP API are
// wired as they appear. The server does not own the registry: Close stops
// the server's background work but leaves the deployments running (shut
// them down via registry.Close).
func NewWithRegistry(r *registry.Registry, opts ...Option) *Server {
	s := &Server{
		registry:   r,
		mux:        http.NewServeMux(),
		reg:        r.Metrics(),
		reqTracer:  obs.NewTracer(requestTraceCapacity),
		log:        slog.Default(),
		startNanos: time.Now().UnixNano(),
	}
	if s.reg == nil {
		// A registry without shared metrics still gets HTTP instrumentation —
		// into a private sink, reachable through /v1/metrics.
		s.reg = obs.NewRegistry()
	}
	for _, o := range opts {
		o(s)
	}
	if s.runtimeEvery > 0 {
		s.sampler = obs.StartRuntimeSampler(s.reg, s.runtimeEvery)
	}
	s.inFlight = s.reg.Gauge("cdml_http_in_flight", "HTTP requests currently being handled.")
	empty := make(map[string]*depHandle)
	s.handles.Store(&empty)
	s.registerRoutes()
	for _, d := range r.List() {
		s.addHandle(d)
	}
	if s.pprof {
		s.routePprof()
	}
	return s
}

// Registry returns the deployment registry the server fronts.
func (s *Server) Registry() *registry.Registry { return s.registry }

// Close releases the server's background resources: the runtime metrics
// sampler and, in replica mode, every deployment's sync poller. It neither
// drains the ingest queues — call DrainIngest first during a graceful
// shutdown — nor shuts the deployments down (the registry owner does that).
func (s *Server) Close() {
	if s.sampler != nil {
		s.sampler.Stop()
	}
	for _, h := range *s.handles.Load() {
		if h.rep != nil {
			h.rep.stopPoller()
		}
	}
}

// registerRoutes builds the route table: the deployment-scoped surface under
// /v1/deployments/{name} and the global management and observability
// endpoints. One row per endpoint — no aliases.
func (s *Server) registerRoutes() {
	const base = "/v1/deployments/{name}"
	post := func(fn depHandlerFunc) map[string]methodHandler {
		return map[string]methodHandler{http.MethodPost: {fn: fn}}
	}
	// mut is post for state-changing endpoints: rejected with 409
	// "read_only_replica" on replicas, whose only writer is the sync poller.
	mut := func(fn depHandlerFunc) map[string]methodHandler {
		return map[string]methodHandler{http.MethodPost: {fn: fn, mutates: true}}
	}
	get := func(fn depHandlerFunc) map[string]methodHandler {
		return map[string]methodHandler{http.MethodGet: {fn: fn}}
	}

	// Deployment-scoped routes ({name} from the path).
	s.scoped(base+"/predict", post(handlePredict))
	s.scoped(base+"/train", mut(handleTrain))
	s.scoped(base+"/ingest", mut(handleIngest))
	s.scoped(base+"/status", get(handleStatus))
	s.scoped(base+"/stats", get(handleStats))
	s.scoped(base+"/trace", get(handleTrace))
	s.scoped(base+"/checkpoint", mut(handleCheckpointNow))
	s.scoped(base+"/snapshot", get(handleSnapshotGet))
	s.scoped(base+"/restore", mut(handleRestore))
	s.scoped(base+"/challengers", map[string]methodHandler{
		http.MethodPost:   {fn: handleChallengerStart, mutates: true},
		http.MethodDelete: {fn: handleChallengerStop, mutates: true},
	})
	s.scoped(base+"/rollback", mut(handleRollback))
	s.scoped(base, map[string]methodHandler{
		http.MethodGet:    {fn: handleDescribe},
		http.MethodPut:    {fn: handleCreate, allowUnknown: true},
		http.MethodDelete: {fn: handleDelete, allowUnknown: true},
	})

	// Global routes (not bound to a deployment).
	s.global("/v1/deployments", get(handleList))
	s.global("/v1/metrics", get(handleMetrics))
	s.global("/v1/healthz", get(handleHealth))

	// Everything else: a JSON 404 envelope instead of net/http's plain-text
	// default, so clients can rely on the error shape across the whole
	// surface.
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, codeNotFound,
			fmt.Errorf("serve: no route for %s %s", r.Method, r.URL.Path))
	})
}

// scoped registers one deployment-scoped route resolved from the {name}
// path wildcard.
func (s *Server) scoped(template string, methods map[string]methodHandler) {
	rt := &routeDef{
		idx:      s.nScoped,
		template: template,
		handlers: methods,
	}
	s.nScoped++
	// The unknown-deployment series: 404s for names that do not resolve
	// must be countable without minting a series per probed name.
	rt.em = newEndpointMetrics(s.reg, template, "unknown")
	s.register(rt)
}

// global registers a route that is not bound to any deployment.
func (s *Server) global(template string, methods map[string]methodHandler) {
	rt := &routeDef{
		idx:      -1,
		template: template,
		global:   true,
		handlers: methods,
	}
	rt.em = newEndpointMetrics(s.reg, template, "")
	s.register(rt)
}

// register wires rt into the mux: one method-qualified pattern per allowed
// method, plus a method-less fallback on the same pattern that answers 405
// with an Allow header and the JSON envelope (Go's mux prefers the
// method-qualified pattern when the method matches). The deployment name is
// the {name} path value — "" on global routes, which have no wildcard.
func (s *Server) register(rt *routeDef) {
	methods := make([]string, 0, len(rt.handlers))
	for m := range rt.handlers {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	rt.allow = strings.Join(methods, ", ")
	s.routes = append(s.routes, rt)
	for _, m := range methods {
		s.mux.HandleFunc(m+" "+rt.template, func(w http.ResponseWriter, r *http.Request) {
			s.serveRoute(rt, r.PathValue("name"), w, r, true)
		})
	}
	s.mux.HandleFunc(rt.template, func(w http.ResponseWriter, r *http.Request) {
		s.serveRoute(rt, r.PathValue("name"), w, r, false)
	})
}

// ServeHTTP implements http.Handler: every request, predict included, is
// routed by the mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// errBodyTooLarge is readBody's answer to a body of more than maxBody bytes.
var errBodyTooLarge = fmt.Errorf("serve: body exceeds %d bytes", maxBody)

// readBody is the one reader of request bodies: it reads at most maxBody+1
// bytes (one past the cap, to tell an oversized body from one at the cap) and
// answers errBodyTooLarge for an oversized one — never a truncated prefix. A
// declared Content-Length sizes the buffer once, up to bodyPrealloc — the
// header is the client's word, so a connection that declares the cap and
// sends nothing must not pin the cap; beyond that, and for a chunked body,
// the buffer grows with the bytes received the way io.ReadAll's does. The
// buffer is never pooled: /train and /ingest hand these bytes to the chunk
// store, /restore to the snapshot sink.
func readBody(r *http.Request) (b []byte, err error) {
	body := io.LimitReader(r.Body, maxBody+1)
	if r.ContentLength < 0 {
		b, err = io.ReadAll(body)
	} else {
		// One byte more than declared: the Read that reports EOF needs room.
		b = make([]byte, 0, min(r.ContentLength, bodyPrealloc)+1)
		for err == nil {
			if len(b) == cap(b) { // longer than declared: keep growing
				b = append(b, 0)[:len(b)]
			}
			var n int
			n, err = body.Read(b[len(b):cap(b)])
			b = b[:len(b)+n]
		}
		if err == io.EOF {
			err = nil
		}
	}
	switch {
	case err != nil:
		return nil, fmt.Errorf("serve: reading body: %w", err)
	case len(b) > maxBody:
		return nil, errBodyTooLarge
	}
	return b, nil
}

var newline = []byte{'\n'}

// readRecords splits a request body into newline-separated records,
// dropping empty lines.
func readRecords(r *http.Request) ([][]byte, error) {
	body, err := readBody(r)
	if err != nil {
		return nil, err
	}
	records := make([][]byte, 0, bytes.Count(body, newline)+1)
	for rest := body; len(rest) > 0; {
		line := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = nil
		}
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(line) > 0 {
			records = append(records, line)
		}
	}
	return records, nil
}

// writeJSON encodes v before the status line is written, so a value
// encoding/json refuses (a NaN somewhere inside it) answers 500 in the error
// envelope instead of the intended status with a cut-off body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		// Two strings: this cannot fail.
		_ = json.NewEncoder(&buf).Encode(errorBody{Error: errorDetail{
			Code: codeInternal, Message: "serve: encoding response: " + err.Error(),
		}})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// Machine-readable error codes of the uniform error envelope.
const (
	codeBadRequest        = "bad_request"
	codeMethodNotAllowed  = "method_not_allowed"
	codeInternal          = "internal"
	codeQueueFull         = "queue_full"
	codeShuttingDown      = "shutting_down"
	codePayloadTooLarge   = "payload_too_large"
	codeUnknownDeployment = "unknown_deployment"
	codeDeploymentExists  = "deployment_exists"
	codeChallengerExists  = "challenger_exists"
	codeConflict          = "conflict"
	codeNotFound          = "not_found"
	codeUnsupported       = "unsupported"
	codeReadOnlyReplica   = "read_only_replica"
	// codeResumeUnavailable: 503 with Retry-After from the checkpoint and
	// snapshot endpoints while core.ErrResumeUnavailable holds — after a
	// failed tick, until the next successful one publishes.
	codeResumeUnavailable = "resume_unavailable"
)

// errorBody is the uniform JSON error envelope every non-2xx response
// carries: {"error": {"code": ..., "message": ...}}. Code is stable and
// machine-readable; Message is human-readable and may change between
// releases.
type errorBody struct {
	Error errorDetail `json:"error"`
}

// errorDetail is the inner object of errorBody.
type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, errorBody{Error: errorDetail{Code: code, Message: err.Error()}})
}

// writeSnapshotError answers a failed checkpoint/snapshot request: the
// failed-tick window (core.ErrResumeUnavailable) is a transient condition
// the next successful tick clears — 503 with Retry-After, a replica keeps
// the version it has and polls again — and anything else is a 500.
func writeSnapshotError(w http.ResponseWriter, err error) {
	if errors.Is(err, core.ErrResumeUnavailable) {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, codeResumeUnavailable, err)
		return
	}
	writeError(w, http.StatusInternalServerError, codeInternal, err)
}

// PredictResponse is the /predict payload.
type PredictResponse struct {
	// Predictions holds one model output per surviving record, in input
	// order.
	Predictions []float64 `json:"predictions"`
	// Served counts the records that survived preprocessing.
	Served int `json:"served"`
	// Dropped counts records the pipeline rejected (malformed or filtered).
	Dropped int `json:"dropped"`
	// LatencyMS is the server-side handling time.
	LatencyMS float64 `json:"latency_ms"`
}

// Static errors of the hot handlers: package-level values, so rejecting
// garbage allocates no fresh error each time.
var (
	errEmptyRequest        = errors.New("serve: empty request")
	errNonFinitePrediction = errors.New("serve: the model produced a non-finite prediction")
)

// predictBufs holds the buffers predict responses are assembled in. A buffer
// goes back only after its bytes have been handed to the ResponseWriter,
// which copies them.
var predictBufs = sync.Pool{New: func() any { return new([]byte) }}

// handlePredict serves predict requests. It sits on the serving fast path —
// everything from here down to Snapshot scoring carries the hotpath
// contract. The response is appended into a pooled buffer and written in one
// Write; what the request itself allocates is the body and its record slice.
//
//cdml:hotpath
func handlePredict(s *Server, name string, h *depHandle, w http.ResponseWriter, r *http.Request) {
	start := time.Now() //lint:allow hotpath: request latency is part of the response contract (LatencyMS)
	records, err := readRecords(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	if len(records) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, errEmptyRequest)
		return
	}
	preds, err := h.dep.Predict(records)
	if err != nil {
		writeError(w, http.StatusInternalServerError, codeInternal, err)
		return
	}
	// JSON has no NaN or Inf: refuse before the status line is written.
	for _, p := range preds {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			writeError(w, http.StatusInternalServerError, codeInternal, errNonFinitePrediction)
			return
		}
	}
	buf := predictBufs.Get().(*[]byte)
	*buf = appendPredictResponse((*buf)[:0], PredictResponse{
		Predictions: preds,
		Served:      len(preds),
		Dropped:     len(records) - len(preds),
		LatencyMS:   float64(time.Since(start).Microseconds()) / 1000,
	})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(*buf)
	predictBufs.Put(buf)
}

// appendPredictResponse appends resp exactly as json.NewEncoder(w).Encode(resp)
// writes it — field order, number formatting, trailing newline — without the
// reflection walk over every prediction. Clients compare answers as text, so
// the equality is pinned byte for byte by TestAppendPredictResponseMatchesJSON.
// Every float must be finite.
//
//cdml:hotpath
func appendPredictResponse(b []byte, resp PredictResponse) []byte {
	b = append(b, `{"predictions":`...)
	if resp.Predictions == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, p := range resp.Predictions {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONFloat(b, p)
		}
		b = append(b, ']')
	}
	b = append(b, `,"served":`...)
	b = strconv.AppendInt(b, int64(resp.Served), 10)
	b = append(b, `,"dropped":`...)
	b = strconv.AppendInt(b, int64(resp.Dropped), 10)
	b = append(b, `,"latency_ms":`...)
	b = appendJSONFloat(b, resp.LatencyMS)
	return append(b, '}', '\n')
}

// appendJSONFloat appends a finite float64 in encoding/json's format: the
// shortest decimal that round-trips, with an exponent below 1e-6 and from
// 1e21 up, and a negative exponent's leading zero dropped.
//
//cdml:hotpath
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) { //lint:allow floateq: exact zero takes the plain format, as in encoding/json
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 → e-9
		b = b[:n-1]
	}
	return b
}

// trainResponse is the /train payload.
type trainResponse struct {
	// Ingested counts the raw records accepted into the platform.
	Ingested int `json:"ingested"`
	// LatencyMS is the server-side handling time.
	LatencyMS float64 `json:"latency_ms"`
}

func handleTrain(s *Server, name string, h *depHandle, w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	records, err := readRecords(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	if len(records) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, errEmptyRequest)
		return
	}
	// The context carries the middleware's request span, so the synchronous
	// tick inherits the request's trace id and shows up in /trace?id= —
	// and, through the deployment, tees the chunk into a shadow challenger
	// if one is attached. Synchronous chunks are neither queued nor logged.
	if err := h.dep.IngestLogged(r.Context(), records, time.Time{}, 0); err != nil {
		writeError(w, http.StatusInternalServerError, codeInternal, err)
		return
	}
	writeJSON(w, http.StatusOK, trainResponse{
		Ingested:  len(records),
		LatencyMS: float64(time.Since(start).Microseconds()) / 1000,
	})
}

// statsResponse is the /stats payload.
type statsResponse struct {
	Mode            string  `json:"mode"`
	CumulativeError float64 `json:"cumulative_error"`
	Evaluated       int64   `json:"evaluated"`
	ProactiveRuns   int     `json:"proactive_runs"`
	Retrains        int     `json:"retrains"`
	DriftEvents     int     `json:"drift_events"`
	CostSeconds     float64 `json:"cost_seconds"`
	Mu              float64 `json:"materialization_utilization"`
	Chunks          int64   `json:"chunks_ingested"`
	// RecentLoss / RecentEvaluated are the faded per-record loss a promotion
	// compares and the records it has seen (.../status: window_loss).
	RecentLoss      float64 `json:"recent_loss"`
	RecentEvaluated int64   `json:"recent_evaluated"`
}

func handleStats(s *Server, name string, h *depHandle, w http.ResponseWriter, r *http.Request) {
	st := h.dep.Serving().Stats()
	writeJSON(w, http.StatusOK, statsResponse{
		Mode:            st.Mode.String(),
		CumulativeError: st.FinalError,
		Evaluated:       st.Evaluated,
		ProactiveRuns:   st.ProactiveRuns,
		Retrains:        st.Retrains,
		DriftEvents:     st.DriftEvents,
		CostSeconds:     st.Cost.Total().Seconds(),
		Mu:              st.MatStats.Mu(),
		Chunks:          st.Chunks,
		RecentLoss:      st.RecentLoss,
		RecentEvaluated: st.RecentCount,
	})
}

// handleMetrics serves the shared metric registry in Prometheus text
// exposition format: every deployment's series, separated by the
// deployment label.
func handleMetrics(s *Server, _ string, _ *depHandle, w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WriteText(w)
}

// traceResponse is the /trace payload.
type traceResponse struct {
	// ID echoes the ?id= filter when one was given.
	ID string `json:"id,omitempty"`
	// Total counts deployment ticks recorded since startup.
	Total uint64 `json:"total_ticks"`
	// Spans holds span trees: the most recent ticks (newest first) by
	// default, or — with ?id= — every retained tree of one trace in start
	// order (request, queue wait + tick stages, checkpoint write).
	Spans []*obs.Span `json:"spans"`
}

// handleTrace serves span trees of the deployment's champion. Without
// parameters it lists the last N deployment ticks (?n= bounds the count,
// default 20, capped by the tracer's ring size). With ?id=<trace or request
// id> it instead assembles the end-to-end trace: every retained span tree —
// the HTTP request root, the tick (including its queue-wait stage for async
// ingest), and the background checkpoint write — carrying that id, sorted
// by start time.
func handleTrace(s *Server, name string, h *depHandle, w http.ResponseWriter, r *http.Request) {
	tracer := h.dep.Serving().Tracer()
	if id := r.URL.Query().Get("id"); id != "" {
		spans := append(tracer.ByID(id), s.reqTracer.ByID(id)...)
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
		writeJSON(w, http.StatusOK, traceResponse{
			ID:    id,
			Total: tracer.Total(),
			Spans: spans,
		})
		return
	}
	n := 20
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("serve: invalid n %q", q))
			return
		}
		n = v
	}
	writeJSON(w, http.StatusOK, traceResponse{
		Total: tracer.Total(),
		Spans: tracer.Last(n),
	})
}

// handleSnapshotGet serves the published snapshot as a self-validating
// CDMLCKP1 frame. Without ?since= it is the download, whose body is what
// POST .../restore takes; ?since=<version> makes it the replication feed's
// conditional poll — 304 Not Modified when nothing newer than that version
// has been published, so steady-state polling costs a header exchange. The
// response always carries X-Snapshot-Version (the currently published
// version), 304s included, so a replica can track its lag even while up to
// date.
func handleSnapshotGet(s *Server, name string, h *depHandle, w http.ResponseWriter, r *http.Request) {
	var since uint64
	if q := r.URL.Query().Get("since"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest,
				fmt.Errorf("serve: invalid since %q", q))
			return
		}
		since = v
	}
	f, ok, err := h.dep.Serving().FrameSince(since)
	if err != nil {
		writeSnapshotError(w, err)
		return
	}
	if !ok {
		w.Header().Set(snapstream.VersionHeader,
			strconv.FormatUint(h.dep.Serving().Published().Version(), 10))
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(snapstream.VersionHeader, strconv.FormatUint(f.Version, 10))
	_, _ = w.Write(snapstream.EncodeFrame(f))
}

// checkpointNowResponse is the payload of POST .../checkpoint.
type checkpointNowResponse struct {
	// Version is the snapshot version written (v − 1 completed ticks).
	Version uint64 `json:"version"`
	// Path is the durable checkpoint file.
	Path string `json:"path"`
}

// handleCheckpointNow forces a durable checkpoint of the champion,
// regardless of the policy's tick/interval triggers. Deployments without an
// auto-checkpoint policy have no durable directory to write into and answer
// 501 "unsupported" (download GET .../snapshot instead).
func handleCheckpointNow(s *Server, name string, h *depHandle, w http.ResponseWriter, r *http.Request) {
	info, err := h.dep.Serving().CheckpointNow()
	switch {
	case errors.Is(err, core.ErrNoCheckpointPolicy):
		writeError(w, http.StatusNotImplemented, codeUnsupported, err)
		return
	case err != nil:
		writeSnapshotError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, checkpointNowResponse{Version: info.Version, Path: info.Path})
}

// handleRestore loads a GET .../snapshot frame into the live deployment:
// the frame's length and CRC are checked before its payload is decoded, the
// payload in full before anything is swapped, and the version only moves
// forward (core's SnapshotSink().Apply). Oversized bodies are rejected with
// 413 payload_too_large — never silently truncated into a decode error (or a
// valid-looking prefix). The body is buffered and size-checked in full
// before any state is touched, so a 413 always means the live model was left
// as it was: a valid frame with trailing bytes past the cap must not be
// applied and then reported as rejected.
func handleRestore(s *Server, name string, h *depHandle, w http.ResponseWriter, r *http.Request) {
	if r.ContentLength > maxBody {
		writeError(w, http.StatusRequestEntityTooLarge, codePayloadTooLarge,
			fmt.Errorf("serve: checkpoint is %d bytes, exceeding the %d-byte body cap", r.ContentLength, maxBody))
		return
	}
	body, err := readBody(r)
	switch {
	case errors.Is(err, errBodyTooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, codePayloadTooLarge, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	f, err := snapstream.DecodeFrame("restore body", body)
	if err == nil {
		err = h.dep.Serving().SnapshotSink().Apply(f)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "restored"})
}

func handleHealth(s *Server, _ string, _ *depHandle, w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok"))
}

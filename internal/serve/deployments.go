package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"cdml/internal/obs"
	"cdml/internal/registry"
)

// depHandle is the server-side serving state of one deployment: its ingest
// queue (with drainer goroutine), and one pre-created instrument set per
// deployment-scoped route. Handles are immutable after creation; the
// name→handle map is copy-on-write, so request routing is one atomic load.
type depHandle struct {
	name string
	dep  *registry.Deployment
	q    *chunkQueue
	// rep is non-nil when the server runs in replica mode (WithReplicaOf):
	// the deployment's sync poller is then its only writer, and mutating
	// routes answer 409 read_only_replica.
	rep *replicaState
	// em holds the per-deployment instruments, indexed by routeDef.idx.
	em []*endpointMetrics
}

// handleByName resolves a deployment name to its serving state (nil when
// unknown). Lock-free: one atomic pointer load.
//
//cdml:hotpath
func (s *Server) handleByName(name string) *depHandle {
	return (*s.handles.Load())[name]
}

// addHandle builds the serving state for d and publishes it. Idempotent per
// name; the copy-on-write map swap keeps concurrent request routing
// lock-free.
func (s *Server) addHandle(d *registry.Deployment) *depHandle {
	s.hmu.Lock()
	defer s.hmu.Unlock()
	cur := *s.handles.Load()
	if h, ok := cur[d.Name()]; ok {
		return h
	}
	capacity := chunkQueueCap
	if q := d.Quotas().MaxIngestQueue; q > 0 && q < capacity {
		capacity = q
	}
	h := &depHandle{
		name: d.Name(),
		dep:  d,
		q:    newChunkQueue(capacity),
		em:   make([]*endpointMetrics, s.nScoped),
	}
	for _, rt := range s.routes {
		if rt.idx >= 0 {
			h.em[rt.idx] = newEndpointMetrics(s.reg, rt.template, d.Name())
		}
	}
	if s.replicaOf != "" {
		h.rep = s.newReplicaState(d)
		s.registerReplicaMetrics(d.Name())
	}
	s.registerQueueMetrics(d.Name())
	next := make(map[string]*depHandle, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[d.Name()] = h
	s.handles.Store(&next)
	go s.drainHandle(h)
	if h.rep != nil {
		go s.pollReplica(h)
	}
	return h
}

// removeHandle unpublishes the named handle (requests start answering 404
// immediately) and closes its ingest queue; chunks already queued still
// drain. Returns nil when the name was not routed.
func (s *Server) removeHandle(name string) *depHandle {
	s.hmu.Lock()
	cur := *s.handles.Load()
	h, ok := cur[name]
	if ok {
		next := make(map[string]*depHandle, len(cur)-1)
		for k, v := range cur {
			if k != name {
				next[k] = v
			}
		}
		s.handles.Store(&next)
	}
	s.hmu.Unlock()
	if !ok {
		return nil
	}
	h.q.close()
	if h.rep != nil {
		h.rep.stopPoller()
	}
	return h
}

// registerQueueMetrics registers the named deployment's queue series. The
// closures resolve the current handle at scrape time — a handle deleted and
// recreated under the same name keeps the series live (the obs registry
// keeps the first registration per name+labels, so re-registering is a
// no-op) — and report zero while the name is unrouted.
func (s *Server) registerQueueMetrics(name string) {
	ls := []obs.Label{obs.L("deployment", name)}
	lookup := func(f func(h *depHandle) float64) func() float64 {
		return func() float64 {
			if h := s.handleByName(name); h != nil {
				return f(h)
			}
			return 0
		}
	}
	s.reg.GaugeFunc("cdml_ingest_queue_depth",
		"Chunks queued for asynchronous ingest, not yet trained on.",
		lookup(func(h *depHandle) float64 { return float64(h.q.depth()) }), ls...)
	s.reg.CounterFunc("cdml_ingest_queue_accepted_total",
		"Async-ingest chunks accepted (202).",
		lookup(func(h *depHandle) float64 { return float64(h.q.accepted.Load()) }), ls...)
	s.reg.CounterFunc("cdml_ingest_queue_rejected_total",
		"Async-ingest chunks rejected with queue_full backpressure (503).",
		lookup(func(h *depHandle) float64 { return float64(h.q.rejected.Load()) }), ls...)
}

// challengerInfo describes an attached shadow challenger.
type challengerInfo struct {
	Role      string `json:"role"` // always "challenger"
	StartedAt string `json:"started_at"`
	// Ticks counts live chunks shadowed so far; ShadowErrors the ones whose
	// shadow tick failed (champion unaffected).
	Ticks        int64  `json:"ticks"`
	ShadowErrors int64  `json:"shadow_errors"`
	LastError    string `json:"last_error,omitempty"`
	// WindowLoss / WindowEvaluated are the challenger's recent loss and the
	// records it has seen — the promotion comparison input.
	WindowLoss      float64 `json:"window_loss"`
	WindowEvaluated int64   `json:"window_evaluated"`
	SnapshotVersion uint64  `json:"snapshot_version"`
	// Policy echoes the effective (defaulted) promotion policy.
	Policy registry.Policy `json:"policy"`
}

// DeploymentInfo is one row of GET /v1/deployments (and the body of GET
// /v1/deployments/{name}).
type DeploymentInfo struct {
	Name string `json:"name"`
	Role string `json:"role"` // always "champion": the serving side of the pair
	// Version counts role changes: 1 at creation, +1 per promotion or
	// rollback.
	Version uint64 `json:"version"`
	Mode    string `json:"mode"`
	// SnapshotVersion / SnapshotAgeSeconds identify the published snapshot
	// answering predictions and its staleness.
	SnapshotVersion    uint64  `json:"snapshot_version"`
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
	// WindowLoss / WindowEvaluated are the champion's recent loss and the
	// records it has seen: its side of the promotion comparison.
	WindowLoss      float64 `json:"window_loss"`
	WindowEvaluated int64   `json:"window_evaluated"`
	// HasRollback reports whether a previous champion is retained.
	HasRollback bool            `json:"has_rollback"`
	Challenger  *challengerInfo `json:"challenger,omitempty"`
}

func newChallengerInfo(st registry.ChallengerStatus) *challengerInfo {
	return &challengerInfo{
		Role:            "challenger",
		StartedAt:       st.StartedAt.UTC().Format(time.RFC3339Nano),
		Ticks:           st.Ticks,
		ShadowErrors:    st.ShadowErrs,
		LastError:       st.LastError,
		WindowLoss:      st.WindowLoss,
		WindowEvaluated: st.WindowCount,
		SnapshotVersion: st.SnapshotVersion,
		Policy:          st.Policy,
	}
}

func deploymentInfo(d *registry.Deployment) DeploymentInfo {
	dep := d.Serving()
	snap := dep.Published()
	res := dep.Stats()
	info := DeploymentInfo{
		Name:               d.Name(),
		Role:               "champion",
		Version:            d.Version(),
		Mode:               res.Mode.String(),
		SnapshotVersion:    snap.Version(),
		SnapshotAgeSeconds: time.Since(snap.BuiltAt()).Seconds(),
		WindowLoss:         res.RecentLoss,
		WindowEvaluated:    res.RecentCount,
		HasRollback:        d.HasRollback(),
	}
	if st, ok := d.Challenger(); ok {
		info.Challenger = newChallengerInfo(st)
	}
	return info
}

// deploymentList is the GET /v1/deployments payload.
type deploymentList struct {
	Deployments []DeploymentInfo `json:"deployments"`
}

func handleList(s *Server, _ string, _ *depHandle, w http.ResponseWriter, r *http.Request) {
	deps := s.registry.List()
	out := deploymentList{Deployments: make([]DeploymentInfo, 0, len(deps))}
	for _, d := range deps {
		out.Deployments = append(out.Deployments, deploymentInfo(d))
	}
	writeJSON(w, http.StatusOK, out)
}

func handleDescribe(s *Server, name string, h *depHandle, w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, deploymentInfo(h.dep))
}

// createDeploymentRequest is the PUT /v1/deployments/{name} body. Spec is
// opaque to the server and interpreted by the operator's configBuilder.
type createDeploymentRequest struct {
	Spec   json.RawMessage `json:"spec"`
	Quotas registry.Quotas `json:"quotas"`
}

// readJSONBody decodes a JSON request body into v (size-capped).
func readJSONBody(r *http.Request, v any) error {
	body, err := readBody(r)
	if err != nil {
		return err
	}
	if len(body) == 0 {
		return errEmptyRequest
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("serve: decoding body: %w", err)
	}
	return nil
}

// handleCreate serves PUT /v1/deployments/{name}: builds a config from the
// request's spec via the configBuilder and registers a new deployment under
// the name. Existing names answer 409 "deployment_exists" — a deployment's
// pipeline is not mutable in place; deploy a challenger instead.
func handleCreate(s *Server, name string, h *depHandle, w http.ResponseWriter, r *http.Request) {
	if s.builder == nil {
		writeError(w, http.StatusNotImplemented, codeUnsupported,
			errors.New("serve: deployment creation requires a config builder (WithConfigBuilder)"))
		return
	}
	if h != nil {
		writeError(w, http.StatusConflict, codeDeploymentExists,
			fmt.Errorf("serve: deployment %q already exists", name))
		return
	}
	var req createDeploymentRequest
	if err := readJSONBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	cfg, err := s.builder(name, req.Spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	d, err := s.registry.Create(name, cfg, req.Quotas)
	switch {
	case errors.Is(err, registry.ErrExists):
		writeError(w, http.StatusConflict, codeDeploymentExists, err)
		return
	case errors.Is(err, registry.ErrBadName):
		writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	case errors.Is(err, registry.ErrState):
		// The spec was fine; opening or recovering the name's state was not.
		writeError(w, http.StatusInternalServerError, codeInternal, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	s.addHandle(d)
	writeJSON(w, http.StatusCreated, deploymentInfo(d))
}

// handleDelete serves DELETE /v1/deployments/{name}: the handle is
// unpublished first (requests start answering 404), queued ingest drains
// into the still-live deployment, and only then is the deployment shut
// down — so accepted (202) chunks are never dropped by a delete. A name
// nobody serves may still own directories (registry.Delete), so the registry
// decides what is unknown.
func handleDelete(s *Server, name string, h *depHandle, w http.ResponseWriter, r *http.Request) {
	if removed := s.removeHandle(name); removed != nil {
		<-removed.q.done
	}
	switch err := s.registry.Delete(name); {
	case errors.Is(err, registry.ErrUnknown) && h == nil:
		writeError(w, http.StatusNotFound, codeUnknownDeployment, fmt.Errorf("serve: unknown deployment %q", name))
		return
	case err != nil && !errors.Is(err, registry.ErrUnknown):
		writeError(w, http.StatusInternalServerError, codeInternal, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted", "name": name})
}

// challengerRequest is the POST /v1/deployments/{name}/challengers body.
type challengerRequest struct {
	Spec   json.RawMessage `json:"spec"`
	Policy registry.Policy `json:"policy"`
}

// handleChallengerStart attaches a shadow challenger built from the
// request's spec. 202: shadow training is asynchronous — the challenger
// earns promotion (or retirement) from live traffic, not from this request.
func handleChallengerStart(s *Server, name string, h *depHandle, w http.ResponseWriter, r *http.Request) {
	if s.builder == nil {
		writeError(w, http.StatusNotImplemented, codeUnsupported,
			errors.New("serve: challenger creation requires a config builder (WithConfigBuilder)"))
		return
	}
	var req challengerRequest
	if err := readJSONBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	cfg, err := s.builder(name, req.Spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	switch err := h.dep.StartChallenger(cfg, req.Policy); {
	case errors.Is(err, registry.ErrChallengerBusy):
		writeError(w, http.StatusConflict, codeChallengerExists, err)
	case errors.Is(err, registry.ErrClosed):
		writeError(w, http.StatusConflict, codeConflict, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, codeBadRequest, err)
	default:
		st, _ := h.dep.Challenger()
		writeJSON(w, http.StatusAccepted, map[string]any{
			"status":     "shadowing",
			"name":       name,
			"challenger": newChallengerInfo(st),
		})
	}
}

// handleChallengerStop retires the challenger without promotion.
func handleChallengerStop(s *Server, name string, h *depHandle, w http.ResponseWriter, r *http.Request) {
	switch err := h.dep.StopChallenger(); {
	case errors.Is(err, registry.ErrNoChallenger):
		writeError(w, http.StatusNotFound, codeNotFound, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, codeInternal, err)
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "retired", "name": name})
	}
}

// handleRollback swaps the previous champion back in, undoing the most
// recent promotion.
func handleRollback(s *Server, name string, h *depHandle, w http.ResponseWriter, r *http.Request) {
	switch err := h.dep.Rollback(); {
	case errors.Is(err, registry.ErrNoRollback), errors.Is(err, registry.ErrClosed):
		writeError(w, http.StatusConflict, codeConflict, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, codeInternal, err)
	default:
		writeJSON(w, http.StatusOK, map[string]any{
			"status":  "rolled_back",
			"name":    name,
			"version": h.dep.Version(),
		})
	}
}

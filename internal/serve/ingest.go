package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cdml/internal/obs"
)

// ingestItem is one queued async-ingest chunk plus the identity it carries
// across the queue boundary: the originating request's trace and request
// ids (so the eventual tick joins the request's trace) and the enqueue time
// (so the wait is recorded as the tick's queue-wait span).
type ingestItem struct {
	records    [][]byte
	traceID    string
	requestID  string
	enqueuedAt time.Time
	// walSeq is the chunk's write-ahead ingest-log sequence number, assigned
	// by the durable append inside enqueue (0 = the deployment has no
	// ingest log). The drainer commits or aborts it after the tick.
	walSeq uint64
}

// Sentinel enqueue rejections: a full queue is backpressure the client
// should retry with backoff; a closed queue is a draining server the
// client should fail over from, so it carries no Retry-After.
var (
	errQueueFull   = errors.New("serve: ingest queue full")
	errQueueClosed = errors.New("serve: ingest queue closed")
)

// chunkQueueCap is the bounded async-ingest queue capacity (chunks) per
// deployment. A deployment's MaxIngestQueue quota may lower it, never raise
// it: the quota arrives over PUT, and a request must not size a huge
// channel.
const chunkQueueCap = 256

// chunkQueue is the bounded buffer behind POST .../ingest — one per
// deployment, so a backlogged pipeline never delays its neighbors.
// Handlers enqueue chunks without waiting for a tick; the deployment's
// single drainer goroutine feeds them to the champion in log order, so the
// deployment's serialized writer stays single-writer while HTTP clients get
// an immediate 202. When the queue is full (training cannot keep up with
// arrivals) the handler answers 503 queue_full instead of buffering
// unboundedly — explicit backpressure the client can react to.
type chunkQueue struct {
	ch   chan ingestItem
	done chan struct{} // closed when the drainer exits

	// mu is the admission mutex: enqueue holds it across the closed and
	// room checks, the log append and the send, so a chunk's queue
	// position is its log position and close's close(ch) never races a
	// send. The drainer never takes it.
	mu     sync.Mutex
	closed bool //cdml:guardedby mu

	// pmu guards pending, a FIFO mirror of the queued items' enqueue times:
	// appended on enqueue, popped after the drainer finishes an item, so
	// its length is the queue depth and oldestAge reports how stale the
	// head of the queue is — including an item currently being trained on,
	// whose wait is still unserved from the client's view.
	pmu     sync.Mutex
	pending []time.Time //cdml:guardedby pmu

	errs     atomic.Int64 // failed async Ingest calls
	lastErr  atomic.Value // string: message of the most recent failure
	accepted atomic.Int64 // chunks accepted (202)
	rejected atomic.Int64 // chunks rejected with queue_full (503)
	// tickNanos is a moving average (weight 0.3 on the newest) of Ingest
	// tick durations, maintained by the drainer and read by the 503 path to
	// derive an honest Retry-After: the queue frees one slot per tick, so
	// one recent tick duration is the time until an immediate retry can
	// succeed.
	tickNanos atomic.Int64
}

// observeTick folds one tick duration into the moving average.
func (q *chunkQueue) observeTick(d time.Duration) {
	const alpha = 0.3
	prev := q.tickNanos.Load()
	if prev == 0 {
		q.tickNanos.Store(int64(d))
		return
	}
	q.tickNanos.Store(int64(alpha*float64(d) + (1-alpha)*float64(prev)))
}

// retryAfterSeconds suggests how long a backpressured client should wait
// before retrying, clamped to [1, 60] whole seconds (HTTP Retry-After has
// one-second resolution; 1 is the floor even for sub-second ticks).
func (q *chunkQueue) retryAfterSeconds() int {
	nanos := q.tickNanos.Load()
	if nanos <= 0 {
		return 1
	}
	secs := int(time.Duration(nanos).Truncate(time.Second) / time.Second)
	if time.Duration(nanos)%time.Second != 0 {
		secs++
	}
	return min(max(secs, 1), 60)
}

func newChunkQueue(capacity int) *chunkQueue {
	return &chunkQueue{
		ch:   make(chan ingestItem, capacity),
		done: make(chan struct{}),
	}
}

// enqueue admits one chunk in one critical section: it refuses a closed
// (errQueueClosed) or full (errQueueFull) queue before logging anything,
// then appends the chunk with appendLog, stamps it and sends it. On success
// it reports the post-enqueue depth; an append error is returned as is and
// queues nothing. Only enqueue sends, under mu, and the drainer only
// receives, so the room checked is still there at the send.
//
// pmu is held across the send and the mirror append: the drainer's
// itemDone can run the moment the send completes, and must find the
// timestamp it pops.
func (q *chunkQueue) enqueue(it ingestItem, appendLog func([][]byte) (uint64, error)) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return 0, errQueueClosed
	}
	if len(q.ch) == cap(q.ch) {
		return 0, errQueueFull
	}
	seq, err := appendLog(it.records)
	if err != nil {
		return 0, err
	}
	it.walSeq, it.enqueuedAt = seq, time.Now()
	q.pmu.Lock()
	defer q.pmu.Unlock()
	q.ch <- it
	q.pending = append(q.pending, it.enqueuedAt)
	return len(q.pending), nil
}

// itemDone pops the head of the pending-times mirror after the drainer has
// finished one item.
func (q *chunkQueue) itemDone() {
	q.pmu.Lock()
	if len(q.pending) > 0 {
		q.pending = q.pending[1:]
	}
	q.pmu.Unlock()
}

// oldestAge reports how long the oldest unfinished queued chunk has been
// waiting (0 when the queue is idle) — the staleness answer /status gives
// without anyone scraping /trace.
func (q *chunkQueue) oldestAge() time.Duration {
	q.pmu.Lock()
	defer q.pmu.Unlock()
	if len(q.pending) == 0 {
		return 0
	}
	return time.Since(q.pending[0])
}

// depth counts the chunks enqueued and not yet ingested.
func (q *chunkQueue) depth() int {
	q.pmu.Lock()
	defer q.pmu.Unlock()
	return len(q.pending)
}

// close stops intake; idempotent. Chunks already queued still drain.
func (q *chunkQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.closed {
		q.closed = true
		close(q.ch)
	}
}

// drainHandle is one deployment's consumer goroutine: log-order ingest
// calls until the queue is closed and empty. A failed tick is recorded and
// surfaced on /status, not retried — the records are in the client's hands,
// and the deployment publishes no snapshot for a failed tick, so state
// stays consistent.
//
//cdml:detached ticks outlive the requests that enqueued them; trace identity re-attaches via the span carrier below
func (s *Server) drainHandle(h *depHandle) {
	q := h.q
	defer close(q.done)
	for it := range q.ch {
		start := time.Now()
		// Re-carry the originating request's identity across the queue
		// boundary: a span used purely as a trace-id carrier rides the
		// context into IngestLogged, whose tick records the queue wait and
		// joins the request's trace.
		carrier := &obs.Span{Name: "async-ingest", TraceID: it.traceID, RequestID: it.requestID}
		ctx := obs.ContextWithSpan(context.Background(), carrier)
		if err := h.dep.IngestLogged(ctx, it.records, it.enqueuedAt, it.walSeq); err != nil {
			q.errs.Add(1)
			q.lastErr.Store(err.Error())
			if s.log != nil {
				s.log.LogAttrs(ctx, slog.LevelError, "async ingest failed",
					slog.String("deployment", h.name),
					slog.String("error", err.Error()),
					slog.String("request_id", it.requestID),
					slog.String("trace_id", it.traceID))
			}
		}
		q.observeTick(time.Since(start))
		q.itemDone()
	}
}

// DrainIngest stops accepting new async-ingest chunks on every deployment
// (subsequent POST .../ingest answer 503) and waits until every
// already-queued chunk has been ingested — the final tick publishes each
// deployment's last snapshot, so Predict keeps answering from fully
// trained state during and after the drain. Idempotent; returns ctx.Err if
// the context expires first.
func (s *Server) DrainIngest(ctx context.Context) error {
	m := *s.handles.Load()
	for _, h := range m {
		h.q.close()
	}
	for _, h := range m {
		select {
		case <-h.q.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// ingestResponse is the 202 payload of the async POST .../ingest endpoint.
type ingestResponse struct {
	// Queued counts the raw records accepted into the ingest queue.
	Queued int `json:"queued"`
	// QueueDepth is the number of chunks waiting (including this one).
	QueueDepth int `json:"queue_depth"`
}

// handleIngest is the asynchronous sibling of /train: the chunk is queued
// and ingested by the deployment's drainer goroutine, decoupling HTTP
// latency from training-tick duration. When the deployment runs a
// write-ahead ingest log, the chunk is durably appended (fsynced) before
// the 202 — an acknowledged chunk survives a crash and is replayed on
// recovery. 503 queue_full signals backpressure; 503 shutting_down (no
// Retry-After) signals a draining server the client should fail over from.
func handleIngest(s *Server, name string, h *depHandle, w http.ResponseWriter, r *http.Request) {
	records, err := readRecords(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err)
		return
	}
	if len(records) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, errEmptyRequest)
		return
	}
	it := ingestItem{records: records}
	if sp := obs.FromContext(r.Context()); sp != nil {
		it.traceID = sp.TraceID
		it.requestID = sp.RequestID
	}
	depth, err := h.q.enqueue(it, h.dep.AppendIngestLog)
	switch {
	case errors.Is(err, errQueueClosed):
		writeError(w, http.StatusServiceUnavailable, codeShuttingDown,
			errors.New("serve: ingest is draining for shutdown; chunk not accepted"))
		return
	case errors.Is(err, errQueueFull):
		h.q.rejected.Add(1)
		// Retry-After tells the client when a slot is likely free: the queue
		// drains one chunk per tick, so a recent tick duration is the honest
		// wait estimate (RFC 9110 §10.2.3).
		w.Header().Set("Retry-After", strconv.Itoa(h.q.retryAfterSeconds()))
		writeError(w, http.StatusServiceUnavailable, codeQueueFull,
			fmt.Errorf("serve: ingest queue full (capacity %d); retry with backoff", cap(h.q.ch)))
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, codeInternal,
			fmt.Errorf("serve: ingest log append: %w", err))
		return
	}
	h.q.accepted.Add(1)
	writeJSON(w, http.StatusAccepted, ingestResponse{Queued: len(records), QueueDepth: depth})
}

// statusResponse is the /status payload: the published snapshot's identity
// and staleness, the async-ingest queue state, and the deployment's
// champion/challenger posture.
type statusResponse struct {
	// Name is the deployment's registered name; Role is always "champion"
	// (the serving side — the challenger, if any, appears under Challenger).
	Name string `json:"name"`
	Role string `json:"role"`
	// DeploymentVersion counts role changes: 1 at creation, +1 per
	// promotion or rollback.
	DeploymentVersion uint64 `json:"deployment_version"`
	Mode              string `json:"mode"`
	// SnapshotVersion is the publish sequence number of the snapshot
	// currently answering Predict/Stats (1 = initial, pre-ingest snapshot).
	SnapshotVersion uint64 `json:"snapshot_version"`
	// SnapshotBuiltAt is the RFC 3339 publish time of that snapshot.
	SnapshotBuiltAt string `json:"snapshot_built_at"`
	// SnapshotAgeSeconds is the staleness of the serving state: time since
	// the training writer last published.
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
	// WindowLoss / WindowEvaluated are the champion's recent loss and the
	// records it has seen: its side of the promotion comparison.
	WindowLoss      float64 `json:"window_loss"`
	WindowEvaluated int64   `json:"window_evaluated"`
	// HasRollback reports whether a previous champion is retained for
	// POST .../rollback.
	HasRollback bool `json:"has_rollback"`
	// Challenger describes the attached shadow challenger, if any.
	Challenger *challengerInfo `json:"challenger,omitempty"`
	// Replica describes replica-mode sync state (primary URL, version lag,
	// last sync); present only on replicas, whose Role is "replica".
	Replica *replicaInfo `json:"replica,omitempty"`
	// IngestQueueDepth / IngestQueueCapacity describe the async queue.
	IngestQueueDepth    int `json:"ingest_queue_depth"`
	IngestQueueCapacity int `json:"ingest_queue_capacity"`
	// IngestOldestAgeSeconds is how long the oldest unfinished queued chunk
	// has been waiting (0 when the queue is idle) — the ingest-side
	// staleness bound: data older than this is not yet in the model.
	IngestOldestAgeSeconds float64 `json:"ingest_oldest_age_seconds"`
	// IngestAsyncErrors counts async chunks whose Ingest tick failed;
	// IngestLastError is the most recent failure message, if any.
	IngestAsyncErrors int64   `json:"ingest_async_errors"`
	IngestLastError   string  `json:"ingest_last_error,omitempty"`
	UptimeSeconds     float64 `json:"uptime_seconds"`
	// LastTick summarizes the most recent recorded deployment tick's span
	// tree — where the last tick's time went, stage by stage — so the usual
	// "why is training slow" question is answerable from /status alone.
	// Omitted before the first tick.
	LastTick *tickSummary `json:"last_tick,omitempty"`
	// LastCheckpointVersion / LastCheckpointAgeSeconds describe the newest
	// durable checkpoint of a deployment running with an AutoCheckpoint
	// policy; both are omitted when checkpointing is off or none has been
	// written yet. Version maps to completed ticks (version-1 chunks).
	LastCheckpointVersion    uint64  `json:"last_checkpoint_version,omitempty"`
	LastCheckpointAgeSeconds float64 `json:"last_checkpoint_age_seconds,omitempty"`
	// WAL describes the durable write-ahead ingest log; present only when
	// the deployment runs one (Config.IngestLog / -wal-dir).
	WAL *walInfo `json:"wal,omitempty"`
}

// walInfo is the /status view of the write-ahead ingest log.
type walInfo struct {
	// LastSeq is the highest log sequence number appended so far.
	LastSeq uint64 `json:"last_seq"`
	// AppendedTotal / AppliedTotal / AbortedTotal count chunks durably
	// appended (one per 202 ack), committed by a tick, and marked
	// never-replay by a failed tick.
	AppendedTotal uint64 `json:"appended_total"`
	AppliedTotal  uint64 `json:"applied_total"`
	AbortedTotal  uint64 `json:"aborted_total"`
	// ReplayedOnRecovery counts chunks the most recent recovery replayed.
	ReplayedOnRecovery uint64 `json:"replayed_on_recovery"`
	// PendingReplay counts acknowledged chunks not yet consumed by a tick —
	// exactly what a crash right now would replay.
	PendingReplay int `json:"pending_replay"`
	// Segments / Bytes describe the on-disk footprint.
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
}

// tickSummary is the per-stage breakdown of one recorded deployment tick.
type tickSummary struct {
	// TraceID is the tick's trace id ("" for ticks outside any trace);
	// feed it to /trace?id= for the full tree.
	TraceID string `json:"trace_id,omitempty"`
	// DurationMS is the whole tick's duration.
	DurationMS float64 `json:"duration_ms"`
	// StagesMS maps the tick's top-level stage names (parse, serve,
	// preprocess, materialize, online-update, proactive-train, ...) to their
	// durations.
	StagesMS map[string]float64 `json:"stages_ms"`
}

// lastTickSummary summarizes the newest recorded tick span tree, or nil
// before the first tick. Scanning a few recent spans tolerates tracers
// shared with non-tick recordings (the checkpoint writer).
func lastTickSummary(tracer *obs.Tracer) *tickSummary {
	for _, sp := range tracer.Last(16) {
		if sp.Name != "tick" {
			continue
		}
		sum := &tickSummary{
			TraceID:    sp.TraceID,
			DurationMS: sp.DurationMS,
			StagesMS:   make(map[string]float64, len(sp.Children)),
		}
		for _, c := range sp.Children {
			sum.StagesMS[c.Name] += c.DurationMS
		}
		return sum
	}
	return nil
}

func handleStatus(s *Server, name string, h *depHandle, w http.ResponseWriter, r *http.Request) {
	dep := h.dep.Serving()
	snap := dep.Published()
	res := dep.Stats()
	resp := statusResponse{
		Name:                   h.name,
		Role:                   "champion",
		DeploymentVersion:      h.dep.Version(),
		Mode:                   res.Mode.String(),
		SnapshotVersion:        snap.Version(),
		SnapshotBuiltAt:        snap.BuiltAt().UTC().Format(time.RFC3339Nano),
		SnapshotAgeSeconds:     time.Since(snap.BuiltAt()).Seconds(),
		WindowLoss:             res.RecentLoss,
		WindowEvaluated:        res.RecentCount,
		HasRollback:            h.dep.HasRollback(),
		IngestQueueDepth:       h.q.depth(),
		IngestQueueCapacity:    cap(h.q.ch),
		IngestOldestAgeSeconds: h.q.oldestAge().Seconds(),
		IngestAsyncErrors:      h.q.errs.Load(),
		UptimeSeconds:          float64(time.Now().UnixNano()-s.startNanos) / 1e9,
		LastTick:               lastTickSummary(dep.Tracer()),
	}
	if st, ok := h.dep.Challenger(); ok {
		resp.Challenger = newChallengerInfo(st)
	}
	if h.rep != nil {
		resp.Role = "replica"
		resp.Replica = newReplicaInfo(h)
	}
	if msg, ok := h.q.lastErr.Load().(string); ok {
		resp.IngestLastError = msg
	}
	if info, ok := dep.LastCheckpoint(); ok {
		resp.LastCheckpointVersion = info.Version
		resp.LastCheckpointAgeSeconds = time.Since(info.At).Seconds()
	}
	if st, ok := dep.WALStats(); ok {
		resp.WAL = &walInfo{
			LastSeq:            st.LastSeq,
			AppendedTotal:      st.Appends,
			AppliedTotal:       st.Applied,
			AbortedTotal:       st.Aborted,
			ReplayedOnRecovery: st.Replayed,
			PendingReplay:      st.Unapplied,
			Segments:           st.Segments,
			Bytes:              st.Bytes,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

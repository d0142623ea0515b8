package serve

import (
	"context"
	"sync/atomic"
	"time"

	"cdml/internal/obs"
	"cdml/internal/registry"
	"cdml/internal/snapstream"
)

// DefaultReplicaPoll is the replica sync interval of cdml-serve, and of
// WithReplicaOf when it is given a non-positive one.
const DefaultReplicaPoll = 250 * time.Millisecond

// replicaHTTPTimeout caps one snapshot fetch from the primary — generous,
// because a full frame rides the response; a hung primary surfaces as a
// sync error rather than a stuck poller.
const replicaHTTPTimeout = 30 * time.Second

// replicaState is one replica deployment's sync state: the HTTP source
// polling the primary's snapshot feed, the deployment fetched frames are
// applied to, and the staleness counters /status and the cdml_replica_*
// series report. All fields are atomics or set once before the poller
// starts; the poller goroutine is the only writer of the counters.
type replicaState struct {
	// primary is the deployment's snapshot feed URL on the primary.
	primary string
	src     *snapstream.HTTPSource
	// dep's serving deployer is resolved per apply, so the replica never
	// pins a stale one.
	dep *registry.Deployment

	// ctx is the poller's: stop cancels it, which also ends a poll in
	// flight, so a hung primary never holds up a stop.
	ctx  context.Context
	stop context.CancelFunc
	done chan struct{} // closed when the poller exits

	// lastApplied is the primary's version of the last frame swapped in (0
	// before the first sync) — the ?since= watermark, so steady-state polls
	// are 304s.
	lastApplied atomic.Uint64
	// lastSyncNanos is the wall time of the last successful poll (304s
	// included: the primary answered, the replica is provably current).
	lastSyncNanos atomic.Int64
	polls         atomic.Int64
	applies       atomic.Int64
	syncErrs      atomic.Int64
	lastErr       atomic.Value // string: message of the most recent sync failure
}

// newReplicaState wires one deployment's sync state against the primary
// configured by WithReplicaOf.
//
//cdml:detached replica sync outlives any single request; failures surface via /status and the cdml_replica_* series, never a request error
func (s *Server) newReplicaState(d *registry.Deployment) *replicaState {
	url := s.replicaOf + "/v1/deployments/" + d.Name() + "/snapshot"
	ctx, stop := context.WithCancel(context.Background())
	return &replicaState{
		primary: url,
		src:     snapstream.NewHTTPSource(url, replicaHTTPTimeout),
		dep:     d,
		ctx:     ctx,
		stop:    stop,
		done:    make(chan struct{}),
	}
}

// pollOnce runs one conditional sync round: ask the primary for anything
// newer than the last applied version, swap a returned frame in, and fold
// the outcome into the staleness counters. A primary that answers with a
// version below the last applied one came back lower (it restarted and
// recovered less than it had published): the same round fetches its current
// frame and follows it there, which core publishes at the replica's next
// version. A failed fetch or a torn frame changes nothing — the replica
// keeps answering from its last good snapshot, which is the whole point of
// the atomic swap.
func (rep *replicaState) pollOnce(ctx context.Context) {
	rep.polls.Add(1)
	f, ok, err := rep.src.Latest(ctx, rep.lastApplied.Load())
	if err == nil && !ok && rep.src.KnownVersion() < rep.lastApplied.Load() {
		f, ok, err = rep.src.Latest(ctx, 0)
	}
	if err != nil {
		rep.syncErrs.Add(1)
		rep.lastErr.Store(err.Error())
		return
	}
	rep.lastSyncNanos.Store(time.Now().UnixNano())
	if !ok {
		return // 304: nothing newer than lastApplied
	}
	if err := rep.dep.Serving().SnapshotSink().Apply(f); err != nil {
		rep.syncErrs.Add(1)
		rep.lastErr.Store(err.Error())
		return
	}
	rep.lastApplied.Store(f.Version)
	rep.applies.Add(1)
}

// stopPoller stops the sync goroutine, a poll in flight included, and waits
// for it to exit; idempotent.
func (rep *replicaState) stopPoller() {
	rep.stop()
	<-rep.done
}

// pollReplica is a replica deployment's sync goroutine: an immediate poll
// at startup (a fresh replica converges without waiting out an interval),
// then one conditional poll per interval until stopped.
func (s *Server) pollReplica(h *depHandle) {
	rep := h.rep
	defer close(rep.done)
	t := time.NewTicker(s.pollEvery)
	defer t.Stop()
	for {
		rep.pollOnce(rep.ctx)
		select {
		case <-rep.ctx.Done():
			return
		case <-t.C:
		}
	}
}

// versionLag is how many published snapshot versions the replica is behind
// the primary's last advertised version (0 while current, and before the
// first poll answer).
func (rep *replicaState) versionLag() uint64 {
	known, applied := rep.src.KnownVersion(), rep.lastApplied.Load()
	if known <= applied {
		return 0
	}
	return known - applied
}

// lastSyncAge is the time since the primary last answered a poll
// (0 before the first successful poll).
func (rep *replicaState) lastSyncAge() time.Duration {
	nanos := rep.lastSyncNanos.Load()
	if nanos == 0 {
		return 0
	}
	return time.Duration(time.Now().UnixNano() - nanos)
}

// registerReplicaMetrics registers the named deployment's replica staleness
// series. Same contract as registerQueueMetrics: the closures resolve the
// current handle at scrape time and report zero while the name is unrouted
// or not a replica.
func (s *Server) registerReplicaMetrics(name string) {
	ls := []obs.Label{obs.L("deployment", name)}
	lookup := func(f func(h *depHandle) float64) func() float64 {
		return func() float64 {
			if h := s.handleByName(name); h != nil && h.rep != nil {
				return f(h)
			}
			return 0
		}
	}
	s.reg.GaugeFunc("cdml_replica_version_lag",
		"Published snapshot versions this replica is behind its primary.",
		lookup(func(h *depHandle) float64 { return float64(h.rep.versionLag()) }), ls...)
	s.reg.GaugeFunc("cdml_replica_snapshot_age_seconds",
		"Age of the snapshot this replica is answering predictions from.",
		lookup(func(h *depHandle) float64 {
			return time.Since(h.dep.Serving().Published().BuiltAt()).Seconds()
		}), ls...)
	s.reg.GaugeFunc("cdml_replica_last_sync_age_seconds",
		"Time since the primary last answered a sync poll.",
		lookup(func(h *depHandle) float64 { return h.rep.lastSyncAge().Seconds() }), ls...)
	s.reg.CounterFunc("cdml_replica_polls_total",
		"Snapshot sync polls sent to the primary.",
		lookup(func(h *depHandle) float64 { return float64(h.rep.polls.Load()) }), ls...)
	s.reg.CounterFunc("cdml_replica_applies_total",
		"Snapshot frames fetched from the primary and swapped in.",
		lookup(func(h *depHandle) float64 { return float64(h.rep.applies.Load()) }), ls...)
	s.reg.CounterFunc("cdml_replica_sync_errors_total",
		"Sync polls that failed (unreachable primary, torn frame, rejected apply).",
		lookup(func(h *depHandle) float64 { return float64(h.rep.syncErrs.Load()) }), ls...)
}

// replicaInfo is the replica-mode section of /status: where the deployment
// syncs from and how stale it is.
type replicaInfo struct {
	// Primary is the snapshot feed URL this replica polls.
	Primary string `json:"primary"`
	// SnapshotVersion is the last primary version swapped in (0 before the
	// first sync); PrimaryVersion is the primary's last advertised version.
	SnapshotVersion uint64 `json:"snapshot_version"`
	PrimaryVersion  uint64 `json:"primary_version"`
	// VersionLag = PrimaryVersion − SnapshotVersion (0 while current).
	VersionLag uint64 `json:"version_lag"`
	// LastSyncAgeSeconds is the time since the primary last answered a poll
	// (0 before the first successful poll).
	LastSyncAgeSeconds float64 `json:"last_sync_age_seconds"`
	Polls              int64   `json:"polls"`
	Applies            int64   `json:"applies"`
	SyncErrors         int64   `json:"sync_errors"`
	LastSyncError      string  `json:"last_sync_error,omitempty"`
}

func newReplicaInfo(h *depHandle) *replicaInfo {
	rep := h.rep
	info := &replicaInfo{
		Primary:            rep.primary,
		SnapshotVersion:    rep.lastApplied.Load(),
		PrimaryVersion:     rep.src.KnownVersion(),
		VersionLag:         rep.versionLag(),
		LastSyncAgeSeconds: rep.lastSyncAge().Seconds(),
		Polls:              rep.polls.Load(),
		Applies:            rep.applies.Load(),
		SyncErrors:         rep.syncErrs.Load(),
	}
	if msg, ok := rep.lastErr.Load().(string); ok {
		info.LastSyncError = msg
	}
	return info
}

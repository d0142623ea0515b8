package core

import (
	"context"
	"sync"

	"cdml/internal/snapstream"
)

// This file adapts a Deployer to the snapstream transport layer. The
// published snapshot is the system's one unit of state movement, and these
// two adapters are the only bridge between it and the wire: a Source that
// frames the current snapshot for checkpoint files, HTTP GET, and replica
// polls; a Sink that swaps an incoming frame in atomically via the same
// restore path used by checkpoint recovery. Every transport — disk, HTTP
// restore, replication — composes these instead of re-encoding by hand.

// Frame encodes the snapshot into one versioned snapstream frame.
// Snapshots are immutable, so encoding needs no synchronization and may
// run concurrently with the training writer. Only a snapshot that carries
// resume state can be framed (Deployer.Current returns one); any other
// reports ErrResumeUnavailable.
func (s *Snapshot) Frame() (snapstream.Frame, error) {
	payload, err := s.payload()
	if err != nil {
		return snapstream.Frame{}, err
	}
	return snapstream.Frame{Version: s.version, Payload: payload}, nil
}

// snapshotSource yields the deployer's published snapshot as a frame. The
// encoded form is cached per snapshot version, so N replicas polling one
// primary cost one encode per published version, not one per poll.
type snapshotSource struct {
	d *Deployer

	mu     sync.Mutex
	cached snapstream.Frame //cdml:guardedby mu — encoded form of the newest framed snapshot
}

var _ snapstream.Source = (*snapshotSource)(nil)

// Latest frames the published snapshot when it is newer than since;
// ok=false otherwise (the poll idle case, one atomic load). A version is
// completed into a resume point the first time it is asked for
// (resumePoint) and framed once; ErrResumeUnavailable in the failed-tick
// window means "poll again", the consumer keeps what it has.
func (s *snapshotSource) Latest(_ context.Context, since uint64) (snapstream.Frame, bool, error) {
	if s.d.current().version <= since {
		return snapstream.Frame{}, false, nil
	}
	snap, err := s.d.resumePoint()
	if err != nil {
		return snapstream.Frame{}, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cached.Version == snap.version {
		return s.cached, true, nil
	}
	f, err := snap.Frame()
	if err != nil {
		return snapstream.Frame{}, false, err
	}
	s.cached = f
	return f, true, nil
}

// SnapshotSource returns the deployer's frame source: the published
// snapshot, versioned and encoded on demand. The checkpoint GET handler
// and the replication endpoint both read from it.
func (d *Deployer) SnapshotSource() snapstream.Source { return &d.snapSrc }

// snapshotSink swaps incoming frames into the deployer.
type snapshotSink struct{ d *Deployer }

var _ snapstream.Sink = snapshotSink{}

// Apply restores the frame's payload and republishes it under the frame's
// version (version 0 keeps the deployer's own sequence — the HTTP restore
// path, whose raw payload carries no header). The swap is atomic: a
// concurrent Predict serves either the full prior state or the full
// restored state, and a rejected frame leaves the prior snapshot serving.
func (k snapshotSink) Apply(f snapstream.Frame) error {
	return k.d.restoreCheckpointAt(f.Payload, f.Version)
}

// SnapshotSink returns the deployer's frame sink: checkpoint recovery,
// HTTP restore, and replica swaps all apply frames through it.
func (d *Deployer) SnapshotSink() snapstream.Sink {
	return snapshotSink{d: d}
}

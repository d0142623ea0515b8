package core

import (
	"sync/atomic"

	"cdml/internal/model"
)

// ringSize bounds the weight buffers a deployment recycles across publishes:
// one is the published snapshot's, one is free for the next publish, and one
// covers a reader still pinning the snapshot before. A publish that finds all
// of them busy clones, as every publish did before the ring.
const ringSize = 3

// weightBuf is one recycled copy of the deployed model. readers counts the
// Predict calls that pinned a snapshot serving from it. The writer rewrites
// the weights only under d.mu, only while no reader holds a pin, and never
// while the buffer is the published snapshot's (see Deployer.pin).
//
// A snapshot reaches it, but its memory is the writer's: the pin protocol,
// not immutability, keeps a reader from seeing it change.
//
//cdml:mutable
type weightBuf struct {
	mdl     model.Model
	readers atomic.Int32
}

// weightRing is the writer's set of recycled buffers, all cloned from src.
type weightRing struct {
	src  model.Model
	bufs []*weightBuf
}

// take returns a copy of m's weights for the next snapshot: a ring buffer
// brought current with one whole-vector copy when one is neither published
// nor pinned, otherwise a fresh clone, kept in the ring while it has room.
// buf is nil when the copy is private to the snapshot. When m is not the
// model the ring was cloned from (a restore, a replica apply, a cold
// retrain), the ring starts over.
//
//cdml:locked mu
func (r *weightRing) take(m model.Model, published *weightBuf) (model.Model, *weightBuf) {
	if r.src != m {
		clear(r.bufs)
		r.src, r.bufs = m, r.bufs[:0]
	}
	for _, b := range r.bufs {
		if b != published && b.readers.Load() == 0 {
			b.mdl.SetWeights(m.Weights())
			return b.mdl, b
		}
	}
	c := m.Clone()
	if len(r.bufs) == ringSize {
		return c, nil
	}
	b := &weightBuf{mdl: c}
	r.bufs = append(r.bufs, b)
	return c, b
}

// pin returns the published snapshot with its weight buffer held against
// reuse until unpin. The snapshot is re-read after the count is raised and
// must be the same pointer: if a publish replaced it in between, the writer
// may already have judged the buffer free, so the pin is undone and taken
// again. The buffer alone would not do — a recycled buffer can be current
// again under a newer snapshot, whose weights must not meet an older
// snapshot's pipeline. The writer stores a snapshot before it loads any
// count, so of a reader's re-read and the writer's count load one sees the
// other.
//
//cdml:hotpath
func (d *Deployer) pin() *Snapshot {
	for {
		s := d.current()
		if s.buf == nil {
			return s
		}
		s.buf.readers.Add(1)
		if d.current() == s {
			return s
		}
		s.buf.readers.Add(-1)
	}
}

// unpin releases what pin held.
//
//cdml:hotpath
func unpin(s *Snapshot) {
	if s.buf != nil {
		s.buf.readers.Add(-1)
	}
}

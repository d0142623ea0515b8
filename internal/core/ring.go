package core

import (
	"sync/atomic"

	"cdml/internal/linalg"
	"cdml/internal/model"
	"cdml/internal/opt"
)

// ringSize bounds the weight buffers a deployment recycles across publishes:
// one is the published snapshot's, one is free for the next publish, and one
// covers a reader still pinning the snapshot before. A publish that finds all
// of them busy clones, as every publish did before the ring.
const ringSize = 3

// weightBuf is one recycled copy of the deployed model and optimizer.
// readers counts the pins on a snapshot serving from it (Predict, Current).
// The writer rewrites it only under d.mu, only while no reader holds a pin,
// and never while the buffer is the published snapshot's (see Deployer.pin).
// stale is what the deployed model and optimizer have changed since the
// writer last brought it up to date.
//
// A snapshot reaches it, but its memory is the writer's: the pin protocol,
// not immutability, keeps a reader from seeing it change.
//
//cdml:mutable
type weightBuf struct {
	mdl     model.Model
	optm    opt.Optimizer
	readers atomic.Int32
	stale   staleSet
}

// staleSet is the set of weight coordinates (and optimizer slot
// coordinates: a step changes the same ones) a buffer lacks: each once in
// idx, which bits marks, or every coordinate when all is set. It falls back
// to all for a dense gradient, a gradient of another shape, and when more
// than an eighth of the coordinates are marked, past which a whole copy is
// the cheaper refresh.
type staleSet struct {
	all  bool
	idx  []int32
	bits []uint64
}

// add marks the coordinates a step with gradient g changed.
func (s *staleSet) add(g linalg.Vector) {
	if s.all {
		return
	}
	sp, ok := g.(*linalg.Sparse)
	words := (g.Dim() + 63) / 64
	if !ok || (s.bits != nil && len(s.bits) != words) {
		s.markAll()
		return
	}
	if s.bits == nil {
		s.bits, s.idx = make([]uint64, words), make([]int32, 0, g.Dim()/8+1)
	}
	for _, i := range sp.Idx {
		if w, bit := i>>6, uint64(1)<<(i&63); s.bits[w]&bit == 0 {
			s.bits[w] |= bit
			s.idx = append(s.idx, i)
		}
	}
	if len(s.idx) > g.Dim()/8 {
		s.markAll()
	}
}

// markAll marks every coordinate.
func (s *staleSet) markAll() {
	s.reset()
	s.all = true
}

// reset empties the set, in O(marked coordinates).
func (s *staleSet) reset() {
	for _, i := range s.idx {
		s.bits[i>>6] = 0
	}
	s.idx, s.all = s.idx[:0], false
}

// weightRing is the writer's set of recycled buffers. They live as long as
// the deployer: its model keeps one kind, shape and regularizer for life (a
// restore or a replica apply decodes only a model like it, and a cold
// retraining builds one from the same Config), so a buffer cloned from the
// first deployed model can hold every later one.
type weightRing struct {
	bufs []*weightBuf
}

// mark records in every buffer that a step with gradient g changed the
// deployed model and optimizer. Every step on them goes through
// Deployer.stepDeployed, which calls it.
//
//cdml:locked mu
func (r *weightRing) mark(g linalg.Vector) {
	for _, b := range r.bufs {
		b.stale.add(g)
	}
}

// markAll records in every buffer that the deployed model and optimizer
// changed everywhere: a write that is not a stepDeployed step (the initial
// training, a retraining, a restore or replica apply).
//
//cdml:locked mu
func (r *weightRing) markAll() {
	for _, b := range r.bufs {
		b.stale.markAll()
	}
}

// take returns a copy of m's weights and o's slots for the next snapshot: a
// ring buffer brought up to date when one is neither published nor pinned,
// otherwise fresh copies, kept in the ring while it has room. buf is nil
// when the copy is private to the snapshot. The refresh copies only the
// coordinates the buffer's stale set holds, of the weights and of every
// optimizer slot, and o's scalar state whole; a stale set of all
// coordinates, or an optimizer slot allocated since the buffer's last copy,
// takes whole-vector copies. m has the shape of every model the ring has
// cloned (see weightRing), so a buffer serves across a restore, a replica
// apply or a cold retraining — each marks every buffer stale.
//
//cdml:locked mu
func (r *weightRing) take(m model.Model, o opt.Optimizer, published *weightBuf) (model.Model, opt.Optimizer, *weightBuf) {
	for _, b := range r.bufs {
		if b != published && b.readers.Load() == 0 {
			b.refresh(m, o)
			return b.mdl, b.optm, b
		}
	}
	b := &weightBuf{mdl: m.Clone(), optm: opt.Copy(o, nil)}
	if len(r.bufs) == ringSize {
		return b.mdl, b.optm, nil
	}
	r.bufs = append(r.bufs, b)
	return b.mdl, b.optm, b
}

// refresh brings b up to date with m and o and empties its stale set.
func (b *weightBuf) refresh(m model.Model, o opt.Optimizer) {
	if b.stale.all || !opt.Refresh(o, b.optm, b.stale.idx) {
		b.mdl.SetWeights(m.Weights())
		b.optm = opt.Copy(o, b.optm)
	} else {
		src, dst := m.Weights(), b.mdl.Weights()
		for _, i := range b.stale.idx {
			dst[i] = src[i]
		}
	}
	b.stale.reset()
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

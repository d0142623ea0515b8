package core

import (
	"bytes"
	"slices"
	"testing"

	"cdml/internal/model"
	"cdml/internal/opt"
)

// ringState returns the ring's buffers and the model they were cloned from.
func ringState(d *Deployer) ([]*weightBuf, model.Model) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Clone(d.ring.bufs), d.ring.src
}

// TestPinnedSnapshotKeepsItsWeights: a pinned snapshot's buffer is never
// rewritten, however many publishes go by — twice round a ring's worth.
func TestPinnedSnapshotKeepsItsWeights(t *testing.T) {
	d, err := NewDeployer(liveConfig(ModeOnline))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	ingestChunks(t, d, smallStream, 0, 3)
	s := d.pin()
	if s.buf == nil {
		t.Fatal("the published snapshot does not serve from a ring buffer")
	}
	want := slices.Clone(s.mdl.Weights())
	ingestChunks(t, d, smallStream, 3, 3+2*ringSize)
	if got := s.mdl.Weights(); !sameBits(got, want) {
		t.Fatalf("pinned weights changed across %d publishes: %v, want %v", 2*ringSize, got, want)
	}
	if sameBits(d.Model().Weights(), want) {
		t.Fatal("the deployed weights did not move: the test exercises nothing")
	}
	unpin(s)
}

// TestPublishWithEveryBufferPinned: when every buffer is pinned a publish
// still succeeds, on a clone the ring does not keep, and the ring never
// holds more than ringSize buffers.
func TestPublishWithEveryBufferPinned(t *testing.T) {
	d, err := NewDeployer(liveConfig(ModeOnline))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	type held struct {
		s *Snapshot
		w []float64
	}
	var pins []held
	private := 0
	for i := 0; i < 2*ringSize; i++ {
		s := d.pin()
		pins = append(pins, held{s, slices.Clone(s.mdl.Weights())})
		ingestChunks(t, d, smallStream, i, i+1)
		bufs, _ := ringState(d)
		if len(bufs) > ringSize {
			t.Fatalf("the ring grew to %d buffers", len(bufs))
		}
		p := d.Published()
		if !sameBits(p.mdl.Weights(), d.Model().Weights()) {
			t.Fatalf("publish %d does not serve the deployed weights", p.Version())
		}
		if p.buf == nil {
			private++
			for _, b := range bufs {
				if b.mdl == p.mdl {
					t.Fatal("the fallback clone was kept in a full ring")
				}
			}
		}
	}
	if private == 0 {
		t.Fatal("no publish fell back to a private clone: the test exercises nothing")
	}
	for _, h := range pins {
		if !sameBits(h.s.mdl.Weights(), h.w) {
			t.Fatalf("the weights of pinned version %d changed", h.s.Version())
		}
		unpin(h.s)
	}
}

// TestApplyEmptiesTheRing: after a restore the deployed model is a new one,
// and no buffer cloned from the old model is reused.
func TestApplyEmptiesTheRing(t *testing.T) {
	d, err := NewDeployer(liveConfig(ModeOnline))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	ingestChunks(t, d, smallStream, 0, 4)
	f := frameOf(t, d)
	ingestChunks(t, d, smallStream, 4, 8)
	old, oldSrc := ringState(d)
	if len(old) == 0 {
		t.Fatal("no ring buffers before the restore")
	}
	if err := d.SnapshotSink().Apply(f); err != nil {
		t.Fatal(err)
	}
	ingestChunks(t, d, smallStream, 8, 12)
	bufs, src := ringState(d)
	if src == oldSrc || src != d.Model() {
		t.Fatal("the ring was not re-cloned from the restored model")
	}
	for _, b := range bufs {
		if slices.Contains(old, b) {
			t.Fatal("the ring kept a buffer cloned from the model before the restore")
		}
	}
}

// TestCurrentOwnsItsWeights: a snapshot that can be encoded is not in the
// ring, so its frame is the same bytes however many publishes follow.
func TestCurrentOwnsItsWeights(t *testing.T) {
	d, err := NewDeployer(liveConfig(ModeOnline))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	ingestChunks(t, d, smallStream, 0, 5)
	c := d.Current()
	if c.buf != nil {
		t.Fatal("Current returned a snapshot that shares a ring buffer")
	}
	before, err := c.Frame()
	if err != nil {
		t.Fatal(err)
	}
	ingestChunks(t, d, smallStream, 5, 15)
	after, err := c.Frame()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Payload, after.Payload) {
		t.Fatal("the frame of a Current() snapshot changed across 10 publishes")
	}
}

// TestPinsAcrossPublishesKeepWeightsAndSlots: with every ring buffer pinned,
// three more publishes fall back to private copies, and each pinned buffer's
// weights and optimizer slots stay what they were when it was pinned.
func TestPinsAcrossPublishesKeepWeightsAndSlots(t *testing.T) {
	d, err := NewDeployer(liveConfig(ModeOnline))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	type held struct {
		s     *Snapshot
		w     []float64
		slots []byte
	}
	var pins []held
	for i := 0; i < ringSize; i++ {
		ingestChunks(t, d, smallStream, i, i+1)
		s := d.pin()
		slots, err := opt.Encode(s.optm)
		if err != nil {
			t.Fatal(err)
		}
		pins = append(pins, held{s, slices.Clone(s.mdl.Weights()), slots})
	}
	for i := ringSize; i < 2*ringSize; i++ {
		ingestChunks(t, d, smallStream, i, i+1)
		if p := d.Published(); p.buf != nil {
			t.Fatalf("publish %d with every buffer pinned took a ring buffer", p.Version())
		}
		if !bytes.Equal(payloadBytes(t, d), alwaysCloneBytes(t, d)) {
			t.Fatalf("the private copy of version %d is not the live state", d.Published().Version())
		}
	}
	if sameBits(d.Model().Weights(), pins[0].w) {
		t.Fatal("the deployed weights did not move: the test exercises nothing")
	}
	for _, h := range pins {
		slots, err := opt.Encode(h.s.optm)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(h.s.mdl.Weights(), h.w) || !bytes.Equal(slots, h.slots) {
			t.Fatalf("the weights or slots of pinned version %d changed", h.s.Version())
		}
		unpin(h.s)
	}
}

package stats

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// The v1 reader. Snapshot payloads written before the flat format
// (DESIGN.md §5n) hold these statistics as nested gob streams over their
// unexported fields; checkpoints, restore bodies and primary frames from
// such a server are still supported input, so the decoders stay — and only
// the decoders: nothing here writes gob. See state.go for the encoding in
// use.

type welfordWire struct {
	N    int64
	Mean float64
	M2   float64
}

// GobDecode implements gob.GobDecoder.
func (w *Welford) GobDecode(b []byte) error {
	var wire welfordWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&wire); err != nil {
		return fmt.Errorf("stats: decoding Welford: %w", err)
	}
	if wire.N < 0 {
		return fmt.Errorf("stats: decoding Welford: count %d", wire.N)
	}
	w.n, w.mean, w.m2 = wire.N, wire.Mean, wire.M2
	return nil
}

type categoricalWire struct {
	Order  []string
	Counts []int64
	Total  int64 // not read: the total is the sum of the counts
}

// GobDecode implements gob.GobDecoder.
func (c *Categorical) GobDecode(b []byte) error {
	var wire categoricalWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&wire); err != nil {
		return fmt.Errorf("stats: decoding Categorical: %w", err)
	}
	return c.restore(wire.Order, wire.Counts)
}

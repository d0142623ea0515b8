package opt

import (
	"encoding/gob"
	"fmt"
	"io"
)

// LoadV1 reads the optimizer section of a snapshot payload written before
// the flat format (DESIGN.md §5n): one gob stream of the snapshot struct. It
// is the v1 reader — checkpoints, restore bodies and primary frames from
// such a server are still supported input — and nothing writes this form any
// more. The decoded snapshot goes through the same validation as a flat one.
// r must be an io.ByteReader, or gob reads past its own stream.
func LoadV1(r io.Reader, dim int) (Optimizer, error) {
	s, err := decodeV1(r)
	if err != nil {
		return nil, err
	}
	return s.build(dim)
}

func decodeV1(r io.Reader) (snapshot, error) {
	var s snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return s, fmt.Errorf("opt: decoding: %w", err)
	}
	return s, nil
}

package pipeline

import (
	"encoding/gob"
	"fmt"
	"io"

	"cdml/internal/stats"
)

// The v1 reader: the pipeline section of a snapshot payload written before
// the flat format (DESIGN.md §5n) is one gob stream per stateful component,
// in pipeline order, of the component's statistics maps. Checkpoints,
// restore bodies and primary frames from such a server are still supported
// input; nothing writes this form any more. Only the bundled components ever
// wrote it.

// LoadStateV1 restores a v1 pipeline section into an identically configured
// pipeline. r must be an io.ByteReader, or each gob decoder reads past its
// own stream into the next component's.
func (p *Pipeline) LoadStateV1(r io.Reader) error {
	return p.stateful(func(name string, pc Persistent) error {
		var err error
		switch c := pc.(type) {
		case *Imputer:
			err = c.loadStateV1(r)
		case *StandardScaler:
			err = loadMomentsV1(gob.NewDecoder(r), c.Cols, c.moments)
		case *MinMaxScaler:
			err = c.loadStateV1(r)
		case *OneHotEncoder:
			err = gob.NewDecoder(r).Decode(&c.domain)
		case *StdClipper:
			err = loadMomentsV1(gob.NewDecoder(r), c.Cols, c.moments)
		default:
			err = fmt.Errorf("no v1 checkpoint reader for %T", pc)
		}
		if err != nil {
			return fmt.Errorf("pipeline: loading %s state: %w", name, err)
		}
		return nil
	})
}

// decodeCols decodes one gob map and requires its keys to be the configured
// columns: the components index their statistics by column and would
// dereference a missing one, and statistics of other columns belong to
// another configuration.
func decodeCols[V any](dec *gob.Decoder, cols []string) (map[string]V, error) {
	var m map[string]V
	if err := dec.Decode(&m); err != nil {
		return nil, err
	}
	if len(m) > len(cols) {
		return nil, fmt.Errorf("statistics of %d columns where %d are configured", len(m), len(cols))
	}
	for _, c := range cols {
		if _, ok := m[c]; !ok {
			return nil, fmt.Errorf("no statistics for column %q", c)
		}
	}
	return m, nil
}

func loadMomentsV1(dec *gob.Decoder, cols []string, dst map[string]*stats.Welford) error {
	m, err := decodeCols[*stats.Welford](dec, cols)
	if err != nil {
		return err
	}
	for _, c := range cols {
		dst[c] = m[c]
	}
	return nil
}

func (im *Imputer) loadStateV1(r io.Reader) error {
	dec := gob.NewDecoder(r)
	if err := loadMomentsV1(dec, im.FloatCols, im.means); err != nil {
		return err
	}
	modes, err := decodeCols[*stats.Categorical](dec, im.StringCols)
	if err == nil {
		im.modes = modes
	}
	return err
}

func (s *MinMaxScaler) loadStateV1(r io.Reader) error {
	dec := gob.NewDecoder(r)
	lo, err := decodeCols[float64](dec, s.Cols)
	if err != nil {
		return err
	}
	hi, err := decodeCols[float64](dec, s.Cols)
	if err != nil {
		return err
	}
	s.min, s.max = lo, hi
	return nil
}

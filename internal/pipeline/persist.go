package pipeline

import (
	"encoding/binary"
	"fmt"
	"math"

	"cdml/internal/flat"
	"cdml/internal/stats"
)

// Persistent is the optional interface stateful components implement to
// join deployment checkpoints. A component's state is opaque bytes to the
// pipeline, which stores them behind the component's name and their length;
// the bundled components spell theirs in internal/flat. Stateless components
// need not implement it.
type Persistent interface {
	// StateSize returns the number of bytes AppendState will append; the
	// snapshot payload is allocated once from it.
	StateSize() int
	// AppendState appends the component's statistics to dst. Equal
	// statistics must append equal bytes (no map-order dependence): a
	// snapshot payload is compared and replicated as bytes.
	AppendState(dst []byte) []byte
	// LoadState restores the statistics from exactly the bytes AppendState
	// appended, on a component constructed with the same configuration. The
	// bytes may come from a file or another server: malformed state is an
	// error, never a panic. A component whose LoadState failed is discarded.
	LoadState(state []byte) error
}

// The state encodings of the bundled components. Statistics kept in a map
// are written in the component's column order, each behind its column name,
// so equal state is equal bytes and a checkpoint taken under another column
// configuration is refused instead of silently misapplied:
//
//	moments      uvarint n | n × (column string | Welford 24 B)
//	imputer      moments over FloatCols | uvarint n | n × (column string | Categorical) over StringCols
//	scalers      moments over Cols (standard-scaler, std-clipper)
//	minmax       uvarint n | n × (column string | min f64 | max f64)
//	one-hot      Categorical
//
// The leading counts, like every count in a payload, are checked against
// what the component was configured with before anything is read under them.

func momentsSize(cols []string) int {
	n := flat.UvarintSize(uint64(len(cols)))
	for _, c := range cols {
		n += flat.StringSize(c) + stats.WelfordStateSize
	}
	return n
}

func appendMoments(dst []byte, cols []string, m map[string]*stats.Welford) []byte {
	dst = flat.AppendUvarint(dst, uint64(len(cols)))
	for _, c := range cols {
		dst = m[c].AppendState(flat.AppendString(dst, c))
	}
	return dst
}

// column reads the next column name and requires it to be want.
func column(r *flat.Reader, want string) {
	if got := r.String(); r.Err() == nil && got != want {
		r.Failf("statistics of column %q where %q is configured", got, want)
	}
}

// columns reads a column count and requires it to be len(cols).
func columns(r *flat.Reader, cols []string) {
	if n := r.Count(len(cols), "columns"); r.Err() == nil && n != len(cols) {
		r.Failf("statistics of %d columns where %d are configured", n, len(cols))
	}
}

func loadMoments(r *flat.Reader, cols []string, m map[string]*stats.Welford) {
	columns(r, cols)
	for _, c := range cols {
		column(r, c)
		m[c].LoadState(r)
	}
}

// StateSize implements Persistent.
func (im *Imputer) StateSize() int {
	n := momentsSize(im.FloatCols) + flat.UvarintSize(uint64(len(im.StringCols)))
	for _, c := range im.StringCols {
		n += flat.StringSize(c) + im.modes[c].StateSize()
	}
	return n
}

// AppendState implements Persistent.
func (im *Imputer) AppendState(dst []byte) []byte {
	dst = appendMoments(dst, im.FloatCols, im.means)
	dst = flat.AppendUvarint(dst, uint64(len(im.StringCols)))
	for _, c := range im.StringCols {
		dst = im.modes[c].AppendState(flat.AppendString(dst, c))
	}
	return dst
}

// LoadState implements Persistent.
func (im *Imputer) LoadState(state []byte) error {
	r := flat.NewReader(state)
	loadMoments(r, im.FloatCols, im.means)
	columns(r, im.StringCols)
	for _, c := range im.StringCols {
		column(r, c)
		im.modes[c].LoadState(r)
	}
	return r.Close()
}

// StateSize implements Persistent.
func (s *StandardScaler) StateSize() int { return momentsSize(s.Cols) }

// AppendState implements Persistent.
func (s *StandardScaler) AppendState(dst []byte) []byte {
	return appendMoments(dst, s.Cols, s.moments)
}

// LoadState implements Persistent.
func (s *StandardScaler) LoadState(state []byte) error {
	r := flat.NewReader(state)
	loadMoments(r, s.Cols, s.moments)
	return r.Close()
}

// StateSize implements Persistent.
func (s *MinMaxScaler) StateSize() int {
	n := flat.UvarintSize(uint64(len(s.Cols)))
	for _, c := range s.Cols {
		n += flat.StringSize(c) + 16
	}
	return n
}

// AppendState implements Persistent.
func (s *MinMaxScaler) AppendState(dst []byte) []byte {
	dst = flat.AppendUvarint(dst, uint64(len(s.Cols)))
	for _, c := range s.Cols {
		dst = flat.AppendFloat64(flat.AppendFloat64(flat.AppendString(dst, c), s.min[c]), s.max[c])
	}
	return dst
}

// LoadState implements Persistent.
func (s *MinMaxScaler) LoadState(state []byte) error {
	r := flat.NewReader(state)
	columns(r, s.Cols)
	for _, c := range s.Cols {
		column(r, c)
		lo, hi := r.Float64(), r.Float64()
		if r.Err() == nil {
			s.min[c], s.max[c] = lo, hi
		}
	}
	return r.Close()
}

// StateSize implements Persistent.
func (o *OneHotEncoder) StateSize() int { return o.domain.StateSize() }

// AppendState implements Persistent.
func (o *OneHotEncoder) AppendState(dst []byte) []byte { return o.domain.AppendState(dst) }

// LoadState implements Persistent.
func (o *OneHotEncoder) LoadState(state []byte) error {
	r := flat.NewReader(state)
	o.domain.LoadState(r)
	return r.Close()
}

// StateSize implements Persistent.
func (c *StdClipper) StateSize() int { return momentsSize(c.Cols) }

// AppendState implements Persistent.
func (c *StdClipper) AppendState(dst []byte) []byte {
	return appendMoments(dst, c.Cols, c.moments)
}

// LoadState implements Persistent.
func (c *StdClipper) LoadState(state []byte) error {
	r := flat.NewReader(state)
	loadMoments(r, c.Cols, c.moments)
	return r.Close()
}

// The pipeline section of a snapshot payload (DESIGN.md §5n): the stateful
// components in pipeline order,
//
//	uvarint n | n × (component name string | state length u32 | state)
//
// Stateless components are not listed. A component that carries statistics
// but does not implement Persistent is an error on both sides, so a
// checkpoint is never silently partial.

// stateLenSize is the fixed width of a component's state length, written
// after the state it counts (so it cannot be a varint).
const stateLenSize = 4

// stateful calls fn for each stateful component in pipeline order, stopping
// at the first error; a stateful component that is not Persistent is one.
func (p *Pipeline) stateful(fn func(name string, pc Persistent) error) error {
	for _, c := range p.Components {
		if c.Stateless() {
			continue
		}
		pc, ok := c.(Persistent)
		if !ok {
			return fmt.Errorf("pipeline: stateful component %s does not support checkpointing", c.Name())
		}
		if err := fn(c.Name(), pc); err != nil {
			return err
		}
	}
	return nil
}

// countStateful is the number of stateful components, or the error of the
// first that cannot persist.
func (p *Pipeline) countStateful() (int, error) {
	count := 0
	err := p.stateful(func(string, Persistent) error { count++; return nil })
	return count, err
}

// StateSize is the number of bytes AppendState appends (less when it would
// fail).
func (p *Pipeline) StateSize() int {
	count, _ := p.countStateful()
	n := flat.UvarintSize(uint64(count))
	_ = p.stateful(func(name string, pc Persistent) error {
		n += flat.StringSize(name) + stateLenSize + pc.StateSize()
		return nil
	})
	return n
}

// AppendState appends the pipeline section to dst.
func (p *Pipeline) AppendState(dst []byte) ([]byte, error) {
	count, err := p.countStateful()
	if err != nil {
		return dst, err
	}
	dst = flat.AppendUvarint(dst, uint64(count))
	err = p.stateful(func(name string, pc Persistent) error {
		dst = flat.AppendString(dst, name)
		at := len(dst)
		dst = pc.AppendState(append(dst, 0, 0, 0, 0))
		n := len(dst) - at - stateLenSize
		if uint64(n) > math.MaxUint32 {
			return fmt.Errorf("pipeline: component %s state of %d bytes does not fit a snapshot payload", name, n)
		}
		binary.LittleEndian.PutUint32(dst[at:], uint32(n))
		return nil
	})
	return dst, err
}

// LoadState restores the section AppendState wrote into an identically
// configured pipeline, reading exactly that section from r. A failure leaves
// the pipeline half-restored: the caller discards it.
func (p *Pipeline) LoadState(r *flat.Reader) error {
	count, err := p.countStateful()
	if err != nil {
		return err
	}
	if n := r.Count(count, "stateful components"); r.Err() == nil && n != count {
		r.Failf("state of %d components for a pipeline of %d stateful ones", n, count)
	}
	return p.stateful(func(name string, pc Persistent) error {
		if got := r.String(); r.Err() == nil && got != name {
			r.Failf("state of component %q where the pipeline has %q", got, name)
		}
		var n uint32
		if b := r.Bytes(stateLenSize); b != nil {
			n = binary.LittleEndian.Uint32(b)
		}
		state := r.Bytes(int(n))
		if err := r.Err(); err != nil {
			return fmt.Errorf("pipeline: loading state: %w", err)
		}
		if err := pc.LoadState(state); err != nil {
			return fmt.Errorf("pipeline: loading %s state: %w", name, err)
		}
		return nil
	})
}

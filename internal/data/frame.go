// Package data implements the data-manager substrate of the platform
// (paper §4.2): the columnar record batches that flow through pipelines,
// the discretized raw/feature chunks with creation-timestamp identifiers
// (paper §3, stage 1), chunk storage backends (memory and disk), and the
// capacity-bounded feature-chunk store whose oldest-first eviction and
// re-materialization implement dynamic materialization (paper §3.2).
package data

import (
	"fmt"
	"math"

	"cdml/internal/linalg"
)

// Kind identifies the type of a Frame column.
type Kind int

// Column kinds.
const (
	KindFloat  Kind = iota // numeric values; NaN marks missing
	KindString             // categorical values; "" marks missing
	KindVec                // one feature vector per row
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindVec:
		return "vec"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// column is an internal tagged union; exactly one payload is non-nil.
type column struct {
	kind Kind
	f    []float64
	s    []string
	v    []linalg.Vector
}

func (c *column) len() int {
	switch c.kind {
	case KindFloat:
		return len(c.f)
	case KindString:
		return len(c.s)
	default:
		return len(c.v)
	}
}

// Frame is a small columnar batch of records with named, typed columns.
// Pipeline components treat frames as immutable: Transform builds a new
// frame, sharing the untouched columns of its input. A frame's columns all
// have the same length (the number of rows).
type Frame struct {
	rows  int
	cols  map[string]*column
	order []string
}

// NewFrame returns an empty frame with the given row count.
func NewFrame(rows int) *Frame {
	if rows < 0 {
		panic("data: negative row count")
	}
	return &Frame{rows: rows, cols: make(map[string]*column)}
}

// Rows returns the number of rows.
func (f *Frame) Rows() int { return f.rows }

// Columns returns the column names in insertion order. The slice is a copy.
func (f *Frame) Columns() []string { return append([]string(nil), f.order...) }

// Has reports whether a column exists.
func (f *Frame) Has(name string) bool {
	_, ok := f.cols[name]
	return ok
}

// KindOf returns the kind of the named column. It panics if the column does
// not exist.
func (f *Frame) KindOf(name string) Kind { return f.col(name).kind }

func (f *Frame) col(name string) *column {
	c, ok := f.cols[name]
	if !ok {
		panic(fmt.Sprintf("data: no column %q (have %v)", name, f.order))
	}
	return c
}

func (f *Frame) put(name string, c *column) {
	if c.len() != f.rows {
		panic(fmt.Sprintf("data: column %q has %d rows, frame has %d", name, c.len(), f.rows))
	}
	if _, exists := f.cols[name]; !exists {
		f.order = append(f.order, name)
	}
	f.cols[name] = c
}

// SetFloat installs (or replaces) a float column. The slice is stored
// without copying; callers hand over ownership.
func (f *Frame) SetFloat(name string, vals []float64) *Frame {
	f.put(name, &column{kind: KindFloat, f: vals})
	return f
}

// SetString installs (or replaces) a string column.
func (f *Frame) SetString(name string, vals []string) *Frame {
	f.put(name, &column{kind: KindString, s: vals})
	return f
}

// SetVec installs (or replaces) a vector column.
func (f *Frame) SetVec(name string, vals []linalg.Vector) *Frame {
	f.put(name, &column{kind: KindVec, v: vals})
	return f
}

// Float returns the named float column. It panics if the column is missing
// or has a different kind. The returned slice is the backing storage; treat
// it as read-only.
func (f *Frame) Float(name string) []float64 {
	c := f.col(name)
	if c.kind != KindFloat {
		panic(fmt.Sprintf("data: column %q is %v, not float", name, c.kind))
	}
	return c.f
}

// String returns the named string column (read-only).
func (f *Frame) String(name string) []string {
	c := f.col(name)
	if c.kind != KindString {
		panic(fmt.Sprintf("data: column %q is %v, not string", name, c.kind))
	}
	return c.s
}

// Vec returns the named vector column (read-only).
func (f *Frame) Vec(name string) []linalg.Vector {
	c := f.col(name)
	if c.kind != KindVec {
		panic(fmt.Sprintf("data: column %q is %v, not vec", name, c.kind))
	}
	return c.v
}

// ShallowCopy returns a new frame sharing all column storage with f.
// Components use it to replace some columns without mutating their input.
func (f *Frame) ShallowCopy() *Frame {
	g := &Frame{rows: f.rows, cols: make(map[string]*column, len(f.cols)), order: append([]string(nil), f.order...)}
	for name, c := range f.cols {
		g.cols[name] = c
	}
	return g
}

// Select returns a frame keeping only the rows for which keep[i] is true.
// When every row is kept the receiver itself is returned — frames are
// immutable, so sharing it is safe and costs nothing. Otherwise each column
// is copied in one pass.
func (f *Frame) Select(keep []bool) *Frame {
	if len(keep) != f.rows {
		panic(fmt.Sprintf("data: Select mask has %d entries, frame has %d rows", len(keep), f.rows))
	}
	n := 0
	for _, k := range keep {
		if k {
			n++
		}
	}
	if n == f.rows {
		return f
	}
	g := NewFrame(n)
	for _, name := range f.order {
		c := f.cols[name]
		switch c.kind {
		case KindFloat:
			out := make([]float64, 0, n)
			for i, k := range keep {
				if k {
					out = append(out, c.f[i])
				}
			}
			g.SetFloat(name, out)
		case KindString:
			out := make([]string, 0, n)
			for i, k := range keep {
				if k {
					out = append(out, c.s[i])
				}
			}
			g.SetString(name, out)
		case KindVec:
			out := make([]linalg.Vector, 0, n)
			for i, k := range keep {
				if k {
					out = append(out, c.v[i])
				}
			}
			g.SetVec(name, out)
		}
	}
	return g
}

// IsMissingFloat reports whether a float cell is missing (NaN).
func IsMissingFloat(v float64) bool { return math.IsNaN(v) }

// Missing is the sentinel for a missing float cell.
var Missing = math.NaN()

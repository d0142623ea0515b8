// Package linalg provides the dense and sparse vector primitives used by
// the pipeline components, models, and optimizers.
//
// The platform deals with two very different feature regimes: the URL-like
// workload produces extremely high-dimensional, very sparse feature vectors
// (feature hashing into 2^18 buckets), while the Taxi-like workload produces
// short dense vectors (~11 features). Vector is the common interface; Dense
// and Sparse are the two concrete representations. Model weights are always
// dense (a single weight vector is small even at high dimension), while
// per-example gradients follow the sparsity of the example.
package linalg

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Vector is a read-only view of a feature vector. Implementations must be
// safe for concurrent readers.
type Vector interface {
	// Dim returns the dimensionality of the vector.
	//cdml:deterministic
	Dim() int
	// At returns the value at index i. It panics if i is out of range.
	//cdml:deterministic
	At(i int) float64
	// Dot returns the inner product with the dense vector w. It panics if
	// len(w) < Dim().
	//cdml:deterministic
	Dot(w []float64) float64
	// AddScaledTo computes dst += alpha * v for a dense destination.
	//cdml:deterministic
	AddScaledTo(dst []float64, alpha float64)
	// NNZ returns the number of explicitly stored (potentially non-zero)
	// entries.
	//cdml:deterministic
	NNZ() int
	// L2 returns the Euclidean norm of the vector.
	//cdml:deterministic
	L2() float64
	// Clone returns a deep copy of the vector.
	Clone() Vector
}

// Dense is a dense vector backed by a []float64.
type Dense []float64

// NewDense returns a zero dense vector of dimension dim.
//
//cdml:deterministic
func NewDense(dim int) Dense { return make(Dense, dim) }

// Dim implements Vector.
//
//cdml:deterministic
func (d Dense) Dim() int { return len(d) }

// At implements Vector.
//
//cdml:deterministic
func (d Dense) At(i int) float64 { return d[i] }

// NNZ implements Vector. For a dense vector every entry is stored.
//
//cdml:deterministic
func (d Dense) NNZ() int { return len(d) }

// Dot implements Vector.
//
//cdml:hotpath
//cdml:deterministic
func (d Dense) Dot(w []float64) float64 {
	if len(w) < len(d) {
		panic(fmt.Sprintf("linalg: Dot dimension mismatch: vector %d, weights %d", len(d), len(w)))
	}
	var s float64
	for i, v := range d {
		s += v * w[i]
	}
	return s
}

// AddScaledTo implements Vector.
//
//cdml:hotpath
//cdml:deterministic
func (d Dense) AddScaledTo(dst []float64, alpha float64) {
	if len(dst) < len(d) {
		panic(fmt.Sprintf("linalg: AddScaledTo dimension mismatch: vector %d, dst %d", len(d), len(dst)))
	}
	for i, v := range d {
		dst[i] += alpha * v
	}
}

// L2 implements Vector.
//
//cdml:hotpath
//cdml:deterministic
func (d Dense) L2() float64 {
	var s float64
	for _, v := range d {
		s += v * v
	}
	return math.Sqrt(s)
}

// Clone implements Vector.
func (d Dense) Clone() Vector {
	c := make(Dense, len(d))
	copy(c, d)
	return c
}

// String renders the vector for debugging.
func (d Dense) String() string {
	parts := make([]string, len(d))
	for i, v := range d {
		parts[i] = fmt.Sprintf("%.4g", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Sparse is a sparse vector in coordinate format. Indices must be strictly
// increasing; use NewSparse to construct one safely from unsorted input.
type Sparse struct {
	// N is the nominal dimensionality of the vector.
	N int
	// Idx holds the indices of the stored entries in strictly increasing
	// order.
	Idx []int32
	// Val holds the values of the stored entries, parallel to Idx.
	Val []float64
}

// NewSparse builds a sparse vector of dimension dim from parallel index and
// value slices. The input is copied, sorted by index, and duplicate indices
// are summed in input order (the sort is stable, so the sum does not depend
// on the sorting algorithm). Entries with value 0 are kept (callers may rely
// on explicit zeros for presence semantics); use Compact to drop them. It is
// the general constructor; components that build a whole column of rows use
// SparseBatch, which produces the same vectors.
//
//cdml:deterministic
func NewSparse(dim int, idx []int32, val []float64) *Sparse {
	if len(idx) != len(val) {
		panic(fmt.Sprintf("linalg: NewSparse: len(idx)=%d != len(val)=%d", len(idx), len(val)))
	}
	type pair struct {
		i int32
		v float64
	}
	pairs := make([]pair, len(idx))
	for k := range idx {
		if idx[k] < 0 || int(idx[k]) >= dim {
			panic(fmt.Sprintf("linalg: NewSparse: index %d out of range [0,%d)", idx[k], dim))
		}
		pairs[k] = pair{idx[k], val[k]}
	}
	sort.SliceStable(pairs, func(a, b int) bool { return pairs[a].i < pairs[b].i })
	s := &Sparse{N: dim, Idx: make([]int32, 0, len(pairs)), Val: make([]float64, 0, len(pairs))}
	for _, p := range pairs {
		if n := len(s.Idx); n > 0 && s.Idx[n-1] == p.i {
			s.Val[n-1] += p.v
			continue
		}
		s.Idx = append(s.Idx, p.i)
		s.Val = append(s.Val, p.v)
	}
	return s
}

// Dim implements Vector.
//
//cdml:deterministic
func (s *Sparse) Dim() int { return s.N }

// NNZ implements Vector.
//
//cdml:deterministic
func (s *Sparse) NNZ() int { return len(s.Idx) }

// At implements Vector. It is O(log NNZ).
//
//cdml:deterministic
func (s *Sparse) At(i int) float64 {
	if i < 0 || i >= s.N {
		panic(fmt.Sprintf("linalg: Sparse.At: index %d out of range [0,%d)", i, s.N))
	}
	k := sort.Search(len(s.Idx), func(k int) bool { return s.Idx[k] >= int32(i) })
	if k < len(s.Idx) && s.Idx[k] == int32(i) {
		return s.Val[k]
	}
	return 0
}

// Dot implements Vector.
//
//cdml:hotpath
//cdml:deterministic
func (s *Sparse) Dot(w []float64) float64 {
	if len(w) < s.N {
		panic(fmt.Sprintf("linalg: Dot dimension mismatch: vector %d, weights %d", s.N, len(w)))
	}
	var sum float64
	for k, i := range s.Idx {
		sum += s.Val[k] * w[i]
	}
	return sum
}

// AddScaledTo implements Vector.
//
//cdml:hotpath
//cdml:deterministic
func (s *Sparse) AddScaledTo(dst []float64, alpha float64) {
	if len(dst) < s.N {
		panic(fmt.Sprintf("linalg: AddScaledTo dimension mismatch: vector %d, dst %d", s.N, len(dst)))
	}
	for k, i := range s.Idx {
		dst[i] += alpha * s.Val[k]
	}
}

// L2 implements Vector.
//
//cdml:hotpath
//cdml:deterministic
func (s *Sparse) L2() float64 {
	var sum float64
	for _, v := range s.Val {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// Clone implements Vector.
func (s *Sparse) Clone() Vector {
	c := &Sparse{N: s.N, Idx: make([]int32, len(s.Idx)), Val: make([]float64, len(s.Val))}
	copy(c.Idx, s.Idx)
	copy(c.Val, s.Val)
	return c
}

// ToDense expands the sparse vector into a freshly allocated dense vector.
func (s *Sparse) ToDense() Dense {
	d := NewDense(s.N)
	for k, i := range s.Idx {
		d[i] = s.Val[k]
	}
	return d
}

// Scale multiplies every stored value by alpha in place and returns s.
//
//cdml:deterministic
func (s *Sparse) Scale(alpha float64) *Sparse {
	for k := range s.Val {
		s.Val[k] *= alpha
	}
	return s
}

// String renders the vector for debugging.
func (s *Sparse) String() string {
	var b strings.Builder
	b.WriteString(fmt.Sprintf("sparse(dim=%d", s.N))
	for k, i := range s.Idx {
		fmt.Fprintf(&b, " %d:%.4g", i, s.Val[k])
	}
	b.WriteString(")")
	return b.String()
}

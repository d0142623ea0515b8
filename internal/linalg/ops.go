package linalg

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// Scale multiplies x by alpha in place.
//
//cdml:deterministic
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// DotDense returns the inner product of two dense slices.
func DotDense(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: DotDense dimension mismatch: %d vs %d", len(x), len(y)))
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of a dense slice.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// zero clears a dense slice in place.
func zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// CopyOf returns a copy of x.
func CopyOf(x []float64) []float64 {
	c := make([]float64, len(x))
	copy(c, x)
	return c
}

// Accumulator accumulates a weighted sum of vectors into a dense buffer and
// tracks which coordinates were touched. It is the gradient workhorse of the
// mini-batch SGD step: for sparse inputs only the touched coordinates are
// visited when the result is extracted — and when the accumulator is reset —
// which keeps a mini-batch gradient on a 2^18-dimensional space proportional
// to the batch's NNZ rather than the full dimension.
//
// That only holds if the dim-sized buffers are not allocated (and zeroed,
// and later marked by the collector) once per gradient, so accumulators are
// recycled: AcquireAccumulator hands out a clean one, Result copies the sum
// out and resets it, Release puts it back. The contract that makes the
// recycling safe is that nothing an Accumulator owns ever escapes it —
// Result returns freshly allocated memory — so an accumulator's lifetime is
// the one call that acquired it, and concurrent callers (gradient shards)
// each hold their own. Reuse never changes a sum: every round starts from
// all-zero buffers and adds in the caller's order.
type Accumulator struct {
	buf     []float64
	touched []int32
	seen    []bool
	dense   bool // a dense vector was added; all coordinates are live
}

// newAccumulator returns a fresh accumulator of dimension dim that is not
// tied to the recycling in AcquireAccumulator.
//
//cdml:deterministic
func newAccumulator(dim int) *Accumulator {
	return &Accumulator{buf: make([]float64, dim), seen: make([]bool, dim)}
}

// accumulators holds released accumulators. Every one in it is clean over
// its whole capacity (buf all zero, seen all false, touched empty), which
// is what lets AcquireAccumulator re-slice one to a smaller dimension.
var accumulators sync.Pool

// AcquireAccumulator returns a clean accumulator of dimension dim, recycled
// from an earlier Release when one of sufficient capacity is at hand. The
// caller owns it until Release and must not retain it afterwards.
//
//cdml:deterministic
func AcquireAccumulator(dim int) *Accumulator {
	if a, ok := accumulators.Get().(*Accumulator); ok && cap(a.buf) >= dim {
		a.buf, a.seen = a.buf[:dim], a.seen[:dim]
		return a
	}
	// Nothing pooled, or a smaller one: it is dropped for the collector and
	// its place is taken by the one allocated here, so a process whose
	// models differ in dimension settles on accumulators of the largest.
	return newAccumulator(dim)
}

// Release resets the accumulator and hands it back for reuse.
//
//cdml:deterministic
func (a *Accumulator) Release() {
	a.reset()
	accumulators.Put(a)
}

// Add accumulates alpha*v.
//
//cdml:deterministic
func (a *Accumulator) Add(v Vector, alpha float64) {
	switch t := v.(type) {
	case *Sparse:
		for k, i := range t.Idx {
			if !a.seen[i] {
				a.seen[i] = true
				a.touched = append(a.touched, i)
			}
			a.buf[i] += alpha * t.Val[k]
		}
	default:
		a.dense = true
		v.AddScaledTo(a.buf, alpha)
	}
}

// AddCoord accumulates alpha at a single coordinate.
//
//cdml:deterministic
func (a *Accumulator) AddCoord(i int, alpha float64) {
	if !a.seen[i] {
		a.seen[i] = true
		a.touched = append(a.touched, int32(i))
	}
	a.buf[i] += alpha
}

// Result extracts the accumulated vector, scaled by alpha. If any dense
// vector was added the result is Dense; otherwise it is Sparse over the
// touched coordinates. The result shares no memory with the accumulator,
// which is reset and may be reused.
//
//cdml:deterministic
func (a *Accumulator) Result(alpha float64) Vector {
	if a.dense {
		out := make(Dense, len(a.buf))
		for i, v := range a.buf {
			out[i] = v * alpha
		}
		a.reset()
		return out
	}
	// touched holds each index once, in insertion order: sorting the indices
	// is all a Sparse needs (no duplicates, so any sort gives the same
	// result), and the values are gathered in that order.
	idx := make([]int32, len(a.touched))
	copy(idx, a.touched)
	slices.Sort(idx)
	val := make([]float64, len(idx))
	for k, i := range idx {
		val[k] = a.buf[i] * alpha
	}
	out := &Sparse{N: len(a.buf), Idx: idx, Val: val}
	a.reset()
	return out
}

// ReduceSum returns the ordered sum of the partial vectors: parts are
// accumulated in slice order, so for a fixed partition the result is a pure
// function of the inputs — the deterministic reduce step of the
// data-parallel gradient computation (partial gradients are produced
// concurrently, but combined in fixed shard order, so seeded runs stay
// bit-identical at any worker count). The result is Sparse when every part
// is sparse, Dense otherwise.
//
//cdml:deterministic
func ReduceSum(dim int, parts []Vector) Vector {
	acc := AcquireAccumulator(dim)
	for _, p := range parts {
		acc.Add(p, 1)
	}
	sum := acc.Result(1)
	acc.Release()
	return sum
}

// reset returns the accumulator to its clean state in O(touched) — O(dim)
// only after a dense add. seen is cleared for the touched list on both
// branches: a dense round still marks coordinates through AddCoord (the
// intercept of every gradient), and a mark left standing would keep that
// coordinate off the next sparse round's touched list, i.e. out of its
// Result.
func (a *Accumulator) reset() {
	for _, i := range a.touched {
		a.buf[i] = 0
		a.seen[i] = false
	}
	if a.dense {
		zero(a.buf)
		a.dense = false
	}
	a.touched = a.touched[:0]
}

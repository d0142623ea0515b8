package linalg

import (
	"fmt"
	"math"
	"math/bits"
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
// tracks which coordinates were touched in a bitmap. It is the gradient
// workhorse of the mini-batch SGD step: for sparse inputs only the touched
// coordinates and one bit per coordinate are visited when the result is
// extracted — and when the accumulator is reset — which keeps a mini-batch
// gradient on a 2^18-dimensional space proportional to the batch's NNZ plus
// dim/64 words rather than to the full dimension.
//
// That only holds if the dim-sized buffers are not allocated (and zeroed,
// and later marked by the collector) once per gradient, so accumulators are
// recycled: AcquireAccumulator hands out a clean one, Result copies the sum
// out and resets it, Release puts it back. The contract that makes the
// recycling safe is that nothing an Accumulator owns ever escapes it —
// Result returns freshly allocated memory — so an accumulator's lifetime is
// the one call that acquired it, and concurrent callers (two deployments'
// training steps) each hold their own. Reuse never changes a sum: every
// round starts from all-zero buffers and adds in the caller's order.
type Accumulator struct {
	buf   []float64
	seen  []uint64 // bit i%64 of word i/64 set: coordinate i was touched
	n     int      // coordinates touched
	dense bool     // a dense vector was added; all coordinates are live
}

// words is the length of the seen bitmap of a dim-dimensional accumulator.
func words(dim int) int { return (dim + 63) / 64 }

// newAccumulator returns a fresh accumulator of dimension dim that is not
// tied to the recycling in AcquireAccumulator.
//
//cdml:deterministic
func newAccumulator(dim int) *Accumulator {
	return &Accumulator{buf: make([]float64, dim), seen: make([]uint64, words(dim))}
}

// accumulators holds released accumulators. Every one in it is clean over
// its whole capacity (buf all zero, seen all clear), which is what lets
// AcquireAccumulator re-slice one to a smaller dimension.
var accumulators sync.Pool

// AcquireAccumulator returns a clean accumulator of dimension dim, recycled
// from an earlier Release when one of sufficient capacity is at hand. The
// caller owns it until Release and must not retain it afterwards.
//
//cdml:deterministic
func AcquireAccumulator(dim int) *Accumulator {
	if a, ok := accumulators.Get().(*Accumulator); ok && cap(a.buf) >= dim {
		a.buf, a.seen = a.buf[:dim], a.seen[:words(dim)]
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

// mark records that coordinate i was touched.
//
//cdml:deterministic
func (a *Accumulator) mark(i int32) {
	if w, bit := i>>6, uint64(1)<<(i&63); a.seen[w]&bit == 0 {
		a.seen[w] |= bit
		a.n++
	}
}

// Add accumulates alpha*v.
//
//cdml:deterministic
func (a *Accumulator) Add(v Vector, alpha float64) {
	switch t := v.(type) {
	case *Sparse:
		for k, i := range t.Idx {
			a.buf[i] += alpha * t.Val[k]
			a.mark(i)
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
	a.buf[i] += alpha
	a.mark(int32(i))
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
	// The bitmap holds each touched index once, and is read in increasing
	// order: what a Sparse needs, with no sort. Each coordinate is cleared as
	// it is gathered, which leaves the accumulator clean.
	idx := make([]int32, 0, a.n)
	val := make([]float64, 0, a.n)
	for w, word := range a.seen {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			idx = append(idx, int32(i))
			val = append(val, a.buf[i]*alpha)
			a.buf[i] = 0
		}
		a.seen[w] = 0
	}
	a.n = 0
	return &Sparse{N: len(a.buf), Idx: idx, Val: val}
}

// reset returns the accumulator to its clean state in O(dim/64 + touched),
// O(dim) after a dense add. seen is cleared on both branches: a dense round
// still marks coordinates through AddCoord (the intercept of every
// gradient), and a mark left standing would keep that coordinate out of the
// next sparse round's Result.
func (a *Accumulator) reset() {
	if a.dense {
		zero(a.buf)
		clear(a.seen)
		a.dense = false
	} else if a.n > 0 {
		for w, word := range a.seen {
			for ; word != 0; word &= word - 1 {
				a.buf[w<<6|bits.TrailingZeros64(word)] = 0
			}
			a.seen[w] = 0
		}
	}
	a.n = 0
}

// Package flat is the byte vocabulary of a snapshot payload (DESIGN.md §5n):
// what the model, optimizer and pipeline sections of a checkpoint, a restore
// body and a replica frame are spelled in. Four things exist — an unsigned
// varint, a fixed-width little-endian 64-bit scalar, a length-prefixed
// string, and a float block — and each has exactly one encoding, so equal
// state is equal bytes and a decoded payload re-encodes to itself.
//
// A float block is how every []float64 travels:
//
//	uvarint n | n-bit non-zero bitmap, LSB first | the non-zero values' 64 bits, little-endian
//
// "Zero" means all 64 bits clear: −0.0 and every NaN payload are stored and
// round-trip, and a stored all-clear value is a decode error. Hashed weight
// vectors and lazily updated optimizer slots are mostly exact zeros (85 % of
// the URL deployment's 98 304 floats), which is why the block skips them
// instead of dumping 8 bytes a float.
//
// Appending is plain functions over a []byte the caller sized (a scalar's and
// a string's size is a function of it, a float block's is known once Scan
// has walked it); reading is a Reader with a sticky error, which validates
// before it allocates — the bytes come from files, restore bodies and other
// servers.
package flat

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrCorrupt is matched by errors.Is for every decode failure.
var ErrCorrupt = errors.New("flat: corrupt encoding")

var le = binary.LittleEndian

// UvarintSize is the encoded length of v.
func UvarintSize(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendUint64 appends v as 8 little-endian bytes.
func AppendUint64(dst []byte, v uint64) []byte { return le.AppendUint64(dst, v) }

// AppendFloat64 appends the 64 bits of v, little-endian.
func AppendFloat64(dst []byte, v float64) []byte { return le.AppendUint64(dst, math.Float64bits(v)) }

// StringSize is the encoded length of s.
func StringSize(s string) int { return UvarintSize(uint64(len(s))) + len(s) }

// AppendString appends s behind its uvarint byte length.
func AppendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// Block is a []float64 scanned for encoding: Scan walks the values once and
// keeps which of them are non-zero, so that Size is known before the
// destination is allocated and AppendTo visits only the values it stores.
// The slice is referenced, not copied: encode before it changes.
type Block struct {
	v      []float64
	bitmap []byte // bit i&7 of byte i>>3 is set when v[i] has any bit set
	nz     int    // set bits
}

// nonZero is 1 when any bit of b is set, else 0, without a branch: which
// coordinates of a hashed vector are zero is as good as random, and a loop
// that branches on it spends its time on mispredictions.
func nonZero(b uint64) uint64 { return (b | -b) >> 63 }

// Scan prepares v for encoding as a float block.
func Scan(v []float64) Block {
	b := Block{v: v, bitmap: make([]byte, (len(v)+7)/8)}
	i := 0
	for ; i+8 <= len(v); i += 8 {
		s := v[i : i+8 : i+8]
		m := nonZero(math.Float64bits(s[0])) | nonZero(math.Float64bits(s[1]))<<1 |
			nonZero(math.Float64bits(s[2]))<<2 | nonZero(math.Float64bits(s[3]))<<3 |
			nonZero(math.Float64bits(s[4]))<<4 | nonZero(math.Float64bits(s[5]))<<5 |
			nonZero(math.Float64bits(s[6]))<<6 | nonZero(math.Float64bits(s[7]))<<7
		b.bitmap[i>>3] = byte(m)
		b.nz += bits.OnesCount8(byte(m))
	}
	for ; i < len(v); i++ {
		m := nonZero(math.Float64bits(v[i]))
		b.bitmap[i>>3] |= byte(m) << (i & 7)
		b.nz += int(m)
	}
	return b
}

// Size is the number of bytes AppendTo appends.
func (b Block) Size() int { return UvarintSize(uint64(len(b.v))) + len(b.bitmap) + 8*b.nz }

// AppendTo appends the float block to dst. A nil and an empty slice encode
// alike (n = 0) and decode as nil.
func (b Block) AppendTo(dst []byte) []byte {
	dst = append(binary.AppendUvarint(dst, uint64(len(b.v))), b.bitmap...)
	// Sixty-four bitmap bits at a time: the inner loop runs once per stored
	// value and its exit is the only branch that depends on the data.
	k := 0
	for ; k+8 <= len(b.bitmap); k += 8 {
		for m := le.Uint64(b.bitmap[k:]); m != 0; m &= m - 1 {
			dst = le.AppendUint64(dst, math.Float64bits(b.v[k<<3+bits.TrailingZeros64(m)]))
		}
	}
	for ; k < len(b.bitmap); k++ {
		for m := b.bitmap[k]; m != 0; m &= m - 1 {
			dst = le.AppendUint64(dst, math.Float64bits(b.v[k<<3+bits.TrailingZeros8(m)]))
		}
	}
	return dst
}

// Reader decodes what the Append functions wrote. The first failure sticks:
// every later read returns a zero value, so a decoder reads its whole layout
// and checks Err (or Close) once. Nothing is allocated before the bytes that
// would fill it are known to be present.
type Reader struct {
	b   []byte
	err error
}

// NewReader reads from b, which it never writes and does not retain past the
// values it returns (strings and float slices are copies).
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err is the first failure, nil while every read has succeeded.
func (r *Reader) Err() error { return r.err }

// Failf records a failure found by the caller (a value out of its range) in
// the reader's terms; the first failure wins.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

// Close reports the first failure, or the bytes left unread: a layout that
// ends before its buffer does is as wrong as one that runs past it.
func (r *Reader) Close() error {
	if r.err == nil && len(r.b) != 0 {
		r.Failf("%d trailing bytes", len(r.b))
	}
	return r.err
}

// Remaining is the number of bytes not read yet: the bound a decoder puts on
// a count of things that each cost at least a byte.
func (r *Reader) Remaining() int { return len(r.b) }

// take returns the next n bytes, or nil after recording why not.
func (r *Reader) take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.Failf("%s needs %d bytes, %d left", what, n, len(r.b))
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// Bytes returns the next n bytes as a view of the input.
func (r *Reader) Bytes(n int) []byte { return r.take(n, "byte run") }

// uvarint reads an unsigned varint in its shortest form; a padded encoding
// of the same number is refused, since it would not re-encode to itself.
func (r *Reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || n != UvarintSize(v) {
		r.Failf("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Count reads a uvarint that counts something and must not exceed max.
func (r *Reader) Count(max int, what string) int {
	v := r.uvarint()
	if r.err == nil && v > uint64(max) {
		r.Failf("%d %s, at most %d allowed", v, what, max)
		return 0
	}
	return int(v)
}

// Uint64 reads 8 little-endian bytes.
func (r *Reader) Uint64() uint64 {
	b := r.take(8, "scalar")
	if b == nil {
		return 0
	}
	return le.Uint64(b)
}

// Float64 reads 8 little-endian bytes as float64 bits.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Count(r.Remaining(), "string bytes")
	return string(r.take(n, "string"))
}

// Floats reads a float block of at most max values — the caller's own
// dimension, so the bytes cannot ask for a slice larger than the state they
// claim to be. It checks, before allocating, that the bitmap is present,
// that its unused tail bits are clear and that exactly popcount values
// follow; and refuses a stored all-clear value. n = 0 decodes as nil.
func (r *Reader) Floats(max int) []float64 {
	n := r.Count(max, "floats")
	bm := r.take((n+7)/8, "float bitmap")
	if r.err != nil || n == 0 {
		return nil
	}
	if tail := n & 7; tail != 0 && bm[len(bm)-1]>>tail != 0 {
		r.Failf("float bitmap has bits set past its %d values", n)
		return nil
	}
	nz := 0
	for _, b := range bm {
		nz += bits.OnesCount8(b)
	}
	vals := r.take(8*nz, "float values")
	if r.err != nil {
		return nil
	}
	out := make([]float64, n)
	for k, b := range bm {
		for ; b != 0; b &= b - 1 {
			v := le.Uint64(vals)
			if v == 0 {
				r.Failf("float block stores a zero")
				return nil
			}
			out[k<<3+bits.TrailingZeros8(b)] = math.Float64frombits(v)
			vals = vals[8:]
		}
	}
	return out
}

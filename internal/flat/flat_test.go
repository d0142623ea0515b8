package flat

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// sameBits compares float slices bit for bit (NaN payloads and the sign of
// zero included); nil and empty are the same block.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// roundTrip encodes v, checks the size twin, decodes it and checks that the
// decoded block re-encodes to the same bytes.
func roundTrip(t *testing.T, v []float64) bool {
	t.Helper()
	b := Scan(v).AppendTo(nil)
	if size := Scan(v).Size(); len(b) != size {
		t.Errorf("block of %d floats is %d bytes, Size says %d", len(v), len(b), size)
		return false
	}
	r := NewReader(b)
	got := r.Floats(len(v))
	if err := r.Close(); err != nil {
		t.Errorf("decoding a block of %d floats: %v", len(v), err)
		return false
	}
	if len(v) == 0 && got != nil {
		t.Errorf("empty block decoded as %#v, want nil", got)
		return false
	}
	return sameBits(got, v) && bytes.Equal(Scan(got).AppendTo(nil), b)
}

func TestQuickFloatBlockRoundTrip(t *testing.T) {
	special := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8000000000abc), // a NaN with a payload
		math.Float64frombits(0xfff0000000000001), // a signalling one, sign set
		math.SmallestNonzeroFloat64, math.MaxFloat64, 1, -1,
	}
	fixed := [][]float64{nil, {}, {0}, {math.Copysign(0, -1)}, make([]float64, 7), make([]float64, 8), make([]float64, 9), special}
	for n := 1; n <= 17; n++ { // all-non-zero, every length around the byte boundary
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		fixed = append(fixed, v)
	}
	for _, v := range fixed {
		if !roundTrip(t, v) {
			t.Fatalf("round trip of %v failed", v)
		}
	}
	// Random mixes: mostly zeros, as a hashed weight vector is, with specials
	// and ordinary values scattered in, at lengths that are no multiple of 8.
	f := func(seed int64, length uint16) bool {
		r := rand.New(rand.NewSource(seed))
		v := make([]float64, int(length)%1500)
		for i := range v {
			switch r.Intn(8) {
			case 0:
				v[i] = special[r.Intn(len(special))]
			case 1:
				v[i] = r.NormFloat64()
			}
		}
		return roundTrip(t, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// −0.0 is a stored value, +0.0 is not: the sizes differ by its 8 bytes.
	if Scan([]float64{math.Copysign(0, -1)}).Size() != Scan([]float64{0}).Size()+8 {
		t.Fatal("−0.0 is not stored")
	}
}

func TestScalarsAndStringsRoundTrip(t *testing.T) {
	b := AppendUvarint(nil, 300)
	b = AppendString(b, "héllo")
	b = AppendString(b, "")
	b = AppendUint64(b, math.MaxUint64)
	b = AppendFloat64(b, -2.5)
	if want := UvarintSize(300) + StringSize("héllo") + StringSize("") + 16; len(b) != want {
		t.Fatalf("encoded %d bytes, the size functions say %d", len(b), want)
	}
	r := NewReader(b)
	if v := r.uvarint(); v != 300 {
		t.Fatalf("uvarint = %d", v)
	}
	if s := r.String(); s != "héllo" {
		t.Fatalf("string = %q", s)
	}
	if s := r.String(); s != "" {
		t.Fatalf("empty string = %q", s)
	}
	if v := r.Uint64(); v != math.MaxUint64 {
		t.Fatalf("uint64 = %d", v)
	}
	if v := r.Float64(); v != -2.5 {
		t.Fatalf("float64 = %v", v)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for v, want := range map[uint64]int{0: 1, 127: 1, 128: 2, 1<<14 - 1: 2, 1 << 14: 3, math.MaxUint64: 10} {
		if got := UvarintSize(v); got != want || len(AppendUvarint(nil, v)) != want {
			t.Fatalf("UvarintSize(%d) = %d, encoded %d, want %d", v, got, len(AppendUvarint(nil, v)), want)
		}
	}
}

// Every malformed input is an ErrCorrupt, found before anything is sized from
// it, and the reader stays failed.
func TestReaderRefusesMalformedInput(t *testing.T) {
	block := Scan([]float64{1, 0, 2}).AppendTo(nil) // n=3 | 0b101 | 1.0 | 2.0
	flip := func(i int, x byte) []byte {
		b := append([]byte(nil), block...)
		b[i] ^= x
		return b
	}
	cases := map[string]struct {
		b   []byte
		max int
	}{
		"empty":                    {nil, 8},
		"more floats than allowed": {block, 2},
		"a 2^60-float block":       {AppendUvarint(nil, 1<<60), math.MaxInt},
		"bitmap missing":           {block[:1], 8},
		"tail bit set":             {flip(1, 0b1000), 8},
		"value missing":            {block[:len(block)-1], 8},
		"bit without a value":      {flip(1, 0b010), 8},
		"stored zero":              {append(append([]byte(nil), block[:2]...), make([]byte, 16)...), 8},
		"padded uvarint":           {append([]byte{0x83, 0x00}, block[1:]...), 8},
		"overlong uvarint":         {bytes.Repeat([]byte{0xff}, 11), 8},
	}
	for name, tc := range cases {
		r := NewReader(tc.b)
		got := r.Floats(tc.max)
		if err := r.Err(); got != nil || !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: decoded %v, err %v; want nil and ErrCorrupt", name, got, err)
		}
		if r.Uint64() != 0 || r.String() != "" || r.Floats(8) != nil || r.Bytes(0) != nil {
			t.Errorf("%s: a failed reader went on reading", name)
		}
	}
	r := NewReader(append(append([]byte(nil), block...), 0))
	if r.Floats(8); r.Err() != nil {
		t.Fatal(r.Err())
	}
	if err := r.Close(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a trailing byte: Close = %v, want ErrCorrupt", err)
	}
	r = NewReader(AppendUvarint(nil, 9))
	if s := r.String(); s != "" || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("a 9-byte string in an empty buffer: %q, %v", s, r.Err())
	}
	r = NewReader([]byte{5})
	if n := r.Count(4, "things"); n != 0 || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("Count over its max: %d, %v", n, r.Err())
	}
	r.Failf("a later failure")
	if err := r.Err(); err == nil || bytes.Contains([]byte(err.Error()), []byte("later")) {
		t.Fatalf("the first failure must win, got %v", err)
	}
}

var sinkBytes []byte

// BenchmarkFloatBlockURL is the shape the checkpoint path encodes: 32 768
// hashed weights of which ~15 % are non-zero, scanned, sized and appended.
func BenchmarkFloatBlockURL(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	v := make([]float64, 32768)
	for i := range v {
		if r.Intn(100) < 15 {
			v[i] = r.NormFloat64()
		}
	}
	b.SetBytes(int64(8 * len(v)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := Scan(v)
		sinkBytes = blk.AppendTo(make([]byte, 0, blk.Size()))
	}
}

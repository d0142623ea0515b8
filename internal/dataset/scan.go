package dataset

import (
	"bytes"
	"math"
	"strconv"
)

// The parsers scan a record's fields in place: no bytes.Split, no
// per-record scratch slice, and no field string that outlives the call.

var (
	comma = []byte{','}
	tab   = []byte{'\t'}
)

// cutField returns b up to its first sep and what follows the sep; without
// one it returns all of b and nil.
func cutField(b []byte, sep byte) (field, rest []byte) {
	if i := bytes.IndexByte(b, sep); i >= 0 {
		return b[:i], b[i+1:]
	}
	return b, nil
}

// parseFinite parses a numeric field. The literals strconv.ParseFloat
// accepts for infinities and NaN ("Inf", "+Infinity", "nan", ...) are
// malformed here: one non-finite value folded into a component's running
// statistics (or hashed into a feature vector) poisons every later row.
func parseFinite(b []byte) (float64, bool) {
	if v, ok := parseShortDecimal(b); ok {
		return v, true
	}
	v, err := strconv.ParseFloat(string(b), 64)
	return v, err == nil && !math.IsInf(v, 0) && !math.IsNaN(v)
}

// parseShortDecimal decodes what a feed's numbers almost always are: an
// optional sign, then at most 15 digits with at most one point among them.
// Such a mantissa and its power of ten are both exact in a float64, so one
// division rounds correctly — the value strconv.ParseFloat returns, by the
// same route. It reports false for every other spelling, valid or not, and
// the caller asks strconv.
func parseShortDecimal(b []byte) (float64, bool) {
	i, neg := 0, false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		i, neg = 1, b[0] == '-'
	}
	var mant uint64
	digits, frac, point := 0, 0, false
	for ; i < len(b); i++ {
		switch c := b[i]; {
		case c >= '0' && c <= '9':
			mant = mant*10 + uint64(c-'0')
			digits++
			if point {
				frac++
			}
		case c == '.' && !point:
			point = true
		default:
			return 0, false
		}
	}
	if digits == 0 || digits > 15 {
		return 0, false
	}
	v := float64(mant) / pow10[frac]
	if neg {
		v = -v
	}
	return v, true
}

// pow10 holds the powers of ten parseShortDecimal divides by and
// appendFixed multiplies by, all exact.
var pow10 = [16]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// appendFixed appends v with 1 ≤ p ≤ 15 decimals, byte for byte what
// strconv.AppendFloat(buf, v, 'f', p, 64) appends, which always takes
// strconv's arbitrary-precision path. It rounds s = |v|·10^p, a product off
// the exact one by at most s·2^-53, to the nearest integer n and prints n's
// digits with the point p from the right. That n is strconv's unless the
// exact product lies on a tie, where strconv rounds half to even: so a
// fraction of s within s·2^-50 of one half, a NaN, an infinity and an s of
// 2^40 or more — where the fraction has too few bits left — go to strconv.
func appendFixed(buf []byte, v float64, p int) []byte {
	s := math.Abs(v) * pow10[p]
	if !(s < 1<<40) || math.Abs(s-math.Floor(s)-0.5) <= s*0x1p-50 {
		return strconv.AppendFloat(buf, v, 'f', p, 64)
	}
	if math.Signbit(v) {
		buf = append(buf, '-')
	}
	var digits [32]byte
	i := len(digits)
	for n := uint64(s + 0.5); i > len(digits)-p-1 || n > 0; n /= 10 {
		if i == len(digits)-p {
			i--
			digits[i] = '.'
		}
		i--
		digits[i] = byte('0' + n%10)
	}
	return append(buf, digits[i:]...)
}

// totalLen returns the summed length of the records.
func totalLen(records [][]byte) int {
	n := 0
	for _, rec := range records {
		n += len(rec)
	}
	return n
}

package dataset

import (
	"bytes"
	"math"
	"strconv"
	"testing"
	"time"

	"cdml/internal/data"
)

// The parsers sit on the platform's wire boundary: every byte sequence a
// client POSTs to /train or /predict flows through them. They must never
// panic, never emit frames with inconsistent columns or a non-finite number,
// and — apart from rejecting non-finite numbers — accept exactly the records
// the bytes.Split / time.Parse / strconv.ParseFloat parsers they replaced
// accepted, with the same values. Those live on below as the reference.

func checkParsedFrame(t *testing.T, f *data.Frame, missingOK bool, labelBounds func(float64) bool) {
	t.Helper()
	if f == nil {
		t.Fatal("nil frame")
	}
	for _, col := range f.Columns() {
		switch f.KindOf(col) {
		case data.KindFloat:
			if len(f.Float(col)) != f.Rows() {
				t.Fatalf("column %q length mismatch", col)
			}
			// Every cell is finite or, where the format has a missing-value
			// sentinel, data.Missing: an infinity or a NaN the client spelled
			// out must never reach a component's statistics. (Which NaN is
			// which, the reference comparison below settles.)
			for _, v := range f.Float(col) {
				if math.IsInf(v, 0) || (data.IsMissingFloat(v) && !missingOK) {
					t.Fatalf("column %q holds %v", col, v)
				}
			}
		case data.KindString:
			if len(f.String(col)) != f.Rows() {
				t.Fatalf("column %q length mismatch", col)
			}
		}
	}
	if f.Has("label") {
		for _, y := range f.Float("label") {
			if !labelBounds(y) {
				t.Fatalf("label %v out of bounds", y)
			}
		}
	}
}

// row is one parsed record: its float cells in column order, then its
// string cells.
type row struct {
	floats  []float64
	strings []string
}

func (r row) finite() bool {
	for _, v := range r.floats {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return false
		}
	}
	return true
}

// frameRow extracts the single row of a one-row frame, columns in order.
func frameRow(f *data.Frame) row {
	var r row
	for _, col := range f.Columns() {
		if f.KindOf(col) == data.KindFloat {
			r.floats = append(r.floats, f.Float(col)[0])
		} else {
			r.strings = append(r.strings, f.String(col)[0])
		}
	}
	return r
}

// checkAgainstReference holds the parser to its contract on one record: it
// accepts rec exactly when the reference does and every number is finite
// (missing is the caller's business: it passes a reference row with NaNs
// only where the format has a missing-value sentinel), and then with the
// reference's values bit for bit.
func checkAgainstReference(t *testing.T, rec []byte, got *data.Frame, want row, wantOK bool) {
	t.Helper()
	if !wantOK {
		if got.Rows() != 0 {
			t.Fatalf("accepted %q, which the reference rejects (or holds a non-finite number)", rec)
		}
		return
	}
	if got.Rows() != 1 {
		t.Fatalf("rejected %q, which the reference accepts as %v", rec, want)
	}
	g := frameRow(got)
	if len(g.floats) != len(want.floats) || len(g.strings) != len(want.strings) {
		t.Fatalf("%q: parsed %v, reference %v", rec, g, want)
	}
	for k := range want.floats {
		if math.Float64bits(g.floats[k]) != math.Float64bits(want.floats[k]) {
			t.Fatalf("%q: float cell %d = %v, reference %v", rec, k, g.floats[k], want.floats[k])
		}
	}
	for k := range want.strings {
		if g.strings[k] != want.strings[k] {
			t.Fatalf("%q: string cell %d = %q, reference %q", rec, k, g.strings[k], want.strings[k])
		}
	}
}

// refURL is the URL parser as it was: label, num0..num3, then tokens.
func refURL(rec []byte) (row, bool) {
	parts := bytes.Split(rec, []byte("\t"))
	if len(parts) != 3 {
		return row{}, false
	}
	y, err := strconv.ParseFloat(string(parts[0]), 64)
	if err != nil || (y != 1 && y != -1) {
		return row{}, false
	}
	numParts := bytes.Split(parts[1], []byte(","))
	if len(numParts) != numURLFeatures {
		return row{}, false
	}
	r := row{floats: []float64{y}, strings: []string{string(parts[2])}}
	for _, np := range numParts {
		if string(np) == "?" {
			r.floats = append(r.floats, data.Missing)
			continue
		}
		v, err := strconv.ParseFloat(string(np), 64)
		if err != nil || math.IsInf(v, 0) || math.IsNaN(v) { // the finiteness check is the one new rule
			return row{}, false
		}
		r.floats = append(r.floats, v)
	}
	return r, true
}

// refTaxi is the Taxi parser as it was: pickup_lat, pickup_lon, dropoff_lat,
// dropoff_lon, passengers, pickup_unix, duration, label.
func refTaxi(rec []byte) (row, bool) {
	parts := bytes.Split(rec, []byte(","))
	if len(parts) != 7 {
		return row{}, false
	}
	pickup, err1 := time.Parse(taxiTimeLayout, string(parts[0]))
	dropoff, err2 := time.Parse(taxiTimeLayout, string(parts[1]))
	if err1 != nil || err2 != nil {
		return row{}, false
	}
	var vals [5]float64
	for k := range vals {
		v, err := strconv.ParseFloat(string(parts[2+k]), 64)
		if err != nil {
			return row{}, false
		}
		vals[k] = v
	}
	d := dropoff.Sub(pickup).Seconds()
	if d < 0 {
		return row{}, false
	}
	r := row{floats: []float64{vals[1], vals[0], vals[3], vals[2], vals[4], float64(pickup.Unix()), d, math.Log1p(d)}}
	return r, r.finite()
}

// refRatings is the ratings parser as it was: user, item, then the label.
func refRatings(rec []byte) (row, bool) {
	parts := bytes.Split(rec, []byte(","))
	if len(parts) != 3 {
		return row{}, false
	}
	u, i := string(parts[0]), string(parts[1])
	if len(u) < 2 || u[0] != 'u' || len(i) < 2 || i[0] != 'i' {
		return row{}, false
	}
	y, err := strconv.ParseFloat(string(parts[2]), 64)
	if err != nil {
		return row{}, false
	}
	r := row{floats: []float64{y}, strings: []string{u, i}}
	return r, r.finite()
}

func FuzzURLParser(f *testing.F) {
	g := NewURL(smallURLConfig())
	for _, rec := range g.Chunk(0)[:5] {
		f.Add(rec)
	}
	f.Add([]byte("+1\t1,2,3,4\tt1 t2"))
	f.Add([]byte("\t\t"))
	f.Add([]byte("+1\t?,?,?,?\t"))
	f.Add([]byte("-1\t1e308,2,3,4\tt0"))
	f.Add([]byte("-1\tInf,2,3,4\tt0"))
	f.Add([]byte("1.0\t1,-infinity,NaN,4\tt0"))
	f.Add([]byte("+1\t0x1p-2,1_0,.5,5.\tt0\tt1"))
	f.Fuzz(func(t *testing.T, rec []byte) {
		frame, err := urlParser{}.Parse([][]byte{rec, []byte("+1\t1,2,3,4\tt1")})
		if err != nil {
			t.Fatalf("parser returned error on arbitrary input: %v", err)
		}
		checkParsedFrame(t, frame, true, func(y float64) bool { return y == 1 || y == -1 })
		// A record's fate and values do not depend on its neighbours.
		alone, _ := urlParser{}.Parse([][]byte{rec})
		if alone.Rows() != frame.Rows()-1 {
			t.Fatalf("%q: %d rows alone, %d beside a valid record", rec, alone.Rows(), frame.Rows())
		}
		want, ok := refURL(rec)
		checkAgainstReference(t, rec, alone, want, ok)
	})
}

func FuzzTaxiParser(f *testing.F) {
	g := NewTaxi(smallTaxiConfig())
	for _, rec := range g.Chunk(0)[:5] {
		f.Add(rec)
	}
	f.Add([]byte("2015-02-01 00:00:00,2015-02-01 00:10:00,-73.98,40.75,-73.97,40.76,2"))
	f.Add([]byte(",,,,,,"))
	f.Add([]byte("9999-99-99 99:99:99,2015-02-01 00:10:00,0,0,0,0,0"))
	f.Add([]byte("2015-02-01 00:00:00,2015-02-01 00:10:00,-73.98,40.75,-73.97,40.76,Inf"))
	f.Add([]byte("2015-02-01 00:00:00,2015-02-01 00:10:00,nan,40.75,-73.97,+Infinity,1"))
	for _, ts := range taxiTimeCases {
		f.Add([]byte(ts + ",2016-03-01 00:10:00,1,2,3,4,5"))
		f.Add([]byte("0000-01-01 00:00:00," + ts + ",1e0,2.,.3,-0,5"))
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		frame, err := taxiParser{}.Parse([][]byte{rec})
		if err != nil {
			t.Fatalf("parser returned error on arbitrary input: %v", err)
		}
		checkParsedFrame(t, frame, false, func(y float64) bool { return y >= 0 })
		// duration must be non-negative for every surviving row.
		if frame.Has("duration") {
			for _, d := range frame.Float("duration") {
				if d < 0 {
					t.Fatalf("negative duration %v survived parsing", d)
				}
			}
		}
		want, ok := refTaxi(rec)
		checkAgainstReference(t, rec, frame, want, ok)
		// Every field doubles as a timestamp candidate and a number candidate
		// for the two scanners' own fast paths.
		for _, field := range bytes.Split(rec, []byte(",")) {
			checkTaxiTime(t, field)
			checkParseFinite(t, field)
		}
	})
}

func FuzzRatingsParser(f *testing.F) {
	g := NewRatings(smallRatingsConfig())
	for _, rec := range g.Chunk(0)[:5] {
		f.Add(rec)
	}
	f.Add([]byte("u1,i2,3.5"))
	f.Add([]byte("u,i,"))
	f.Add([]byte("u-1,i-1,NaN"))
	f.Add([]byte("u1,i2,-Inf"))
	f.Fuzz(func(t *testing.T, rec []byte) {
		frame, err := ratingsParser{}.Parse([][]byte{rec})
		if err != nil {
			t.Fatalf("parser returned error on arbitrary input: %v", err)
		}
		checkParsedFrame(t, frame, false, func(float64) bool { return true })
		// Every surviving row's ids must keep the u/i prefixes the two-hot
		// encoder relies on.
		for i := 0; i < frame.Rows(); i++ {
			u, it := frame.String("user")[i], frame.String("item")[i]
			if len(u) < 2 || u[0] != 'u' || len(it) < 2 || it[0] != 'i' {
				t.Fatalf("malformed ids survived: %q %q", u, it)
			}
		}
		want, ok := refRatings(rec)
		checkAgainstReference(t, rec, frame, want, ok)
	})
}

// FuzzTwoHotEncoder ensures the encoder never panics on surviving parser
// output, even with hostile id payloads.
func FuzzTwoHotEncoder(f *testing.F) {
	f.Add([]byte("u1,i2,3.5"))
	f.Add([]byte("u999999999999999999999,i2,3.5"))
	f.Add([]byte("u0x10,i2,3.5"))
	enc := newTwoHotEncoder(10, 10, "features")
	f.Fuzz(func(t *testing.T, rec []byte) {
		frame, err := ratingsParser{}.Parse([][]byte{rec})
		if err != nil {
			t.Fatal(err)
		}
		out, err := enc.Transform(frame)
		if err != nil {
			t.Fatalf("encoder error: %v", err)
		}
		for _, v := range out.Vec("features") {
			if v.NNZ() != 2 {
				t.Fatalf("non-2-hot output: %v", v)
			}
		}
	})
}

// Keep a deterministic sanity check that the fuzz seeds parse cleanly (the
// fuzz targets above only run their seed corpus under plain `go test`).
func TestFuzzSeedsParse(t *testing.T) {
	u, _ := urlParser{}.Parse(bytes.Fields([]byte("")))
	if u.Rows() != 0 {
		t.Fatal("empty input should parse to empty frame")
	}
}

// FuzzFixedDecimal: the generators' number formatter writes what
// strconv.AppendFloat(v, 'f', p, 64) writes, at both precisions they use —
// NaN, infinities, negative zero, exact binary ties (half to even) and
// values past its fast path's range included.
func FuzzFixedDecimal(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1.03125, -1.03125, 0.03125, 0.0078125, 2.5e-5, -4.9e-5, 0.99995,
		-73.98, 40.75, 1e-300, 5e-324, math.MaxFloat64,
		0x1p40 / 1e4, 0x1p40 / 1e6, 1e12, 123456789.123456789,
	} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		for _, p := range []int{4, 6} {
			want := strconv.AppendFloat([]byte("x"), v, 'f', p, 64)
			if got := appendFixed([]byte("x"), v, p); !bytes.Equal(got, want) {
				t.Fatalf("%v at %d decimals: %q, strconv writes %q", v, p, got, want)
			}
		}
	})
}

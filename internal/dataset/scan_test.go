package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"cdml/internal/data"
	"cdml/internal/linalg"
)

// taxiTimeCases are the shapes around the edge of the timestamp fast path:
// some it decodes itself, some it must hand to time.Parse, some both reject.
var taxiTimeCases = []string{
	"2015-02-01 00:00:00",
	"2016-02-29 23:59:59",     // leap day
	"2015-02-29 00:00:00",     // not a leap year
	"1900-02-29 00:00:00",     // divisible by 100, not by 400
	"2000-02-29 12:00:00",     // divisible by 400
	"2015-04-31 00:00:00",     // a 30-day month
	"2015-13-01 00:00:00",     // month 13
	"2015-00-10 00:00:00",     // month 0
	"2015-01-00 00:00:00",     // day 0
	"2015-02-01 24:00:00",     // hour 24
	"2015-02-01 23:60:00",     // minute 60
	"2015-02-01 23:59:60",     // leap second: time.Parse rejects it
	"2015-02-01 5:04:05",      // one-digit hour: time.Parse accepts it
	"2015-02-01 05:04:05.123", // trailing fractional seconds: accepted
	"2015-02-01 05:04:05,123",
	"2015-02-01T05:04:05",
	"2015-2-01 05:04:05",
	"0000-01-01 00:00:00",
	"0000-12-31 23:59:59",
	"9999-12-31 23:59:59",
	"1969-12-31 23:59:59", // before the Unix epoch
	"1582-10-10 00:00:00", // proleptic Gregorian: no calendar gap
	"+015-02-01 00:00:00",
	"2015-02-01 00:00:0x",
	"２０15-02-01 00:00:00",
	"",
}

// checkTaxiTime holds parseTaxiTime to time.Parse on one input: same
// accept/reject decision, same instant.
func checkTaxiTime(t *testing.T, field []byte) {
	t.Helper()
	want, err := time.Parse(taxiTimeLayout, string(field))
	got, ok := parseTaxiTime(field)
	if ok != (err == nil) {
		t.Fatalf("parseTaxiTime(%q) accepted=%v, time.Parse error=%v", field, ok, err)
	}
	if ok && (!got.Equal(want) || got.Unix() != want.Unix() || got.Location() != want.Location()) {
		t.Fatalf("parseTaxiTime(%q) = %v, time.Parse = %v", field, got, want)
	}
	// The fast path alone never accepts what time.Parse rejects.
	if sec, fast := canonicalTaxiTime(field); fast && (err != nil || sec != want.Unix()) {
		t.Fatalf("canonicalTaxiTime(%q) = %d, time.Parse = %v, %v", field, sec, want, err)
	}
}

func TestTaxiTimeFastPathAgreesWithTimeParse(t *testing.T) {
	for _, ts := range taxiTimeCases {
		checkTaxiTime(t, []byte(ts))
	}
	// Both sides of the one input-dependent branch are really taken.
	if _, fast := canonicalTaxiTime([]byte("2016-02-29 23:59:59")); !fast {
		t.Fatal("a canonical timestamp missed the fast path")
	}
	if _, fast := canonicalTaxiTime([]byte("2015-02-01 5:04:05")); fast {
		t.Fatal("a one-digit hour took the fast path")
	}
	// Every day of four centuries, and random seconds across all of them.
	day := time.Date(1999, 12, 25, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 146200; i++ {
		checkTaxiTime(t, []byte(day.Format(taxiTimeLayout)))
		day = day.AddDate(0, 0, 1)
	}
	r := rand.New(rand.NewSource(5))
	lo, hi := time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC).Unix(), time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC).Unix()
	for i := 0; i < 100000; i++ {
		ts := time.Unix(lo+r.Int63n(hi-lo+1), 0).UTC()
		checkTaxiTime(t, []byte(ts.Format(taxiTimeLayout)))
		// A digit knocked out of range or out of shape.
		b := []byte(ts.Format(taxiTimeLayout))
		b[r.Intn(len(b))] = "0123456789 -:x"[r.Intn(14)]
		checkTaxiTime(t, b)
	}
}

// checkParseFinite holds parseFinite to strconv.ParseFloat on one input:
// same value bit for bit, rejecting what it rejects plus every non-finite
// result.
func checkParseFinite(t *testing.T, field []byte) {
	t.Helper()
	want, err := strconv.ParseFloat(string(field), 64)
	wantOK := err == nil && !math.IsInf(want, 0) && !math.IsNaN(want)
	got, ok := parseFinite(field)
	if ok != wantOK || (ok && math.Float64bits(got) != math.Float64bits(want)) {
		t.Fatalf("parseFinite(%q) = %v, %v; strconv.ParseFloat = %v, %v", field, got, ok, want, err)
	}
	if v, short := parseShortDecimal(field); short && (err != nil || math.Float64bits(v) != math.Float64bits(want)) {
		t.Fatalf("parseShortDecimal(%q) = %v; strconv.ParseFloat = %v, %v", field, v, want, err)
	}
}

func TestParseFiniteAgreesWithStrconv(t *testing.T) {
	for _, s := range []string{
		"", "-", "+", ".", "-.", "0", "-0", "+0", "0.", ".0", "1", "+1", "-1", "1.0", "-73.981234", "40.750000",
		"123456789012345", "1234567890123456", "0.000000000000001", "000000000000000000001", "0.1234567890123456",
		"9007199254740993", "1e5", "1E-3", "0x1p-2", "1_000", "1..2", "1.2.3", "1,5", " 1", "1 ", "１",
		"Inf", "+Inf", "-inf", "infinity", "-Infinity", "NaN", "nan", "1e999", "-1e999", "4.9e-324", "1e-999",
	} {
		checkParseFinite(t, []byte(s))
	}
	for _, s := range []string{"Inf", "+Inf", "-inf", "Infinity", "NaN", "1e999"} {
		if v, ok := parseFinite([]byte(s)); ok {
			t.Fatalf("parseFinite(%q) accepted %v", s, v)
		}
	}
	// Both sides of the fast path are really taken.
	if _, short := parseShortDecimal([]byte("-73.981234")); !short {
		t.Fatal("a plain decimal missed the fast path")
	}
	if _, short := parseShortDecimal([]byte("1e5")); short {
		t.Fatal("an exponent took the fast path")
	}
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 200000; i++ {
		// Decimals of every length around the 15-digit cut, then mutations.
		s := strconv.FormatFloat(r.NormFloat64()*math.Pow(10, float64(r.Intn(20)-6)), 'f', r.Intn(18), 64)
		checkParseFinite(t, []byte(s))
		b := []byte(s)
		b[r.Intn(len(b))] = "0123456789.-+e_ "[r.Intn(16)]
		checkParseFinite(t, b)
	}
}

// One record must not be able to destroy a feature. "Inf" is a number to
// strconv.ParseFloat; folded into the standard scaler it turns the column's
// running mean into NaN for good, and from then on every row's coordinate
// for that column is NaN and silently left out of the assembled vector. The
// parsers reject non-finite numbers, so the same query transforms to the
// same vector before and after such a record arrives.
func TestNonFiniteRecordDoesNotPoisonStatistics(t *testing.T) {
	sameFeatures := func(t *testing.T, before, after []data.Instance) {
		t.Helper()
		if len(before) == 0 || len(before) != len(after) {
			t.Fatalf("%d instances before, %d after", len(before), len(after))
		}
		for i := range before {
			b, a := before[i].X.(*linalg.Sparse), after[i].X.(*linalg.Sparse)
			if fmt.Sprint(b.Idx) != fmt.Sprint(a.Idx) {
				t.Fatalf("instance %d: stored coordinates %v became %v", i, b.Idx, a.Idx)
			}
			for k := range b.Val {
				if math.Float64bits(b.Val[k]) != math.Float64bits(a.Val[k]) {
					t.Fatalf("instance %d: %v became %v", i, b, a)
				}
			}
		}
	}
	t.Run("taxi", func(t *testing.T) {
		g := NewTaxi(smallTaxiConfig())
		p := NewTaxiPipeline()
		for i := 0; i < 3; i++ {
			if _, err := p.ProcessOnline(g.Chunk(i)); err != nil {
				t.Fatal(err)
			}
		}
		query := g.Chunk(3)
		before, err := p.ProcessServe(query)
		if err != nil {
			t.Fatal(err)
		}
		for _, pax := range []string{"Inf", "-Inf", "+Infinity", "NaN"} {
			bad := "2015-02-01 00:00:00,2015-02-01 00:10:00,-73.98,40.75,-73.97,40.76," + pax
			ins, err := p.ProcessOnline([][]byte{[]byte(bad)})
			if err != nil || len(ins) != 0 {
				t.Fatalf("passenger_count=%s: %d instances, err %v; want the record dropped", pax, len(ins), err)
			}
		}
		after, err := p.ProcessServe(query)
		if err != nil {
			t.Fatal(err)
		}
		sameFeatures(t, before, after)
	})
	t.Run("url", func(t *testing.T) {
		cfg := smallURLConfig()
		g := NewURL(cfg)
		p := NewURLPipeline(cfg.HashDim)
		for i := 0; i < 3; i++ {
			if _, err := p.ProcessOnline(g.Chunk(i)); err != nil {
				t.Fatal(err)
			}
		}
		query := g.Chunk(3)
		before, err := p.ProcessServe(query)
		if err != nil {
			t.Fatal(err)
		}
		ins, err := p.ProcessOnline([][]byte{[]byte("+1\t0.5,Inf,?,-0.25\tt1 t2")})
		if err != nil || len(ins) != 0 {
			t.Fatalf("%d instances, err %v; want the record dropped", len(ins), err)
		}
		after, err := p.ProcessServe(query)
		if err != nil {
			t.Fatal(err)
		}
		sameFeatures(t, before, after)
	})
}

// A batch costs O(columns) allocations, never O(rows): the count is equal at
// two batch sizes, on the transform-only path and on the Update+Transform
// path, whether the anomaly filter drops rows or keeps them all.
func TestTransformAllocsIndependentOfRows(t *testing.T) {
	allocs := func(fn func()) float64 {
		fn() // first use may size a map or a pool
		return testing.AllocsPerRun(10, fn)
	}
	for _, anomalyRate := range []float64{0, 0.2} {
		cfg := smallTaxiConfig()
		cfg.AnomalyRate = anomalyRate
		chunk := func(rows int) [][]byte {
			c := cfg
			c.RowsPerChunk = rows
			return NewTaxi(c).Chunk(7)
		}
		p := NewTaxiPipeline()
		for i := 0; i < 5; i++ {
			if _, err := p.ProcessOnline(NewTaxi(cfg).Chunk(i)); err != nil {
				t.Fatal(err)
			}
		}
		serve := func(rows int) float64 {
			recs := chunk(rows)
			ins, _ := p.ProcessServe(recs)
			if dropped := len(ins) < rows; dropped != (anomalyRate > 0) {
				t.Fatalf("anomaly rate %v, %d rows: %d instances", anomalyRate, rows, len(ins))
			}
			return allocs(func() { _, _ = p.ProcessServe(recs) })
		}
		if a, b := serve(64), serve(256); a != b {
			t.Errorf("taxi ProcessServe, anomaly rate %v: %v allocations at 64 rows, %v at 256", anomalyRate, a, b)
		}
		online := func(rows int) float64 {
			recs := chunk(rows)
			return allocs(func() { _, _ = p.ProcessOnline(recs) })
		}
		if a, b := online(40), online(80); a != b {
			t.Errorf("taxi ProcessOnline, anomaly rate %v: %v allocations at 40 rows, %v at 80", anomalyRate, a, b)
		}
	}

	cfg := smallURLConfig()
	chunk := func(rows int) [][]byte {
		c := cfg
		c.RowsPerChunk = rows
		return NewURL(c).Chunk(2)
	}
	p := NewURLPipeline(cfg.HashDim)
	for i := 0; i < 2; i++ {
		if _, err := p.ProcessOnline(NewURL(cfg).Chunk(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The token strings of a batch share one allocation, so the URL pipeline
	// meets the same bound. A row longer than the sparse batch's
	// insertion-sort threshold would add one allocation (its sort.Stable
	// header); this stream's rows stay below it.
	for _, path := range []struct {
		name string
		run  func([][]byte)
		a, b int
	}{
		{"ProcessServe", func(r [][]byte) { _, _ = p.ProcessServe(r) }, 64, 256},
		{"ProcessOnline", func(r [][]byte) { _, _ = p.ProcessOnline(r) }, 40, 80},
	} {
		ra, rb := chunk(path.a), chunk(path.b)
		if a, b := allocs(func() { path.run(ra) }), allocs(func() { path.run(rb) }); a != b {
			t.Errorf("url %s: %v allocations at %d rows, %v at %d", path.name, a, path.a, b, path.b)
		}
	}
}

package stats

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"cdml/internal/flat"
)

// gobV1 encodes v the way the pre-flat GobEncode methods did: the v1 writers
// are gone from the package, so the tests of the v1 readers carry their own.
func gobV1(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWelfordGobRoundTrip(t *testing.T) {
	var w Welford
	for _, x := range []float64{1, 2, 3, 4} {
		w.Observe(x)
	}
	var got Welford
	if err := got.GobDecode(gobV1(t, welfordWire{N: w.n, Mean: w.mean, M2: w.m2})); err != nil {
		t.Fatal(err)
	}
	if got != w {
		t.Fatalf("v1 decode lost state: %+v, want %+v", got, w)
	}
	// The same state through the flat encoding, which is what gets written.
	b := w.AppendState(nil)
	if len(b) != WelfordStateSize {
		t.Fatalf("Welford state is %d bytes, want %d", len(b), WelfordStateSize)
	}
	var flatGot Welford
	r := flat.NewReader(b)
	flatGot.LoadState(r)
	if err := r.Close(); err != nil || flatGot != w {
		t.Fatalf("flat round trip: %+v (%v), want %+v", flatGot, err, w)
	}
	// Continue observing after restore.
	got.Observe(5)
	if got.Count() != 5 {
		t.Fatal("restored Welford cannot continue")
	}
	if err := got.GobDecode([]byte("junk")); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := got.GobDecode(gobV1(t, welfordWire{N: -1})); err == nil {
		t.Fatal("negative count accepted")
	}
	r = flat.NewReader(b[:WelfordStateSize-1])
	if flatGot.LoadState(r); r.Err() == nil {
		t.Fatal("truncated state accepted")
	}
}

func TestCategoricalGobRoundTrip(t *testing.T) {
	c := NewCategorical()
	c.Observe("x")
	c.Observe("y")
	c.Observe("x")
	check := func(got *Categorical) {
		t.Helper()
		if got.Total() != 3 || got.Count("x") != 2 || got.Cardinality() != 2 {
			t.Fatalf("round trip lost state")
		}
		if ord, ok := got.Ordinal("y"); !ok || ord != 1 {
			t.Fatal("ordinals lost")
		}
		// Continue observing.
		if got.Observe("z") != 2 {
			t.Fatal("restored Categorical cannot continue")
		}
	}
	got := NewCategorical()
	if err := got.GobDecode(gobV1(t, categoricalWire{Order: []string{"x", "y"}, Counts: []int64{2, 1}, Total: 3})); err != nil {
		t.Fatal(err)
	}
	check(got)
	b := c.AppendState(nil)
	if len(b) != c.StateSize() {
		t.Fatalf("Categorical state is %d bytes, StateSize says %d", len(b), c.StateSize())
	}
	flatGot := NewCategorical()
	r := flat.NewReader(b)
	flatGot.LoadState(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if again := flatGot.AppendState(nil); !bytes.Equal(again, b) {
		t.Fatal("decoded Categorical does not re-encode to the bytes it came from")
	}
	check(flatGot)
	if err := got.GobDecode([]byte("junk")); err == nil {
		t.Fatal("garbage accepted")
	}
	for name, wire := range map[string]categoricalWire{
		"count without a value": {Order: []string{"x"}, Counts: []int64{1, 2}},
		"value twice":           {Order: []string{"x", "x"}, Counts: []int64{1, 2}},
		"negative count":        {Order: []string{"x", "y"}, Counts: []int64{1, -2}},
		"total past int64":      {Order: []string{"x", "y"}, Counts: []int64{math.MaxInt64, 1}},
	} {
		if err := got.GobDecode(gobV1(t, wire)); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	// A refused load leaves the statistic as it was.
	dup := flat.AppendUint64(flat.AppendString(flat.AppendUint64(flat.AppendString(flat.AppendUvarint(nil, 2), "x"), 1), "x"), 2)
	r = flat.NewReader(dup)
	if flatGot.LoadState(r); r.Err() == nil || flatGot.Cardinality() != 3 {
		t.Fatalf("repeated value: err %v, cardinality %d", r.Err(), flatGot.Cardinality())
	}
	for name, count := range map[string]uint64{"negative count": 1 << 63, "total past int64": math.MaxInt64} {
		b := flat.AppendUint64(flat.AppendString(flat.AppendUint64(flat.AppendString(flat.AppendUvarint(nil, 2), "x"), 1), "y"), count)
		r = flat.NewReader(b)
		if flatGot.LoadState(r); r.Err() == nil || flatGot.Cardinality() != 3 {
			t.Fatalf("%s: err %v, cardinality %d", name, r.Err(), flatGot.Cardinality())
		}
	}
	// A count the input cannot hold is refused before anything is sized.
	r = flat.NewReader(flat.AppendUvarint(nil, 1<<40))
	if flatGot.LoadState(r); r.Err() == nil {
		t.Fatal("a 2^40-value Categorical in 6 bytes accepted")
	}
}

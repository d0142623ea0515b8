package stats

import (
	"bytes"
	"math"
	"testing"

	"cdml/internal/flat"
)

func TestWelfordStateRoundTrip(t *testing.T) {
	var w Welford
	for _, x := range []float64{1, 2, 3, 4} {
		w.Observe(x)
	}
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
	flatGot.Observe(5)
	if flatGot.Count() != 5 {
		t.Fatal("restored Welford cannot continue")
	}
	r = flat.NewReader(flat.AppendUint64(nil, 1<<63))
	if flatGot.LoadState(r); r.Err() == nil {
		t.Fatal("negative count accepted")
	}
	r = flat.NewReader(b[:WelfordStateSize-1])
	if flatGot.LoadState(r); r.Err() == nil {
		t.Fatal("truncated state accepted")
	}
}

func TestCategoricalStateRoundTrip(t *testing.T) {
	c := NewCategorical()
	c.Observe("x")
	c.Observe("y")
	c.Observe("x")
	check := func(got *Categorical) {
		t.Helper()
		if got.total != 3 || got.counts["x"] != 2 || got.Cardinality() != 2 {
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

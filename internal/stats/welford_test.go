package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func twoPassMeanVar(xs []float64) (mean, variance float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	variance /= float64(len(xs))
	return mean, variance
}

func close(a, b, tol float64) bool {
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Count() != 0 || w.Mean() != 0 || w.variance() != 0 || w.Std() != 0 {
		t.Fatal("empty Welford should be all zeros")
	}
}

func TestWelfordSingle(t *testing.T) {
	var w Welford
	w.Observe(42)
	if w.Mean() != 42 || w.variance() != 0 {
		t.Fatalf("single observation: mean=%v var=%v", w.Mean(), w.variance())
	}
}

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Observe(x)
	}
	if !close(w.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v, want 5", w.Mean())
	}
	if !close(w.Std(), 2, 1e-12) {
		t.Fatalf("std = %v, want 2", w.Std())
	}
}

func TestWelfordReset(t *testing.T) {
	var w Welford
	w.Observe(1)
	w.Reset()
	if w.Count() != 0 {
		t.Fatal("Reset failed")
	}
}

// Property: Welford matches the two-pass computation.
func TestQuickWelfordMatchesTwoPass(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = r.NormFloat64()*10 + 5
			w.Observe(xs[i])
		}
		mean, variance := twoPassMeanVar(xs)
		return close(w.Mean(), mean, 1e-9) && close(w.variance(), variance, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCategoricalOrdinalsStable(t *testing.T) {
	c := NewCategorical()
	if ord := c.Observe("b"); ord != 0 {
		t.Fatalf("first ordinal = %d", ord)
	}
	if ord := c.Observe("a"); ord != 1 {
		t.Fatalf("second ordinal = %d", ord)
	}
	if ord := c.Observe("b"); ord != 0 {
		t.Fatalf("repeat ordinal = %d", ord)
	}
	if c.Cardinality() != 2 || c.total != 3 || c.counts["b"] != 2 {
		t.Fatalf("counts wrong: card=%d total=%d", c.Cardinality(), c.total)
	}
	if ord, ok := c.Ordinal("a"); !ok || ord != 1 {
		t.Fatal("Ordinal lookup failed")
	}
	if _, ok := c.Ordinal("zzz"); ok {
		t.Fatal("unseen value should not have ordinal")
	}
}

func TestCategoricalMostFrequent(t *testing.T) {
	c := NewCategorical()
	if _, ok := c.MostFrequent(); ok {
		t.Fatal("empty MostFrequent should be false")
	}
	c.Observe("x")
	c.Observe("y")
	c.Observe("y")
	if v, ok := c.MostFrequent(); !ok || v != "y" {
		t.Fatalf("MostFrequent = %q", v)
	}
}

func TestCategoricalValuesIsCopy(t *testing.T) {
	c := NewCategorical()
	c.Observe("a")
	v := c.Values()
	v[0] = "mutated"
	if c.Values()[0] != "a" {
		t.Fatal("Values leaked internal slice")
	}
}

package eval

import (
	"math"
	"math/rand"
	"testing"
)

func TestFadingTracksRecentLevel(t *testing.T) {
	f := NewFading(0.99)
	// A long clean period followed by a short bad one: the faded value
	// must reflect the bad recent level, while a cumulative metric would
	// still be dominated by the clean history.
	var cum Misclassification
	for i := 0; i < 5000; i++ {
		f.Observe(1, 1)
		cum.Observe(1, 1)
	}
	for i := 0; i < 300; i++ {
		f.Observe(1, -1)
		cum.Observe(1, -1)
	}
	if f.Value() < 0.7 {
		t.Fatalf("faded value %v does not reflect recent errors", f.Value())
	}
	if cum.Value() > 0.1 {
		t.Fatalf("cumulative baseline unexpectedly high: %v", cum.Value())
	}
}

func TestFadingStationaryMatchesRate(t *testing.T) {
	f := NewFading(0.995)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		if r.Float64() < 0.2 {
			f.Observe(1, -1)
		} else {
			f.Observe(1, 1)
		}
	}
	if math.Abs(f.Value()-0.2) > 0.05 {
		t.Fatalf("faded rate %v, want ≈0.2", f.Value())
	}
}

func TestFadingInterface(t *testing.T) {
	f := NewFading(0.9)
	if f.Name() != "fading" || f.Value() != 0 {
		t.Fatal("fresh fading wrong")
	}
	f.Observe(1, 0)
	if f.Count() != 1 {
		t.Fatal("count wrong")
	}
	f.Reset()
	if f.Count() != 0 || f.Value() != 0 {
		t.Fatal("reset failed")
	}
}

func TestFadingSaturatesLargeErrors(t *testing.T) {
	f := NewFading(0.9)
	f.Observe(100, -100) // classification-style saturation at 1
	if f.Value() > 1 {
		t.Fatalf("faded 0/1 loss above 1: %v", f.Value())
	}
}

func TestFadingBadAlphaPanics(t *testing.T) {
	for _, a := range []float64{0, 1, -0.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			NewFading(a)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewFadedRMSE(1)
}

func TestFadedRMSE(t *testing.T) {
	f := NewFadedRMSE(0.99)
	for i := 0; i < 5000; i++ {
		f.Observe(3, 0) // constant error 3
	}
	if math.Abs(f.Value()-3) > 0.01 {
		t.Fatalf("faded RMSE %v, want 3", f.Value())
	}
	if f.Name() != "faded-rmse" || f.Count() != 5000 {
		t.Fatal("metadata wrong")
	}
	f.Reset()
	if f.Value() != 0 {
		t.Fatal("reset failed")
	}
	// Recency: after a regime change the estimate moves to the new level.
	for i := 0; i < 2000; i++ {
		f.Observe(1, 0)
	}
	for i := 0; i < 2000; i++ {
		f.Observe(5, 0)
	}
	if math.Abs(f.Value()-5) > 0.2 {
		t.Fatalf("faded RMSE after shift %v, want ≈5", f.Value())
	}
}

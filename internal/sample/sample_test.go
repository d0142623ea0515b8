package sample

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cdml/internal/data"
)

func seqIDs(n int) []data.Timestamp {
	ids := make([]data.Timestamp, n)
	for i := range ids {
		ids[i] = data.Timestamp(i)
	}
	return ids
}

func assertDistinct(t *testing.T, got []data.Timestamp) {
	t.Helper()
	seen := make(map[data.Timestamp]bool)
	for _, id := range got {
		if seen[id] {
			t.Fatalf("duplicate id %d in sample %v", id, got)
		}
		seen[id] = true
	}
}

func TestUniformSampleSizeAndDistinct(t *testing.T) {
	u := NewUniform(1)
	got := u.Sample(seqIDs(100), 10)
	if len(got) != 10 {
		t.Fatalf("sample size = %d", len(got))
	}
	assertDistinct(t, got)
}

func TestSampleLargerThanPopulation(t *testing.T) {
	for _, s := range []Strategy{NewUniform(1), NewWindow(5, 1), NewTime(1)} {
		got := s.Sample(seqIDs(3), 10)
		max := 3
		if s.Name() == "window" {
			max = 3 // population smaller than window
		}
		if len(got) != max {
			t.Fatalf("%s: sample size = %d, want %d", s.Name(), len(got), max)
		}
		assertDistinct(t, got)
	}
}

func TestSampleZeroAndEmpty(t *testing.T) {
	for _, s := range []Strategy{NewUniform(1), NewWindow(5, 1), NewTime(1)} {
		if got := s.Sample(seqIDs(5), 0); len(got) != 0 {
			t.Fatalf("%s: zero-size sample returned %v", s.Name(), got)
		}
		if got := s.Sample(nil, 3); len(got) != 0 {
			t.Fatalf("%s: empty population returned %v", s.Name(), got)
		}
	}
}

func TestUniformDoesNotMutateInput(t *testing.T) {
	ids := seqIDs(20)
	NewUniform(1).Sample(ids, 5)
	for i, id := range ids {
		if id != data.Timestamp(i) {
			t.Fatal("input slice mutated")
		}
	}
}

func TestWindowOnlySamplesRecent(t *testing.T) {
	w := NewWindow(10, 1)
	for trial := 0; trial < 50; trial++ {
		got := w.Sample(seqIDs(100), 5)
		for _, id := range got {
			if id < 90 {
				t.Fatalf("window sampled id %d outside last 10", id)
			}
		}
	}
}

func TestWindowBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWindow(0, 1)
}

func TestTimeFavorsRecent(t *testing.T) {
	tb := NewTime(1)
	var sumRecent, total int
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		got := tb.Sample(seqIDs(100), 10)
		assertDistinct(t, got)
		for _, id := range got {
			total++
			if id >= 50 {
				sumRecent++
			}
		}
	}
	frac := float64(sumRecent) / float64(total)
	// With linear weights the newer half carries 75% of the probability mass.
	if frac < 0.65 {
		t.Fatalf("time-based sampler not recency-biased: recent fraction = %v", frac)
	}
}

func TestUniformCoverage(t *testing.T) {
	// Every id should be sampled eventually.
	u := NewUniform(42)
	seen := make(map[data.Timestamp]bool)
	for trial := 0; trial < 300; trial++ {
		for _, id := range u.Sample(seqIDs(20), 5) {
			seen[id] = true
		}
	}
	if len(seen) != 20 {
		t.Fatalf("uniform never sampled some ids: saw %d of 20", len(seen))
	}
}

func TestNewByName(t *testing.T) {
	for _, name := range []string{"uniform", "window", "time"} {
		s, err := New(name, 4, 1)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("Name = %q", s.Name())
		}
	}
	if _, err := New("window", 0, 1); err == nil {
		t.Fatal("window without size should error")
	}
	if _, err := New("bogus", 0, 1); err == nil {
		t.Fatal("unknown strategy should error")
	}
}

// Property: all strategies return distinct ids drawn from the population.
func TestQuickSamplesAreSubsets(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(60)
		s := r.Intn(n + 5)
		ids := seqIDs(n)
		pop := make(map[data.Timestamp]bool, n)
		for _, id := range ids {
			pop[id] = true
		}
		for _, strat := range []Strategy{NewUniform(seed), NewWindow(1+r.Intn(n), seed), NewTime(seed)} {
			got := strat.Sample(ids, s)
			seen := make(map[data.Timestamp]bool)
			for _, id := range got {
				if !pop[id] || seen[id] {
					return false
				}
				seen[id] = true
			}
			want := s
			if strat.Name() == "window" {
				w := strat.(*Window).W
				lim := n
				if w < lim {
					lim = w
				}
				if want > lim {
					want = lim
				}
			} else if want > n {
				want = n
			}
			if len(got) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestHarmonic(t *testing.T) {
	if harmonic(0) != 0 {
		t.Fatal("H_0 should be 0")
	}
	if harmonic(1) != 1 {
		t.Fatal("H_1 should be 1")
	}
	if got := harmonic(4); math.Abs(got-(1+0.5+1.0/3+0.25)) > 1e-12 {
		t.Fatalf("H_4 = %v", got)
	}
	// Asymptotic branch must agree with exact summation.
	exact := 0.0
	for i := 1; i <= 20000; i++ {
		exact += 1 / float64(i)
	}
	if got := harmonic(20000); math.Abs(got-exact) > 1e-9 {
		t.Fatalf("asymptotic H_20000 = %v, exact %v", got, exact)
	}
}

func TestMuUniformPaperNumbers(t *testing.T) {
	// Paper §3.2.2: N=12000, m=7200 gives μ ≈ 0.91.
	if got := MuUniform(12000, 7200); math.Abs(got-0.91) > 0.01 {
		t.Fatalf("MuUniform(12000,7200) = %v, want ≈0.91", got)
	}
	// Table 4: m/n = 0.2 gives μ ≈ 0.52.
	if got := MuUniform(12000, 2400); math.Abs(got-0.52) > 0.01 {
		t.Fatalf("MuUniform(12000,2400) = %v, want ≈0.52", got)
	}
}

func TestMuWindowPaperNumbers(t *testing.T) {
	// Table 4 window-based: m/n=0.2 (m=2400, w=6000) → 0.58; m/n=0.6 → 1.0.
	if got := MuWindow(12000, 2400, 6000); math.Abs(got-0.58) > 0.01 {
		t.Fatalf("MuWindow(12000,2400,6000) = %v, want ≈0.58", got)
	}
	if got := MuWindow(12000, 7200, 6000); got != 1 {
		t.Fatalf("MuWindow with m≥w = %v, want 1", got)
	}
}

func TestMuEdgeCases(t *testing.T) {
	if MuUniform(0, 5) != 1 || MuWindow(0, 5, 2) != 1 {
		t.Fatal("N=0 should give 1")
	}
	if MuUniform(10, 0) != 0 || MuWindow(10, 0, 5) != 0 {
		t.Fatal("m=0 should give 0")
	}
	if MuUniform(10, 10) != 1 || MuWindow(10, 12, 5) != 1 {
		t.Fatal("m>=N should give 1")
	}
	if MuWindow(10, 3, 0) != 1 {
		t.Fatal("w=0 degenerate should give 1")
	}
}

// Property: μ is monotone in m for uniform sampling.
func TestQuickMuUniformMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		N := 10 + r.Intn(5000)
		m1 := r.Intn(N)
		m2 := m1 + r.Intn(N-m1)
		return MuUniform(N, m1) <= MuUniform(N, m2)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Simulation check: empirical μ of uniform sampling over a growing store
// matches Formula (4). This mirrors Table 4's "empirical vs theoretical"
// comparison at small scale.
func TestEmpiricalMuMatchesTheory(t *testing.T) {
	const N, m, s = 600, 120, 20 // m/n = 0.2
	u := NewUniform(7)
	var muSum float64
	for n := 1; n <= N; n++ {
		ids := seqIDs(n)
		got := u.Sample(ids, s)
		hits := 0
		for _, id := range got {
			// Materialized set = newest m chunks (oldest-first eviction).
			if int(id) >= n-m {
				hits++
			}
		}
		muSum += float64(hits) / float64(len(got))
	}
	empirical := muSum / N
	theory := MuUniform(N, m)
	if math.Abs(empirical-theory) > 0.03 {
		t.Fatalf("empirical μ = %v, theory %v", empirical, theory)
	}
}

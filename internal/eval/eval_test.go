package eval

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestMisclassification(t *testing.T) {
	var m Misclassification
	if m.Value() != 0 {
		t.Fatal("empty should be 0")
	}
	m.Observe(1, 1)
	m.Observe(-1, 1)
	m.Observe(1, -1)
	m.Observe(-1, -1)
	if m.Value() != 0.5 || m.Count() != 4 {
		t.Fatalf("value = %v, count = %d", m.Value(), m.Count())
	}
	m.Reset()
	if m.Count() != 0 {
		t.Fatal("reset failed")
	}
}

func TestRMSE(t *testing.T) {
	var m RMSE
	m.Observe(3, 0)
	m.Observe(0, 4)
	want := math.Sqrt((9.0 + 16.0) / 2)
	if math.Abs(m.Value()-want) > 1e-12 {
		t.Fatalf("RMSE = %v, want %v", m.Value(), want)
	}
}

func TestRMSLE(t *testing.T) {
	var m RMSLE
	m.Observe(math.E-1, 0) // log1p = 1 vs 0
	if math.Abs(m.Value()-1) > 1e-12 {
		t.Fatalf("RMSLE = %v, want 1", m.Value())
	}
	// Negative predictions clamp instead of producing NaN.
	var m2 RMSLE
	m2.Observe(-5, 10)
	if math.IsNaN(m2.Value()) {
		t.Fatal("RMSLE produced NaN on negative input")
	}
}

func TestMAE(t *testing.T) {
	var m MAE
	m.Observe(1, 4)
	m.Observe(2, 0)
	if m.Value() != 2.5 {
		t.Fatalf("MAE = %v", m.Value())
	}
}

func TestLogLoss(t *testing.T) {
	var m LogLoss
	m.Observe(0.9, 1)
	want := -math.Log(0.9)
	if math.Abs(m.Value()-want) > 1e-12 {
		t.Fatalf("LogLoss = %v, want %v", m.Value(), want)
	}
	// Extreme probabilities are clipped.
	var m2 LogLoss
	m2.Observe(0, 1)
	if math.IsInf(m2.Value(), 0) || math.IsNaN(m2.Value()) {
		t.Fatal("LogLoss not clipped")
	}
}

func TestMetricNames(t *testing.T) {
	for name, m := range map[string]Metric{
		"misclassification": &Misclassification{}, "rmse": &RMSE{}, "rmsle": &RMSLE{}, "mae": &MAE{}, "logloss": &LogLoss{},
	} {
		if m.Name() != name {
			t.Fatalf("Name = %q, want %q", m.Name(), name)
		}
	}
}

// Property: RMSE is symmetric and zero iff all pairs are equal.
func TestQuickRMSEProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		var a, b RMSE
		allEqual := true
		for i := 0; i < n; i++ {
			p, y := r.NormFloat64(), r.NormFloat64()
			if r.Intn(3) == 0 {
				y = p
			} else {
				allEqual = false
			}
			a.Observe(p, y)
			b.Observe(y, p)
		}
		if math.Abs(a.Value()-b.Value()) > 1e-12 {
			return false
		}
		if allEqual && a.Value() != 0 {
			return false
		}
		if !allEqual && a.Value() == 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCostClock(t *testing.T) {
	cc := NewCostClock()
	cc.Add(CatTrain, 100*time.Millisecond)
	cc.Add(CatTrain, 50*time.Millisecond)
	cc.Add(CatPredict, 25*time.Millisecond)
	if cc.Get(CatTrain) != 150*time.Millisecond {
		t.Fatalf("train = %v", cc.Get(CatTrain))
	}
	if cc.Total() != 175*time.Millisecond {
		t.Fatalf("total = %v", cc.Total())
	}
	if cc.Breakdown() == "" {
		t.Fatal("empty breakdown")
	}
	cc.Reset()
	if cc.Total() != 0 {
		t.Fatal("reset failed")
	}
	// The four categories are all there are.
	for name, f := range map[string]func(){
		"Add": func() { cc.Add("gpu", time.Second) },
		"Get": func() { cc.Get("gpu") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of an unknown category did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestCostClockTime(t *testing.T) {
	cc := NewCostClock()
	cc.Time(CatPreprocess, func() { time.Sleep(time.Millisecond) })
	if cc.Get(CatPreprocess) < time.Millisecond {
		t.Fatalf("Time did not charge: %v", cc.Get(CatPreprocess))
	}
	err := cc.TimeErr(CatIO, func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
}

func TestCostClockConcurrent(t *testing.T) {
	cc := NewCostClock()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				cc.Add(CatTrain, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if cc.Get(CatTrain) != 800*time.Microsecond {
		t.Fatalf("concurrent adds lost: %v", cc.Get(CatTrain))
	}
}

func TestSeries(t *testing.T) {
	var s Series
	if s.Mean() != 0 {
		t.Fatal("empty series should be 0")
	}
	s.Append(0, 1)
	s.Append(1, 3)
	if s.Len() != 2 || s.Mean() != 2 {
		t.Fatalf("series stats wrong: %+v", s)
	}
}

func TestSeriesDownsample(t *testing.T) {
	s := &Series{Name: "x"}
	for i := 0; i < 100; i++ {
		s.Append(float64(i), float64(i))
	}
	d := s.Downsample(10)
	if d.Len() != 10 {
		t.Fatalf("downsampled len = %d", d.Len())
	}
	if d.Xs[0] != 0 || d.Xs[9] != 99 {
		t.Fatalf("endpoints wrong: %v", d.Xs)
	}
	// No-op cases copy.
	d2 := s.Downsample(0)
	if d2.Len() != 100 {
		t.Fatal("n<=0 should copy")
	}
	d2.Ys[0] = 999
	if s.Ys[0] == 999 {
		t.Fatal("Downsample returned shared storage")
	}
	short := &Series{}
	short.Append(1, 1)
	if short.Downsample(10).Len() != 1 {
		t.Fatal("short series should be unchanged")
	}
}

// TestSeriesMaxBoundsRetainedPoints: a series with Max set never retains more
// points than that however many it is given, still spans from the first point
// to within one step of the newest at an even spacing, reports the mean of
// every point it was given, and thins into fresh arrays — a View keeps the
// points it had.
func TestSeriesMaxBoundsRetainedPoints(t *testing.T) {
	for _, budget := range []int{8, 7, 2} {
		s := &Series{Name: "b", Max: budget}
		var (
			sum   float64
			views []*Series
			held  [][]float64
		)
		for i := 0; i < 1000; i++ {
			y := float64(i%13) / 7
			s.Append(float64(i), y)
			sum += y
			if i%97 == 0 {
				views, held = append(views, s.View()), append(held, append([]float64(nil), s.Xs...))
			}
			step := float64(uint(1) << s.shift)
			if s.Len() > budget || float64(i)-s.Xs[s.Len()-1] > step {
				t.Fatalf("Max %d after %d points: %v", budget, i+1, s.Xs)
			}
			for k, x := range s.Xs {
				if x != float64(k)*step {
					t.Fatalf("Max %d after %d points: uneven spacing %v", budget, i+1, s.Xs)
				}
			}
			if math.Float64bits(s.Mean()) != math.Float64bits(sum/float64(i+1)) {
				t.Fatalf("Max %d after %d points: Mean = %v, want %v", budget, i+1, s.Mean(), sum/float64(i+1))
			}
		}
		for k, v := range views {
			if !slices.Equal(v.Xs, held[k]) {
				t.Fatalf("Max %d: thinning rewrote view %d: %v, was %v", budget, k, v.Xs, held[k])
			}
		}
	}
}

// TestSeriesMeanMatchesLoopBitForBit pins the running sum behind Mean to
// the loop it replaced: same left-to-right order, same float bits — on the
// series itself, on a View taken at any length (which must not move when
// the series grows afterwards) and through both branches of Downsample.
func TestSeriesMeanMatchesLoopBitForBit(t *testing.T) {
	loopMean := func(ys []float64) float64 {
		if len(ys) == 0 {
			return 0
		}
		var sum float64
		for _, y := range ys {
			sum += y
		}
		return sum / float64(len(ys))
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := &Series{Name: "m"}
		var views []*Series
		for i, n := 0, r.Intn(300); i < n; i++ {
			// Mixed magnitudes, so that summation order shows in the bits.
			s.Append(float64(i), r.NormFloat64()*math.Pow(10, float64(r.Intn(12)-6)))
			if r.Intn(16) == 0 {
				views = append(views, s.View())
			}
			if !same(s.Mean(), loopMean(s.Ys)) {
				return false
			}
		}
		for _, v := range views {
			if v.Len() > s.Len() || !same(v.Mean(), loopMean(s.Ys[:v.Len()])) {
				return false
			}
		}
		for _, n := range []int{0, 7, s.Len() + 1} {
			if d := s.Downsample(n); !same(d.Mean(), loopMean(d.Ys)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

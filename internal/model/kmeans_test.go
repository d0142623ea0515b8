package model

import (
	"math"
	"math/rand"
	"testing"

	"cdml/internal/data"
	"cdml/internal/flat"
	"cdml/internal/linalg"
	"cdml/internal/opt"
)

// threeBlobs draws points from three well-separated Gaussian clusters.
func threeBlobs(r *rand.Rand, n int) []data.Instance {
	centers := [][2]float64{{0, 0}, {10, 0}, {0, 10}}
	out := make([]data.Instance, n)
	for i := range out {
		c := centers[r.Intn(3)]
		out[i] = data.Instance{
			X: linalg.Dense{c[0] + 0.5*r.NormFloat64(), c[1] + 0.5*r.NormFloat64()},
			Y: 0, // labels ignored
		}
	}
	return out
}

func TestKMeansClustersBlobs(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	m := NewKMeans(3, 2)
	init := []data.Instance{
		{X: linalg.Dense{1, 1}},
		{X: linalg.Dense{9, 1}},
		{X: linalg.Dense{1, 9}},
	}
	m.Init(init)
	o := opt.NewSGD(0.1)
	for i := 0; i < 300; i++ {
		step(m, threeBlobs(r, 32), o)
	}
	// Each true center must have a centroid within distance 1.
	for _, c := range [][2]float64{{0, 0}, {10, 0}, {0, 10}} {
		bestDist := math.Inf(1)
		for j := 0; j < 3; j++ {
			cj := m.Centroid(j)
			d := math.Hypot(cj[0]-c[0], cj[1]-c[1])
			if d < bestDist {
				bestDist = d
			}
		}
		if bestDist > 1 {
			t.Fatalf("no centroid near (%v,%v): nearest at distance %v", c[0], c[1], bestDist)
		}
	}
	// Quantization loss must be low.
	test := threeBlobs(r, 200)
	var loss float64
	for _, in := range test {
		loss += m.Loss(in.X, 0)
	}
	if loss/200 > 1 {
		t.Fatalf("quantization loss %v too high", loss/200)
	}
}

func TestKMeansAssignAndPredict(t *testing.T) {
	m := NewKMeans(2, 2)
	copy(m.Centroid(0), []float64{0, 0})
	copy(m.Centroid(1), []float64{10, 10})
	j, dist := m.assign(linalg.Dense{1, 1})
	if j != 0 || math.Abs(dist-2) > 1e-9 {
		t.Fatalf("Assign = %d, %v", j, dist)
	}
	if m.Predict(linalg.Dense{9, 9}) != 1 {
		t.Fatal("Predict wrong cluster")
	}
}

func TestKMeansSparseAgreement(t *testing.T) {
	m := NewKMeans(2, 4)
	copy(m.Centroid(0), []float64{1, 0, 2, 0})
	copy(m.Centroid(1), []float64{-5, -5, -5, -5})
	sx := linalg.NewSparse(4, []int32{0, 2}, []float64{1, 2})
	dx := sx.ToDense()
	js, ds := m.assign(sx)
	jd, dd := m.assign(dx)
	if js != jd || math.Abs(ds-dd) > 1e-9 {
		t.Fatalf("sparse/dense Assign disagree: (%d,%v) vs (%d,%v)", js, ds, jd, dd)
	}
	// Gradient agreement.
	gs, ls := m.Gradient([]data.Instance{{X: sx}})
	gd, ld := m.Gradient([]data.Instance{{X: dx}})
	if math.Abs(ls-ld) > 1e-9 {
		t.Fatalf("losses differ: %v vs %v", ls, ld)
	}
	for i := 0; i < gs.Dim(); i++ {
		if math.Abs(gs.At(i)-gd.At(i)) > 1e-9 {
			t.Fatalf("gradients differ at %d: %v vs %v", i, gs.At(i), gd.At(i))
		}
	}
}

func TestKMeansGradientPullsCentroidTowardPoint(t *testing.T) {
	m := NewKMeans(1, 2)
	copy(m.Centroid(0), []float64{5, 5})
	batch := []data.Instance{{X: linalg.Dense{0, 0}}}
	before := m.Loss(batch[0].X, 0)
	step(m, batch, opt.NewSGD(0.1))
	after := m.Loss(batch[0].X, 0)
	if after >= before {
		t.Fatalf("update did not reduce quantization error: %v → %v", before, after)
	}
}

func TestKMeansBadConstructionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewKMeans(0, 2)
}

func TestKMeansCentroidRangePanics(t *testing.T) {
	m := NewKMeans(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Centroid(2)
}

func TestKMeansDimMismatchPanics(t *testing.T) {
	m := NewKMeans(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.assign(linalg.Dense{1, 2})
}

func TestKMeansClone(t *testing.T) {
	m := NewKMeans(2, 2)
	copy(m.Centroid(0), []float64{1, 2})
	c := m.Clone().(*KMeans)
	c.Centroid(0)[0] = 99
	if m.Centroid(0)[0] != 1 {
		t.Fatal("Clone shares centroids")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	models := []Model{
		func() Model { m := NewSVM(3, 0.1); m.SetWeights([]float64{1, 2, 3, 4}); return m }(),
		func() Model { m := NewLinearRegression(2, 0.2); m.SetWeights([]float64{5, 6, 7}); return m }(),
		func() Model { m := NewLogisticRegression(2, 0); m.SetWeights([]float64{8, 9, 10}); return m }(),
		func() Model {
			m := NewKMeans(2, 2)
			copy(m.Centroid(0), []float64{1, 2})
			copy(m.Centroid(1), []float64{3, 4})
			return m
		}(),
	}
	for _, m := range models {
		got := roundTrip(t, m)
		if got.Name() != m.Name() || got.Dim() != m.Dim() {
			t.Fatalf("%s: round trip changed identity to %s/%d", m.Name(), got.Name(), got.Dim())
		}
		for i, w := range m.Weights() {
			if got.Weights()[i] != w {
				t.Fatalf("%s: weight %d = %v, want %v", m.Name(), i, got.Weights()[i], w)
			}
		}
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := DecodeSection(flat.NewReader([]byte("junk")), NewSVM(15, 0)); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestPredictionsSurviveRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	m := NewSVM(4, 1e-3)
	for i := 0; i < 50; i++ {
		batch := make([]data.Instance, 8)
		for k := range batch {
			x := linalg.Dense{r.NormFloat64(), r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
			y := 1.0
			if x[0]+x[1] < 0 {
				y = -1
			}
			batch[k] = data.Instance{X: x, Y: y}
		}
		step(m, batch, opt.NewSGD(0.05))
	}
	got := roundTrip(t, m)
	for i := 0; i < 20; i++ {
		x := linalg.Dense{r.NormFloat64(), r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		if m.Predict(x) != got.Predict(x) {
			t.Fatal("prediction changed after round trip")
		}
	}
}

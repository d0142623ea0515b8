package model

import (
	"math"
	"math/rand"
	"testing"

	"cdml/internal/data"
	"cdml/internal/linalg"
	"cdml/internal/opt"
)

// syntheticRatings builds a rating matrix from true latent factors and
// returns a batch sampler over observed entries.
type ratingsWorld struct {
	users, items, factors int
	uf, vf                [][]float64
	mu                    float64
}

func newRatingsWorld(r *rand.Rand, users, items, factors int) *ratingsWorld {
	w := &ratingsWorld{users: users, items: items, factors: factors, mu: 3.5}
	w.uf = make([][]float64, users)
	w.vf = make([][]float64, items)
	for u := range w.uf {
		w.uf[u] = make([]float64, factors)
		for k := range w.uf[u] {
			w.uf[u][k] = r.NormFloat64() * 0.6
		}
	}
	for i := range w.vf {
		w.vf[i] = make([]float64, factors)
		for k := range w.vf[i] {
			w.vf[i][k] = r.NormFloat64() * 0.6
		}
	}
	return w
}

func (w *ratingsWorld) rating(r *rand.Rand, u, i int) float64 {
	v := w.mu
	for k := 0; k < w.factors; k++ {
		v += w.uf[u][k] * w.vf[i][k]
	}
	return v + 0.1*r.NormFloat64()
}

func (w *ratingsWorld) batch(r *rand.Rand, n int) []data.Instance {
	out := make([]data.Instance, n)
	for k := range out {
		u, i := r.Intn(w.users), r.Intn(w.items)
		out[k] = data.Instance{
			X: EncodePair(w.users, w.items, u, i),
			Y: w.rating(r, u, i),
		}
	}
	return out
}

func TestMFLearnsLatentStructure(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	world := newRatingsWorld(r, 40, 60, 3)
	m := NewMF(40, 60, 4, 1e-3, 7)
	o := opt.NewAdam(0.05)
	for it := 0; it < 3000; it++ {
		step(m, world.batch(r, 32), o)
	}
	var sse float64
	const nTest = 500
	for k := 0; k < nTest; k++ {
		u, i := r.Intn(40), r.Intn(60)
		d := m.PredictPair(u, i) - world.rating(r, u, i)
		sse += d * d
	}
	rmse := math.Sqrt(sse / nTest)
	// Rating std from latent structure ≈ 1; a fitted model should be near
	// the noise floor.
	if rmse > 0.45 {
		t.Fatalf("MF RMSE = %v, want < 0.45", rmse)
	}
}

func TestMFBiasOnlyBaseline(t *testing.T) {
	// With zero latent signal, MF should recover the global mean.
	r := rand.New(rand.NewSource(2))
	m := NewMF(10, 10, 2, 1e-3, 3)
	o := opt.NewAdam(0.05)
	for it := 0; it < 500; it++ {
		batch := make([]data.Instance, 16)
		for k := range batch {
			batch[k] = data.Instance{
				X: EncodePair(10, 10, r.Intn(10), r.Intn(10)),
				Y: 4.2,
			}
		}
		step(m, batch, o)
	}
	if math.Abs(m.PredictPair(3, 7)-4.2) > 0.1 {
		t.Fatalf("constant ratings not recovered: %v", m.PredictPair(3, 7))
	}
}

func TestMFPairDecoding(t *testing.T) {
	m := NewMF(5, 7, 2, 0, 1)
	x := EncodePair(5, 7, 3, 6)
	u, i, err := m.pair(x)
	if err != nil || u != 3 || i != 6 {
		t.Fatalf("pair = (%d, %d), err %v", u, i, err)
	}
}

func TestMFRejectsBadInput(t *testing.T) {
	m := NewMF(5, 7, 2, 0, 1)
	cases := []linalg.Vector{
		linalg.Dense{1, 0},
		linalg.NewSparse(12, []int32{1}, []float64{1}),             // 1-hot
		linalg.NewSparse(12, []int32{0, 1, 2}, []float64{1, 1, 1}), // 3-hot
		linalg.NewSparse(12, []int32{6, 7}, []float64{1, 1}),       // two items, no user
	}
	for k, x := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", k)
				}
			}()
			m.Predict(x)
		}()
	}
}

func TestMFGradientMatchesFiniteDifference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m := NewMF(4, 5, 2, 0.01, 11)
	batch := []data.Instance{
		{X: EncodePair(4, 5, 0, 2), Y: 4},
		{X: EncodePair(4, 5, 3, 0), Y: 2},
		{X: EncodePair(4, 5, 1, 4), Y: 5},
	}
	g, _ := m.Gradient(batch)
	obj := func(w []float64) float64 {
		old := linalg.CopyOf(m.Weights())
		m.SetWeights(w)
		var sum float64
		for _, ins := range batch {
			sum += m.Loss(ins.X, ins.Y)
			// L2 on the touched parameters, matching the lazy scheme.
			u, i, _ := m.pair(ins.X)
			reg := 0.5 * 0.01 * (m.w[u]*m.w[u] + m.w[m.Users+i]*m.w[m.Users+i])
			pu, qi := m.userFactors(u), m.itemFactors(i)
			for k := 0; k < m.Factors; k++ {
				reg += 0.5 * 0.01 * (pu[k]*pu[k] + qi[k]*qi[k])
			}
			sum += reg
		}
		sum /= float64(len(batch))
		m.SetWeights(old)
		return sum
	}
	const eps = 1e-6
	w0 := linalg.CopyOf(m.Weights())
	// Spot-check a handful of random coordinates plus the global bias.
	coords := []int{len(w0) - 1}
	for k := 0; k < 10; k++ {
		coords = append(coords, r.Intn(len(w0)-1))
	}
	for _, c := range coords {
		wp, wm := linalg.CopyOf(w0), linalg.CopyOf(w0)
		wp[c] += eps
		wm[c] -= eps
		fd := (obj(wp) - obj(wm)) / (2 * eps)
		if math.Abs(fd-g.At(c)) > 1e-4 {
			t.Fatalf("coord %d: finite-diff %v vs gradient %v", c, fd, g.At(c))
		}
	}
}

func TestMFCloneAndPersist(t *testing.T) {
	m := NewMF(3, 4, 2, 0.1, 5)
	c := m.Clone().(*MF)
	c.Weights()[0] = 99
	if m.Weights()[0] == 99 {
		t.Fatal("Clone shares weights")
	}
	got := roundTrip(t, m)
	mf, ok := got.(*MF)
	if !ok {
		t.Fatalf("loaded %T", got)
	}
	if mf.Users != 3 || mf.Items != 4 || mf.Factors != 2 {
		t.Fatalf("shape lost: %+v", mf)
	}
	if mf.PredictPair(1, 2) != m.PredictPair(1, 2) {
		t.Fatal("predictions changed after round trip")
	}
}

func TestMFBadShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMF(0, 5, 2, 0, 1)
}

func TestMFPredictPairRangePanics(t *testing.T) {
	m := NewMF(2, 2, 1, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.PredictPair(2, 0)
}

func TestMFProactiveResumability(t *testing.T) {
	// The conditional-independence property must hold for MF too: a clone
	// resumed with a copy of the optimizer matches the uninterrupted run.
	r1 := rand.New(rand.NewSource(9))
	r2 := rand.New(rand.NewSource(9))
	world1 := newRatingsWorld(r1, 8, 8, 2)
	world2 := newRatingsWorld(r2, 8, 8, 2)
	a := NewMF(8, 8, 2, 1e-3, 1)
	oa := opt.NewAdam(0.05)
	for it := 0; it < 5; it++ {
		step(a, world1.batch(r1, 8), oa)
		world2.batch(r2, 8) // keep streams aligned
	}
	b := a.Clone().(*MF)
	ob := optimizerCopy(t, oa, len(a.Weights()))
	for it := 0; it < 5; it++ {
		batch := world1.batch(r1, 8)
		step(a, batch, oa)
		step(b, batch, ob)
	}
	for i := range a.Weights() {
		if math.Abs(a.Weights()[i]-b.Weights()[i]) > 1e-12 {
			t.Fatal("resumed MF diverged")
		}
	}
}

package model

import (
	"fmt"
	"math"

	"cdml/internal/data"
	"cdml/internal/linalg"
)

// KMeans is mini-batch k-means expressed as an SGD model, demonstrating the
// platform's claim (paper §3.3, citing Bottou & Bengio) that proactive
// training applies to any SGD-trainable method, clustering included. The k
// centroids are flattened into the weight vector (k·dim coordinates; the
// trailing intercept slot stays zero). Each example contributes the
// gradient of ½·||x − c_nearest||² with respect to its nearest centroid,
// and labels are ignored.
type KMeans struct {
	base
	// K is the number of centroids.
	K int
	// FeatureDim is the dimensionality of one input point.
	FeatureDim int
}

// NewKMeans returns a k-means model over dim-dimensional points. Centroids
// start at zero; callers typically seed them with Init on a first batch.
func NewKMeans(k, dim int) *KMeans {
	if k <= 0 {
		panic(fmt.Sprintf("model: non-positive cluster count %d", k))
	}
	return &KMeans{base: newBase(k*dim, 0), K: k, FeatureDim: dim}
}

// Name implements Model.
func (m *KMeans) Name() string { return "kmeans" }

// Centroid returns centroid j as a mutable slice view into the weights.
func (m *KMeans) Centroid(j int) []float64 {
	if j < 0 || j >= m.K {
		panic(fmt.Sprintf("model: centroid %d out of range [0,%d)", j, m.K))
	}
	return m.w[j*m.FeatureDim : (j+1)*m.FeatureDim]
}

// Init seeds the centroids from the first k distinct-ish points of a batch.
func (m *KMeans) Init(batch []data.Instance) {
	for j := 0; j < m.K && j < len(batch); j++ {
		c := m.Centroid(j)
		x := batch[j].X
		for i := 0; i < m.FeatureDim && i < x.Dim(); i++ {
			c[i] = x.At(i)
		}
	}
}

// assign returns the index of the nearest centroid and the squared distance
// to it.
func (m *KMeans) assign(x linalg.Vector) (int, float64) {
	if x.Dim() != m.FeatureDim {
		panic(fmt.Sprintf("model: k-means input dim %d, want %d", x.Dim(), m.FeatureDim))
	}
	best, bestDist := 0, math.Inf(1)
	for j := 0; j < m.K; j++ {
		c := m.Centroid(j)
		var dist float64
		switch t := x.(type) {
		case linalg.Dense:
			for i, v := range t {
				d := v - c[i]
				dist += d * d
			}
		default:
			// ||x||² − 2·x·c + ||c||², with the sparse dot doing the work.
			var cNorm float64
			for _, v := range c {
				cNorm += v * v
			}
			xNorm := x.L2()
			dist = xNorm*xNorm - 2*x.Dot(c) + cNorm
		}
		if dist < bestDist {
			best, bestDist = j, dist
		}
	}
	return best, bestDist
}

// Predict implements Model: the index of the nearest centroid (as a
// float64, so the platform's Predictor plumbing applies unchanged).
func (m *KMeans) Predict(x linalg.Vector) float64 {
	j, _ := m.assign(x)
	return float64(j)
}

// Loss implements Model: half the squared distance to the nearest centroid
// (the quantization error). The label is ignored.
func (m *KMeans) Loss(x linalg.Vector, y float64) float64 {
	_, dist := m.assign(x)
	return 0.5 * dist
}

// Gradient implements Model: the mean quantization-error gradient over a
// batch, each example pulling its nearest centroid.
//
//cdml:deterministic
func (m *KMeans) Gradient(batch []data.Instance) (linalg.Vector, float64) {
	if len(batch) == 0 {
		panic("model: empty mini-batch")
	}
	acc := linalg.AcquireAccumulator(len(m.w))
	var lossSum float64
	for _, ins := range batch {
		j, dist := m.assign(ins.X)
		lossSum += 0.5 * dist
		// ∂/∂c_j ½||x − c_j||² = c_j − x
		off := j * m.FeatureDim
		c := m.Centroid(j)
		switch t := ins.X.(type) {
		case linalg.Dense:
			for i, v := range t {
				acc.AddCoord(off+i, c[i]-v)
			}
		case *linalg.Sparse:
			// Contribution from stored coordinates: c_i − x_i; from the
			// implicit zeros: c_i. Together: add c fully, subtract x where
			// stored.
			for i, v := range c {
				//lint:allow floateq: skips exactly-zero coordinates; a near-zero centroid entry must still contribute
				if v != 0 {
					acc.AddCoord(off+i, v)
				}
			}
			for k, i := range t.Idx {
				acc.AddCoord(off+int(i), -t.Val[k])
			}
		default:
			for i := 0; i < m.FeatureDim; i++ {
				acc.AddCoord(off+i, c[i]-ins.X.At(i))
			}
		}
	}
	sum := acc.Result(1)
	acc.Release()
	return m.finishGradient(sum, lossSum, len(batch))
}

// Clone implements Model.
func (m *KMeans) Clone() Model {
	return &KMeans{
		base:       base{w: linalg.CopyOf(m.w), reg: m.reg},
		K:          m.K,
		FeatureDim: m.FeatureDim,
	}
}

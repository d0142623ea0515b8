package model

import (
	"fmt"
	"math/rand"

	"cdml/internal/data"
	"cdml/internal/linalg"
)

// MF is biased matrix factorization for rating prediction, trained with
// SGD — the recommender-systems use of SGD the paper cites (Koren et al.,
// §2.1 [19]): r̂(u,i) = μ + b_u + b_i + p_u·q_i.
//
// Instances encode a (user, item) pair as a 2-hot sparse vector over
// dimension Users+Items: coordinate u set to 1 for the user and Users+i
// for the item, with the rating as the label. The flattened weight layout
// is [user biases | item biases | user factors | item factors | μ], so the
// whole model trains through the same Optimizer machinery as the linear
// models and the proactive trainer needs nothing special.
type MF struct {
	base
	// Users and Items bound the id spaces.
	Users, Items int
	// Factors is the latent dimensionality.
	Factors int
}

// NewMF returns a matrix factorization model with reg L2 regularization on
// biases and factors. Latent factors are initialized to small random
// values from seed (symmetric zero initialization would never break the
// factor symmetry).
func NewMF(users, items, factors int, reg float64, seed int64) *MF {
	if users <= 0 || items <= 0 || factors <= 0 {
		panic(fmt.Sprintf("model: invalid MF shape users=%d items=%d factors=%d", users, items, factors))
	}
	dim := users + items + users*factors + items*factors
	m := &MF{
		base:    newBase(dim, reg),
		Users:   users,
		Items:   items,
		Factors: factors,
	}
	r := rand.New(rand.NewSource(seed))
	for k := users + items; k < dim; k++ {
		m.w[k] = 0.1 * r.NormFloat64()
	}
	return m
}

// Name implements Model.
func (m *MF) Name() string { return "mf" }

// userFactors returns the latent factor slice of user u.
func (m *MF) userFactors(u int) []float64 {
	off := m.Users + m.Items + u*m.Factors
	return m.w[off : off+m.Factors]
}

// itemFactors returns the latent factor slice of item i.
func (m *MF) itemFactors(i int) []float64 {
	off := m.Users + m.Items + m.Users*m.Factors + i*m.Factors
	return m.w[off : off+m.Factors]
}

// mu returns the global bias (stored in the intercept slot).
func (m *MF) mu() float64 { return m.w[len(m.w)-1] }

// pair decodes the (user, item) encoded in a 2-hot instance vector.
func (m *MF) pair(x linalg.Vector) (int, int, error) {
	s, ok := x.(*linalg.Sparse)
	if !ok || s.NNZ() != 2 {
		return 0, 0, fmt.Errorf("model: MF input must be a 2-hot sparse vector, got %T with %d non-zeros", x, x.NNZ())
	}
	u := int(s.Idx[0])
	i := int(s.Idx[1]) - m.Users
	if u < 0 || u >= m.Users || i < 0 || i >= m.Items {
		return 0, 0, fmt.Errorf("model: MF pair (%d, %d) out of range (%d users, %d items)", u, i, m.Users, m.Items)
	}
	return u, i, nil
}

// PredictPair returns the predicted rating for an explicit (user, item)
// pair.
func (m *MF) PredictPair(u, i int) float64 {
	if u < 0 || u >= m.Users || i < 0 || i >= m.Items {
		panic(fmt.Sprintf("model: MF pair (%d, %d) out of range", u, i))
	}
	pred := m.mu() + m.w[u] + m.w[m.Users+i]
	pu, qi := m.userFactors(u), m.itemFactors(i)
	for k := 0; k < m.Factors; k++ {
		pred += pu[k] * qi[k]
	}
	return pred
}

// Predict implements Model.
func (m *MF) Predict(x linalg.Vector) float64 {
	u, i, err := m.pair(x)
	if err != nil {
		panic(err)
	}
	return m.PredictPair(u, i)
}

// Loss implements Model: squared rating error.
func (m *MF) Loss(x linalg.Vector, y float64) float64 {
	r := m.Predict(x) - y
	return 0.5 * r * r
}

// Gradient implements Model: the mean gradient over a batch. Unlike the
// linear family, MF's regularization is per-example (each occurrence of a
// user/item regularizes its own parameters), so the reg terms are summed
// with the loss gradient and the sum is only averaged.
//
//cdml:deterministic
func (m *MF) Gradient(batch []data.Instance) (linalg.Vector, float64) {
	if len(batch) == 0 {
		panic("model: empty mini-batch")
	}
	acc := linalg.AcquireAccumulator(len(m.w))
	var lossSum float64
	factorBase := m.Users + m.Items
	itemBase := factorBase + m.Users*m.Factors
	for _, ins := range batch {
		u, i, err := m.pair(ins.X)
		if err != nil {
			panic(err)
		}
		e := m.PredictPair(u, i) - ins.Y
		lossSum += 0.5 * e * e
		// biases
		acc.AddCoord(u, e+m.reg*m.w[u])
		acc.AddCoord(m.Users+i, e+m.reg*m.w[m.Users+i])
		acc.AddCoord(len(m.w)-1, e) // global bias, unregularized
		// factors
		pu, qi := m.userFactors(u), m.itemFactors(i)
		for k := 0; k < m.Factors; k++ {
			acc.AddCoord(factorBase+u*m.Factors+k, e*qi[k]+m.reg*pu[k])
			acc.AddCoord(itemBase+i*m.Factors+k, e*pu[k]+m.reg*qi[k])
		}
	}
	sum := acc.Result(1)
	acc.Release()
	inv := 1 / float64(len(batch))
	return scaleVec(sum, inv), lossSum * inv
}

// Clone implements Model.
func (m *MF) Clone() Model {
	return &MF{
		base:    base{w: linalg.CopyOf(m.w), reg: m.reg},
		Users:   m.Users,
		Items:   m.Items,
		Factors: m.Factors,
	}
}

// EncodePair builds the 2-hot instance vector for a (user, item) pair over
// the model's id spaces.
func EncodePair(users, items, u, i int) *linalg.Sparse {
	return linalg.NewSparse(users+items, []int32{int32(u), int32(users + i)}, []float64{1, 1})
}

package model

import (
	"fmt"
	"math"

	"cdml/internal/flat"
)

// snapshot is the serialized form of a model. Only weights and the
// constructor parameters are persisted; optimizer state travels in its own
// section (opt.Encode). A model is never constructed from bytes: a decoded
// one is a copy of the deployed one with the section's weights
// (DecodeSection).
type snapshot struct {
	Kind    string
	Dim     int
	Reg     float64
	Weights []float64
	K       int // k-means only
	Users   int // MF only
	Items   int // MF only
	Factors int // MF only
}

// The model section of a snapshot payload (internal/flat, DESIGN.md §5n):
//
//	kind string | dim, k, users, items, factors uvarint | reg f64 | weights float block
//
// The five shape numbers are always present (zero where the kind has no use
// for one), so there is one layout, not one per kind.

// snapshotOf captures m; the weights are m's own slice, not a copy.
func snapshotOf(m Model) (snapshot, error) {
	s := snapshot{Dim: m.Dim(), Weights: m.Weights()}
	switch t := m.(type) {
	case *SVM:
		s.Kind, s.Reg = "svm", t.Reg()
	case *LinearRegression:
		s.Kind, s.Reg = "linreg", t.Reg()
	case *LogisticRegression:
		s.Kind, s.Reg = "logreg", t.Reg()
	case *KMeans:
		s.Kind, s.K, s.Dim = "kmeans", t.K, t.FeatureDim
	case *MF:
		s.Kind, s.Reg = "mf", t.Reg()
		s.Users, s.Items, s.Factors = t.Users, t.Items, t.Factors
	default:
		return snapshot{}, fmt.Errorf("model: cannot save unknown model type %T", m)
	}
	return s, nil
}

func (s *snapshot) shape() [5]int { return [5]int{s.Dim, s.K, s.Users, s.Items, s.Factors} }

// Section is a model ready to be encoded: captured and its weights scanned
// once (flat.Scan), so that the size is known before the destination is
// allocated. It references the model's weights, which must not change until
// AppendTo has run — an encoded snapshot's model never does — and it is
// appended once (flat.Block).
type Section struct {
	s       snapshot
	weights flat.Block
}

// NewSection captures m.
func NewSection(m Model) (Section, error) {
	s, err := snapshotOf(m)
	return Section{s: s, weights: flat.Scan(s.Weights)}, err
}

// Size is the number of bytes AppendTo appends.
func (c Section) Size() int {
	n := flat.StringSize(c.s.Kind) + 8 + c.weights.Size()
	for _, v := range c.s.shape() {
		n += flat.UvarintSize(uint64(v))
	}
	return n
}

// AppendTo appends the section to dst.
func (c Section) AppendTo(dst []byte) []byte {
	dst = flat.AppendString(dst, c.s.Kind)
	for _, v := range c.s.shape() {
		dst = flat.AppendUvarint(dst, uint64(v))
	}
	return c.weights.AppendTo(flat.AppendFloat64(dst, c.s.Reg))
}

// DecodeSection reads one model section from r that must describe a model
// of tmpl's kind, shape and regularizer — a deployment passes its own model,
// whose kind, shape and regularizer it keeps for life — and returns a new
// model like tmpl holding the section's weights; tmpl is not written. Every
// count is bounded by tmpl's weight count before it sizes anything, so no
// section can ask for more memory than the state it replaces.
func DecodeSection(r *flat.Reader, tmpl Model) (Model, error) {
	want, err := snapshotOf(tmpl)
	if err != nil {
		return nil, err
	}
	n := len(want.Weights)
	var s snapshot
	s.Kind = r.String()
	for _, p := range [5]*int{&s.Dim, &s.K, &s.Users, &s.Items, &s.Factors} {
		*p = r.Count(n, "model shape")
	}
	s.Reg = r.Float64()
	s.Weights = r.Floats(n)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("model: decoding: %w", err)
	}
	// Equal down to the regularizer's bits: a model that differs in any
	// of them would not re-encode to the bytes it came from.
	if s.Kind != want.Kind || s.shape() != want.shape() || math.Float64bits(s.Reg) != math.Float64bits(want.Reg) || len(s.Weights) != n {
		return nil, fmt.Errorf("model: snapshot of a %s of shape %v, regularization %v, %d weights does not match the deployed %s of shape %v, regularization %v, %d weights",
			s.Kind, s.shape(), s.Reg, len(s.Weights), want.Kind, want.shape(), want.Reg, n)
	}
	m := tmpl.Clone()
	m.SetWeights(s.Weights)
	return m, nil
}

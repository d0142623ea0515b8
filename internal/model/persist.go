package model

import (
	"fmt"
	"math"

	"cdml/internal/flat"
)

// snapshot is the serialized form of a model. Only weights and the
// constructor parameters are persisted; optimizer state travels in its own
// section (opt.Encode). build is the only place a model is constructed from
// bytes.
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
// AppendTo has run — a published snapshot's model never does.
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

// DecodeSection reads one model section from r. maxWeights bounds the weight
// vector before it is allocated: a deployment passes its own model's weight
// count, so no payload can ask for more memory than the state it replaces.
func DecodeSection(r *flat.Reader, maxWeights int) (Model, error) {
	var s snapshot
	s.Kind = r.String()
	shape := [5]*int{&s.Dim, &s.K, &s.Users, &s.Items, &s.Factors}
	for _, p := range shape {
		*p = r.Count(maxWeights, "model shape")
	}
	s.Reg = r.Float64()
	s.Weights = r.Floats(maxWeights)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("model: decoding: %w", err)
	}
	return s.build(maxWeights)
}

// build validates a decoded snapshot and constructs its model. Nothing is
// allocated from a number the snapshot claims until the weights it actually
// carries have been counted against it, and no constructor is reached with
// an argument it would panic on.
func (s *snapshot) build(maxWeights int) (Model, error) {
	if len(s.Weights) > maxWeights {
		return nil, fmt.Errorf("model: snapshot carries %d weights, at most %d allowed", len(s.Weights), maxWeights)
	}
	for _, v := range s.shape() {
		// Every shape number is at most the weight count it contributes to,
		// which also keeps the products below from overflowing.
		if v < 0 || v > len(s.Weights) {
			return nil, fmt.Errorf("model: corrupt %s snapshot: shape %v with %d weights", s.Kind, s.shape(), len(s.Weights))
		}
	}
	if math.IsNaN(s.Reg) || math.IsInf(s.Reg, 0) || s.Reg < 0 {
		return nil, fmt.Errorf("model: corrupt %s snapshot: regularization %v", s.Kind, s.Reg)
	}
	var want int
	var mk func() Model
	switch s.Kind {
	case "svm":
		want, mk = s.Dim+1, func() Model { return NewSVM(s.Dim, s.Reg) }
	case "linreg":
		want, mk = s.Dim+1, func() Model { return NewLinearRegression(s.Dim, s.Reg) }
	case "logreg":
		want, mk = s.Dim+1, func() Model { return NewLogisticRegression(s.Dim, s.Reg) }
	case "kmeans":
		want, mk = s.K*s.Dim+1, func() Model { return NewKMeans(s.K, s.Dim) }
	case "mf":
		if s.Users > 0 && s.Items > 0 && s.Factors > 0 {
			want = s.Users + s.Items + (s.Users+s.Items)*s.Factors + 1
		}
		mk = func() Model { return NewMF(s.Users, s.Items, s.Factors, s.Reg, 0) }
	default:
		return nil, fmt.Errorf("model: unknown model kind %q", s.Kind)
	}
	// A bias slot and at least one weight: with the product above that makes
	// every number a constructor takes positive.
	if want < 2 || want != len(s.Weights) {
		return nil, fmt.Errorf("model: corrupt %s snapshot: shape %v needs %d weights, have %d", s.Kind, s.shape(), want, len(s.Weights))
	}
	m := mk()
	// The model must be the one the snapshot describes and no more: a number
	// its kind has no use for (k on an SVM, a k-means regularizer) would be
	// dropped here and the state would not re-encode to the bytes it came from.
	if back, _ := snapshotOf(m); back.shape() != s.shape() || math.Float64bits(back.Reg) != math.Float64bits(s.Reg) {
		return nil, fmt.Errorf("model: corrupt %s snapshot: shape %v, regularization %v", s.Kind, s.shape(), s.Reg)
	}
	m.SetWeights(s.Weights)
	return m, nil
}

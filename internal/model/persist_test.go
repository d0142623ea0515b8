package model

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"cdml/internal/flat"
)

// everyKind is one trained-looking model of every kind a section can name,
// weights a mix of zeros, ordinary values and the bit patterns a float block
// must keep (−0.0, a NaN payload, ±Inf).
func everyKind() []Model {
	fill := func(m Model) Model {
		w := m.Weights()
		for i := range w {
			switch i % 5 {
			case 1:
				w[i] = float64(i) / 8
			case 3:
				w[i] = -float64(i)
			}
		}
		w[0] = math.Copysign(0, -1)
		w[len(w)-1] = math.Float64frombits(0x7ff8000000000123)
		if len(w) > 4 {
			w[4] = math.Inf(-1)
		}
		return m
	}
	return []Model{
		fill(NewSVM(9, 0.1)), fill(NewLinearRegression(4, 0.25)), fill(NewLogisticRegression(17, 0)),
		fill(NewKMeans(3, 4)), fill(NewMF(3, 4, 2, 0.05, 7)),
	}
}

func sectionOf(t *testing.T, m Model) []byte {
	t.Helper()
	c, err := NewSection(m)
	if err != nil {
		t.Fatal(err)
	}
	b := c.AppendTo(nil)
	if len(b) != c.Size() {
		t.Fatalf("%s: section is %d bytes, Size says %d", m.Name(), len(b), c.Size())
	}
	return b
}

// roundTrip is m encoded to its section and decoded again.
func roundTrip(t *testing.T, m Model) Model {
	t.Helper()
	r := flat.NewReader(sectionOf(t, m))
	got, err := DecodeSection(r, m)
	if err != nil {
		t.Fatalf("%s: %v", m.Name(), err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("%s: %v", m.Name(), err)
	}
	return got
}

// Every model kind round-trips bit for bit into a new model, leaving the
// template alone; the decoded model encodes to the bytes it came from, and
// a template of any other kind or shape refuses them.
func TestSectionRoundTripEveryKind(t *testing.T) {
	kinds := everyKind()
	for _, m := range kinds {
		b := sectionOf(t, m)
		tmpl := m.Clone()
		for i := range tmpl.Weights() {
			tmpl.Weights()[i] = 0
		}
		r := flat.NewReader(b)
		got, err := DecodeSection(r, tmpl)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if got.Name() != m.Name() || got.Dim() != m.Dim() {
			t.Fatalf("%s/%d came back as %s/%d", m.Name(), m.Dim(), got.Name(), got.Dim())
		}
		for i, w := range m.Weights() {
			if math.Float64bits(got.Weights()[i]) != math.Float64bits(w) {
				t.Fatalf("%s: weight %d = %v, want %v", m.Name(), i, got.Weights()[i], w)
			}
		}
		if !bytes.Equal(sectionOf(t, got), b) || !bytes.Equal(sectionOf(t, m.Clone()), b) {
			t.Fatalf("%s: equal models encode to different bytes", m.Name())
		}
		if got == tmpl || slices.ContainsFunc(tmpl.Weights(), func(w float64) bool { return w != 0 }) {
			t.Fatalf("%s: decoding wrote into the template", m.Name())
		}
		for _, other := range kinds {
			if _, err := DecodeSection(flat.NewReader(b), other); other != m && err == nil {
				t.Fatalf("%s: a %s/%d template took the section", m.Name(), other.Name(), other.Dim())
			}
		}
	}
	if _, err := NewSection(unknownModel{NewSVM(2, 0)}); err == nil {
		t.Fatal("a model type with no encoding was given a section")
	}
}

type unknownModel struct{ *SVM }

// DecodeSection reads bytes it did not write: everything malformed, and
// every well-formed section of another kind, shape or regularizer than the
// template's, is an error, and nothing is allocated from a number the bytes
// merely claim. Each input is tried against every template, among them the
// model it is closest to.
func TestDecodeSectionRefusesMalformedInput(t *testing.T) {
	section := func(kind string, shape [5]uint64, reg float64, weights []float64) []byte {
		b := flat.AppendString(nil, kind)
		for _, v := range shape {
			b = flat.AppendUvarint(b, v)
		}
		return flat.Scan(weights).AppendTo(flat.AppendFloat64(b, reg))
	}
	w := func(n int) []float64 { return make([]float64, n) }
	templates := []Model{
		NewSVM(2, 0.5), NewSVM(2, 0), NewLinearRegression(2, 0), NewLogisticRegression(2, 0),
		NewKMeans(2, 2), NewKMeans(2, 3), NewMF(1, 1, 1, 0, 1), NewMF(2, 1, 1, 0, 1),
	}
	cases := map[string][]byte{
		"unknown kind":               section("forest", [5]uint64{2}, 0, w(3)),
		"dim does not fit":           section("svm", [5]uint64{3}, 0, w(3)),
		"zero dim":                   section("svm", [5]uint64{0}, 0, w(1)),
		"no weights":                 section("svm", [5]uint64{2}, 0, nil),
		"negative reg":               section("svm", [5]uint64{2}, -0.5, w(3)),
		"NaN reg":                    section("linreg", [5]uint64{2}, math.NaN(), w(3)),
		"infinite reg":               section("logreg", [5]uint64{2}, math.Inf(1), w(3)),
		"huge dim":                   section("svm", [5]uint64{1 << 60}, 0, w(3)),
		"svm with a k":               section("svm", [5]uint64{2, 5}, 0, w(3)),
		"kmeans with a reg":          section("kmeans", [5]uint64{2, 1}, 0.5, w(3)),
		"kmeans k=0":                 section("kmeans", [5]uint64{2, 0}, 0, w(1)),
		"kmeans dim=0":               section("kmeans", [5]uint64{0, 2}, 0, w(1)),
		"kmeans wrong count":         section("kmeans", [5]uint64{2, 2}, 0, w(4)),
		"mf zero factors":            section("mf", [5]uint64{6, 0, 2, 3, 0}, 0, w(6)),
		"mf zero users":              section("mf", [5]uint64{6, 0, 0, 3, 1}, 0, w(7)),
		"mf wrong dim":               section("mf", [5]uint64{5, 0, 1, 1, 1}, 0, w(5)),
		"mf wrong count":             section("mf", [5]uint64{4, 0, 1, 1, 1}, 0, w(6)),
		"a 2^60-weight block":        append(section("svm", [5]uint64{2}, 0, nil)[:len(section("svm", [5]uint64{2}, 0, nil))-1], flat.AppendUvarint(nil, 1<<60)...),
		"torn":                       section("svm", [5]uint64{2}, 0, []float64{1, 2, 3})[:20],
		"empty":                      nil,
		"more weights than bound":    section("svm", [5]uint64{40}, 0, w(41)),
		"kmeans k and dim swapped":   section("kmeans", [5]uint64{2, 3}, 0, w(7)),
		"mf users and items swapped": section("mf", [5]uint64{6, 0, 1, 2, 1}, 0, w(7)),
		"svm of another regularizer": section("svm", [5]uint64{2}, 0.25, w(3)),
	}
	for name, b := range cases {
		for _, tmpl := range templates {
			if m, err := DecodeSection(flat.NewReader(b), tmpl); err == nil {
				t.Errorf("%s: decoded a %s/%d", name, m.Name(), m.Dim())
			}
		}
	}
	// The valid neighbours of the cases above do decode, each against its
	// own template.
	for name, c := range map[string]struct {
		b    []byte
		tmpl Model
	}{
		"svm":        {section("svm", [5]uint64{2}, 0.5, w(3)), templates[0]},
		"kmeans":     {section("kmeans", [5]uint64{2, 2}, 0, w(5)), templates[4]},
		"kmeans 2x3": {section("kmeans", [5]uint64{3, 2}, 0, w(7)), templates[5]},
		"mf":         {section("mf", [5]uint64{4, 0, 1, 1, 1}, 0, w(5)), templates[6]},
		"mf 2x1":     {section("mf", [5]uint64{6, 0, 2, 1, 1}, 0, w(7)), templates[7]},
	} {
		if _, err := DecodeSection(flat.NewReader(c.b), c.tmpl); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

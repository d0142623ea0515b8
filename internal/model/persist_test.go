package model

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cdml/internal/flat"
	"cdml/internal/linalg"
	"cdml/internal/opt"
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

// Every model kind round-trips bit for bit, and the decoded model encodes to
// the bytes it came from.
func TestSectionRoundTripEveryKind(t *testing.T) {
	for _, m := range everyKind() {
		b := sectionOf(t, m)
		r := flat.NewReader(b)
		got, err := DecodeSection(r, len(m.Weights()))
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
		// One weight fewer than the section carries is one too few.
		if _, err := DecodeSection(flat.NewReader(b), len(m.Weights())-1); err == nil {
			t.Fatalf("%s: a section larger than the caller's bound was accepted", m.Name())
		}
	}
	if _, err := NewSection(unknownModel{NewSVM(2, 0)}); err == nil {
		t.Fatal("a model type with no encoding was given a section")
	}
}

type unknownModel struct{ *SVM }

// DecodeSection reads bytes it did not write: everything malformed is an
// error before a constructor that would panic on it is reached, and nothing
// is allocated from a number the bytes merely claim.
func TestDecodeSectionRefusesMalformedInput(t *testing.T) {
	section := func(kind string, shape [5]uint64, reg float64, weights []float64) []byte {
		b := flat.AppendString(nil, kind)
		for _, v := range shape {
			b = flat.AppendUvarint(b, v)
		}
		return flat.Scan(weights).AppendTo(flat.AppendFloat64(b, reg))
	}
	w := func(n int) []float64 { return make([]float64, n) }
	cases := map[string][]byte{
		"unknown kind":            section("forest", [5]uint64{2}, 0, w(3)),
		"dim does not fit":        section("svm", [5]uint64{3}, 0, w(3)),
		"zero dim":                section("svm", [5]uint64{0}, 0, w(1)),
		"no weights":              section("svm", [5]uint64{2}, 0, nil),
		"negative reg":            section("svm", [5]uint64{2}, -0.5, w(3)),
		"NaN reg":                 section("linreg", [5]uint64{2}, math.NaN(), w(3)),
		"infinite reg":            section("logreg", [5]uint64{2}, math.Inf(1), w(3)),
		"huge dim":                section("svm", [5]uint64{1 << 60}, 0, w(3)),
		"svm with a k":            section("svm", [5]uint64{2, 5}, 0, w(3)),
		"kmeans with a reg":       section("kmeans", [5]uint64{2, 1}, 0.5, w(3)),
		"kmeans k=0":              section("kmeans", [5]uint64{2, 0}, 0, w(1)),
		"kmeans dim=0":            section("kmeans", [5]uint64{0, 2}, 0, w(1)),
		"kmeans wrong count":      section("kmeans", [5]uint64{2, 2}, 0, w(4)),
		"mf zero factors":         section("mf", [5]uint64{6, 0, 2, 3, 0}, 0, w(6)),
		"mf zero users":           section("mf", [5]uint64{6, 0, 0, 3, 1}, 0, w(7)),
		"mf wrong dim":            section("mf", [5]uint64{5, 0, 1, 1, 1}, 0, w(5)),
		"mf wrong count":          section("mf", [5]uint64{4, 0, 1, 1, 1}, 0, w(6)),
		"a 2^60-weight block":     append(section("svm", [5]uint64{2}, 0, nil)[:len(section("svm", [5]uint64{2}, 0, nil))-1], flat.AppendUvarint(nil, 1<<60)...),
		"torn":                    section("svm", [5]uint64{2}, 0, []float64{1, 2, 3})[:20],
		"empty":                   nil,
		"more weights than bound": section("svm", [5]uint64{40}, 0, w(41)),
	}
	for name, b := range cases {
		if m, err := DecodeSection(flat.NewReader(b), 16); err == nil {
			t.Errorf("%s: decoded a %s/%d", name, m.Name(), m.Dim())
		}
	}
	// The valid neighbours of the cases above do decode.
	for name, b := range map[string][]byte{
		"svm":    section("svm", [5]uint64{2}, 0.5, w(3)),
		"kmeans": section("kmeans", [5]uint64{2, 2}, 0, w(5)),
		"mf":     section("mf", [5]uint64{4, 0, 1, 1, 1}, 0, w(5)),
	} {
		if _, err := DecodeSection(flat.NewReader(b), 16); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// Load takes one model per stream.
	two := append(sectionOf(t, NewSVM(2, 0)), sectionOf(t, NewSVM(2, 0))...)
	if _, err := Load(bytes.NewReader(two)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("two models in one stream: %v", err)
	}
}

// The v1 reader decodes the gob stream servers before the flat format wrote
// into the same model, weight for weight, as the flat section of that state,
// through the same validation.
func TestLoadV1MatchesFlat(t *testing.T) {
	for _, m := range everyKind() {
		s, err := snapshotOf(m)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(s); err != nil { // what model.Save did
			t.Fatal(err)
		}
		buf.WriteString("next section")
		got, err := LoadV1(&buf, len(m.Weights()))
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if buf.String() != "next section" {
			t.Fatalf("%s: the v1 reader read past its stream, %q left", m.Name(), buf.String())
		}
		if !bytes.Equal(sectionOf(t, got), sectionOf(t, m)) {
			t.Fatalf("%s: v1 and flat decode to different models", m.Name())
		}
		if _, err := LoadV1(bytes.NewReader(gobOf(t, s)), len(m.Weights())-1); err == nil {
			t.Fatalf("%s: a v1 model larger than the caller's bound was accepted", m.Name())
		}
	}
	for name, s := range map[string]snapshot{
		"negative reg": {Kind: "svm", Dim: 2, Reg: -1, Weights: make([]float64, 3)},
		"huge dim":     {Kind: "svm", Dim: 1 << 40, Weights: make([]float64, 3)},
		"mf no shape":  {Kind: "mf", Dim: 2, Weights: make([]float64, 3)},
	} {
		if _, err := LoadV1(bytes.NewReader(gobOf(t, s)), 16); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func gobOf(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testdata/svm-v1.model was written by SaveFile before the flat format (a
// 6-feature SVM after five Adam steps; internal/opt/testdata/adam-v1.opt is
// that optimizer): LoadFile still reads it, and what it
// saves from then on is a flat section that loads to the same model. A
// damaged file of either format is refused.
func TestLoadFileReadsAnOlderReleasesModel(t *testing.T) {
	const path = "testdata/svm-v1.model"
	m, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The state the file was written from, rebuilt here.
	want := NewSVM(6, 0.01)
	o := opt.NewAdam(0.05)
	for i := 0; i < 5; i++ {
		o.Step(want.Weights(), linalg.NewSparse(7, []int32{int32(i % 3), 4, 6}, []float64{0.5 * float64(i+1), -1.25, 0.125}))
	}
	if !bytes.Equal(sectionOf(t, m), sectionOf(t, want)) {
		t.Fatalf("loaded %T with weights %v, want %v", m, m.Weights(), want.Weights())
	}
	resaved := filepath.Join(t.TempDir(), "svm.model")
	if err := SaveFile(resaved, m); err != nil {
		t.Fatal(err)
	}
	flatBytes, err := os.ReadFile(resaved)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(flatBytes, sectionOf(t, m)) {
		t.Fatal("the file saved after loading a v1 model is not the flat section")
	}
	back, err := LoadFile(resaved)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sectionOf(t, back), sectionOf(t, m)) {
		t.Fatal("v1 file and its flat re-save load to different models")
	}

	v1, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{
		"torn v1":          v1[:len(v1)-3],
		"v1 and more":      append(append([]byte(nil), v1...), v1...),
		"torn flat":        flatBytes[:len(flatBytes)-3],
		"neither encoding": []byte("not a model"),
	} {
		if _, err := Load(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

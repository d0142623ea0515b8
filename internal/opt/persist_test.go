package opt

import (
	"bytes"
	"math"
	"testing"

	"cdml/internal/flat"
	"cdml/internal/linalg"
)

func everyKind() []Optimizer {
	return []Optimizer{NewSGD(0.1), NewMomentum(0.2), NewAdam(0.3), NewRMSProp(0.4), NewAdaDelta(), NewFTRL(0.01, 0.02)}
}

func encodeOf(t *testing.T, o Optimizer) []byte {
	t.Helper()
	b, err := Encode(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != cap(b) {
		t.Fatalf("%s: section of %d bytes sits in a buffer of %d", o.Name(), len(b), cap(b))
	}
	return b
}

func decodeOf(t *testing.T, b []byte, dim int) Optimizer {
	t.Helper()
	r := flat.NewReader(b)
	o, err := DecodeSection(r, dim)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return o
}

// Every optimizer kind round-trips, fresh and stepped: equal state encodes
// to equal bytes, the decoded optimizer encodes to the bytes it came from,
// and it steps exactly like the original. A fresh optimizer has not
// allocated its slots yet; they must come back nil, not empty — the first
// Step allocates on nil and panics on a length that is not the model's.
func TestSectionRoundTripEveryKind(t *testing.T) {
	const dim = 11
	sparse := linalg.NewSparse(dim, []int32{1, 4, 9}, []float64{0.5, -2, 1e-3})
	for _, o := range everyKind() {
		fresh := decodeOf(t, encodeOf(t, o), dim)
		if !bytes.Equal(encodeOf(t, fresh), encodeOf(t, o)) {
			t.Fatalf("%s: a fresh optimizer does not re-encode to its own bytes", o.Name())
		}
		w1, w2 := make([]float64, dim), make([]float64, dim)
		for i := 0; i < 4; i++ {
			o.Step(w1, sparse)
			fresh.Step(w2, sparse) // panics if a slot came back empty instead of nil
		}
		b := encodeOf(t, o)
		if !bytes.Equal(encodeOf(t, fresh), b) {
			t.Fatalf("%s: equal optimizers encode to different bytes", o.Name())
		}
		got := decodeOf(t, b, dim)
		if got.Name() != o.Name() || got.Steps() != o.Steps() {
			t.Fatalf("%s at step %d came back as %s at step %d", o.Name(), o.Steps(), got.Name(), got.Steps())
		}
		if !bytes.Equal(encodeOf(t, got), b) {
			t.Fatalf("%s: decoded optimizer does not re-encode to the bytes it came from", o.Name())
		}
		dense := make(linalg.Dense, dim)
		for k := range dense {
			dense[k] = 0.25 * float64(k-5)
		}
		for i := 0; i < 3; i++ {
			o.Step(w1, dense)
			got.Step(w2, dense)
		}
		for k := range w1 {
			if math.Float64bits(w1[k]) != math.Float64bits(w2[k]) {
				t.Fatalf("%s: restored optimizer diverged at %d: %v vs %v", o.Name(), k, w1[k], w2[k])
			}
		}
		// A deployment of another dimension refuses the section.
		if _, err := DecodeSection(flat.NewReader(b), dim+1); err == nil && o.Name() != "sgd" {
			t.Fatalf("%s: state of %d coordinates accepted for %d weights", o.Name(), dim, dim+1)
		}
	}
	if _, err := Encode(unknownOptimizer{NewSGD(1)}); err == nil {
		t.Fatal("an optimizer type with no encoding was encoded")
	}
}

type unknownOptimizer struct{ *SGD }

func TestDecodeSectionRefusesMalformedInput(t *testing.T) {
	section := func(kind string, hyper int, t int64, slots ...[]float64) []byte {
		b := flat.AppendString(nil, kind)
		for i := 0; i < hyper; i++ {
			b = flat.AppendFloat64(b, 0.5)
		}
		b = flat.AppendUint64(b, uint64(t))
		for _, s := range slots {
			b = flat.Scan(s).AppendTo(b)
		}
		return b
	}
	v := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i)
		}
		return out
	}
	cases := map[string][]byte{
		"unknown kind":          section("lion", 2, 1),
		"empty":                 nil,
		"torn hyperparameters":  section("adam", 4, 1, v(4), v(4))[:12],
		"one slot of two":       section("adam", 4, 1, v(4)),
		"slots of two lengths":  section("adam", 4, 1, v(4), v(3)),
		"one slot unallocated":  section("adam", 4, 1, v(4), nil),
		"other slot":            section("ftrl", 4, 1, nil, v(4)),
		"slot shorter than dim": section("momentum", 2, 1, v(3)),
		"slot longer than dim":  section("rmsprop", 3, 1, v(5)),
		"negative step count":   section("sgd", 2, -1),
		"a 2^60-float slot":     append(section("momentum", 2, 1), flat.AppendUvarint(nil, 1<<60)...),
	}
	for name, b := range cases {
		if o, err := DecodeSection(flat.NewReader(b), 4); err == nil {
			t.Errorf("%s: decoded a %s", name, o.Name())
		}
	}
	for name, b := range map[string][]byte{
		"adam":       section("adam", 4, 7, v(4), v(4)),
		"fresh adam": section("adam", 4, 0, nil, nil),
		"sgd":        section("sgd", 2, 3),
	} {
		if _, err := DecodeSection(flat.NewReader(b), 4); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Refresh with the coordinates stepped since a Copy brings that copy to the
// bytes of a fresh Copy, in place and without allocating; a copy taken
// before the first step allocated the slots is refused and left as it was.
func TestRefreshMatchesCopy(t *testing.T) {
	const dim = 11
	idx := []int32{1, 4, 9}
	sparse := linalg.NewSparse(dim, idx, []float64{0.5, -2, 1e-3})
	for _, o := range everyKind() {
		w := make([]float64, dim)
		early := Copy(o, nil)
		before := encodeOf(t, early)
		o.Step(w, sparse)
		if o.Name() != "sgd" {
			if Refresh(o, early, idx) {
				t.Fatalf("%s: refreshed a copy taken before the slots were allocated", o.Name())
			}
			if !bytes.Equal(encodeOf(t, early), before) {
				t.Fatalf("%s: a refused refresh changed the copy", o.Name())
			}
		}
		c := Copy(o, nil)
		for i := 0; i < 3; i++ {
			o.Step(w, sparse)
		}
		if !Refresh(o, c, idx) {
			t.Fatalf("%s: refused a copy of its own kind and size", o.Name())
		}
		if !bytes.Equal(encodeOf(t, c), encodeOf(t, o)) {
			t.Fatalf("%s: a refreshed copy is not the optimizer", o.Name())
		}
		if Refresh(o, Copy(NewSGD(1), nil), idx) && o.Name() != "sgd" {
			t.Fatalf("%s: refreshed a copy of another kind", o.Name())
		}
		if n := testing.AllocsPerRun(10, func() { Refresh(o, c, idx) }); n != 0 {
			t.Fatalf("%s: Refresh allocates %v times", o.Name(), n)
		}
		if n := testing.AllocsPerRun(10, func() { c = Copy(o, c) }); n != 0 {
			t.Fatalf("%s: a warm Copy allocates %v times", o.Name(), n)
		}
	}
}

package data

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"cdml/internal/linalg"
)

func TestFrameBasics(t *testing.T) {
	f := NewFrame(2)
	f.SetFloat("x", []float64{1, 2})
	f.SetString("cat", []string{"a", "b"})
	f.SetVec("v", []linalg.Vector{linalg.Dense{1}, linalg.Dense{2}})
	if f.Rows() != 2 {
		t.Fatalf("Rows = %d", f.Rows())
	}
	if !f.Has("x") || f.Has("nope") {
		t.Fatal("Has wrong")
	}
	if got := f.Columns(); len(got) != 3 || got[0] != "x" || got[2] != "v" {
		t.Fatalf("Columns = %v", got)
	}
	if f.KindOf("x") != KindFloat || f.KindOf("cat") != KindString || f.KindOf("v") != KindVec {
		t.Fatal("KindOf wrong")
	}
	if f.Float("x")[1] != 2 || f.String("cat")[0] != "a" || f.Vec("v")[1].At(0) != 2 {
		t.Fatal("accessors wrong")
	}
}

func TestFrameKindStrings(t *testing.T) {
	if KindFloat.String() != "float" || KindString.String() != "string" || KindVec.String() != "vec" {
		t.Fatal("Kind.String wrong")
	}
	if Kind(42).String() == "" {
		t.Fatal("unknown kind should render")
	}
}

func TestFrameNegativeRowsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFrame(-1)
}

func TestFrameWrongLengthPanics(t *testing.T) {
	f := NewFrame(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.SetFloat("x", []float64{1})
}

func TestFrameMissingColumnPanics(t *testing.T) {
	f := NewFrame(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.Float("ghost")
}

func TestFrameWrongKindPanics(t *testing.T) {
	f := NewFrame(1)
	f.SetFloat("x", []float64{1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.String("x")
}

func TestFrameReplaceKeepsOrder(t *testing.T) {
	f := NewFrame(1)
	f.SetFloat("a", []float64{1})
	f.SetFloat("b", []float64{2})
	f.SetFloat("a", []float64{9})
	cols := f.Columns()
	if len(cols) != 2 || cols[0] != "a" || cols[1] != "b" {
		t.Fatalf("order after replace = %v", cols)
	}
	if f.Float("a")[0] != 9 {
		t.Fatal("replace did not take")
	}
}

func TestFrameShallowCopyIsolatesColumnSet(t *testing.T) {
	f := NewFrame(1)
	f.SetFloat("a", []float64{1})
	g := f.ShallowCopy()
	g.SetFloat("b", []float64{2})
	if f.Has("b") {
		t.Fatal("ShallowCopy leaked column set")
	}
	// Storage is shared by design.
	if &f.Float("a")[0] != &g.Float("a")[0] {
		t.Fatal("ShallowCopy should share storage")
	}
}

func TestFrameSelect(t *testing.T) {
	f := NewFrame(3)
	f.SetFloat("x", []float64{1, 2, 3})
	f.SetString("s", []string{"a", "b", "c"})
	f.SetVec("v", []linalg.Vector{linalg.Dense{1}, linalg.Dense{2}, linalg.Dense{3}})
	g := f.Select([]bool{true, false, true})
	if g.Rows() != 2 {
		t.Fatalf("Rows = %d", g.Rows())
	}
	if g.Float("x")[1] != 3 || g.String("s")[1] != "c" || g.Vec("v")[1].At(0) != 3 {
		t.Fatal("Select picked wrong rows")
	}
}

// Select's one input-dependent branch, both sides. Every row kept: the
// receiver itself comes back (frames are immutable, so that is a free copy).
// Any row dropped: a new frame whose columns are the kept rows in order,
// leaving the input untouched.
func TestFrameSelectAllKeptAndRandomMasks(t *testing.T) {
	const rows = 40
	xs, ys := make([]float64, rows), make([]float64, rows)
	ss := make([]string, rows)
	vs := make([]linalg.Vector, rows)
	for i := 0; i < rows; i++ {
		xs[i], ys[i], ss[i], vs[i] = float64(i), float64(-i), fmt.Sprint(i), linalg.Dense{float64(i)}
	}
	f := NewFrame(rows).SetFloat("x", xs).SetString("s", ss).SetFloat("y", ys).SetVec("v", vs)

	all := make([]bool, rows)
	for i := range all {
		all[i] = true
	}
	if g := f.Select(all); g != f {
		t.Fatal("Select with every row kept did not return its receiver")
	}

	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		keep := make([]bool, rows)
		p := r.Float64() // from almost nothing kept to almost everything kept
		var want []int
		for i := range keep {
			if keep[i] = r.Float64() < p; keep[i] {
				want = append(want, i)
			}
		}
		if len(want) == rows {
			continue
		}
		g := f.Select(keep)
		if g == f || g.Rows() != len(want) || !reflect.DeepEqual(g.Columns(), f.Columns()) {
			t.Fatalf("mask %v: got %d rows, columns %v", keep, g.Rows(), g.Columns())
		}
		for j, i := range want {
			if g.Float("x")[j] != xs[i] || g.Float("y")[j] != ys[i] || g.String("s")[j] != ss[i] || g.Vec("v")[j].At(0) != float64(i) {
				t.Fatalf("mask %v: output row %d is not input row %d", keep, j, i)
			}
		}
	}
	if f.Rows() != rows || f.Float("x")[rows-1] != rows-1 {
		t.Fatal("Select changed its input")
	}
}

func TestFrameSelectBadMaskPanics(t *testing.T) {
	f := NewFrame(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.Select([]bool{true})
}

func TestMissingSentinel(t *testing.T) {
	if !IsMissingFloat(Missing) {
		t.Fatal("Missing should be missing")
	}
	if IsMissingFloat(0) || IsMissingFloat(math.Inf(1)) {
		t.Fatal("finite/inf values are not missing")
	}
}

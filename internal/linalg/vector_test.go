package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	return diff <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestDenseDot(t *testing.T) {
	d := Dense{1, 2, 3}
	w := []float64{4, 5, 6}
	if got := d.Dot(w); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDenseDotDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on short weights")
		}
	}()
	Dense{1, 2, 3}.Dot([]float64{1})
}

func TestDenseAt(t *testing.T) {
	d := Dense{7, 8}
	if d.At(0) != 7 || d.At(1) != 8 {
		t.Fatalf("At mismatch: %v", d)
	}
}

func TestDenseAddScaledTo(t *testing.T) {
	d := Dense{1, 2}
	dst := []float64{10, 20}
	d.AddScaledTo(dst, 2)
	if dst[0] != 12 || dst[1] != 24 {
		t.Fatalf("AddScaledTo = %v", dst)
	}
}

func TestDenseL2(t *testing.T) {
	d := Dense{3, 4}
	if got := d.L2(); got != 5 {
		t.Fatalf("L2 = %v, want 5", got)
	}
}

func TestDenseClone(t *testing.T) {
	d := Dense{1, 2}
	c := d.Clone().(Dense)
	c[0] = 99
	if d[0] != 1 {
		t.Fatal("Clone did not deep-copy")
	}
}

func TestNewSparseSortsAndMerges(t *testing.T) {
	s := NewSparse(10, []int32{5, 1, 5}, []float64{2, 3, 4})
	if s.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", s.NNZ())
	}
	if s.Idx[0] != 1 || s.Idx[1] != 5 {
		t.Fatalf("indices not sorted: %v", s.Idx)
	}
	if s.At(5) != 6 {
		t.Fatalf("duplicate indices not merged: At(5)=%v", s.At(5))
	}
}

func TestNewSparseOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range index")
		}
	}()
	NewSparse(3, []int32{3}, []float64{1})
}

func TestNewSparseLenMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on len mismatch")
		}
	}()
	NewSparse(3, []int32{1, 2}, []float64{1})
}

func TestSparseAt(t *testing.T) {
	s := NewSparse(8, []int32{2, 6}, []float64{1.5, -3})
	cases := map[int]float64{0: 0, 2: 1.5, 3: 0, 6: -3, 7: 0}
	for i, want := range cases {
		if got := s.At(i); got != want {
			t.Errorf("At(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestSparseAtPanics(t *testing.T) {
	s := NewSparse(4, nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.At(4)
}

func TestSparseDotMatchesDense(t *testing.T) {
	s := NewSparse(6, []int32{0, 3, 5}, []float64{1, 2, 3})
	w := []float64{1, 1, 1, 10, 1, 100}
	want := s.ToDense().Dot(w)
	if got := s.Dot(w); got != want {
		t.Fatalf("sparse Dot = %v, dense Dot = %v", got, want)
	}
}

func TestSparseScale(t *testing.T) {
	s := NewSparse(3, []int32{1}, []float64{4})
	s.Scale(0.5)
	if s.At(1) != 2 {
		t.Fatalf("Scale wrong: %v", s.At(1))
	}
}

func TestSparseClone(t *testing.T) {
	s := NewSparse(3, []int32{1}, []float64{4})
	c := s.Clone().(*Sparse)
	c.Val[0] = 99
	if s.Val[0] != 4 {
		t.Fatal("Clone did not deep-copy")
	}
}

// randomSparse builds a reproducible random sparse vector for property tests.
func randomSparse(r *rand.Rand, dim, nnz int) *Sparse {
	idx := make([]int32, nnz)
	val := make([]float64, nnz)
	for i := range idx {
		idx[i] = int32(r.Intn(dim))
		val[i] = r.NormFloat64()
	}
	return NewSparse(dim, idx, val)
}

// Property: sparse operations agree with their dense expansions.
func TestQuickSparseDenseAgreement(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(64)
		s := randomSparse(r, dim, r.Intn(2*dim))
		d := s.ToDense()
		w := make([]float64, dim)
		for i := range w {
			w[i] = r.NormFloat64()
		}
		if !almostEqual(s.Dot(w), d.Dot(w), 1e-9) {
			return false
		}
		if !almostEqual(s.L2(), d.L2(), 1e-9) {
			return false
		}
		dst1 := make([]float64, dim)
		dst2 := make([]float64, dim)
		s.AddScaledTo(dst1, 2.5)
		d.AddScaledTo(dst2, 2.5)
		for i := range dst1 {
			if !almostEqual(dst1[i], dst2[i], 1e-9) {
				return false
			}
		}
		for i := 0; i < dim; i++ {
			if !almostEqual(s.At(i), d.At(i), 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: NewSparse output always has strictly increasing indices.
func TestQuickNewSparseSorted(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(128)
		s := randomSparse(r, dim, r.Intn(3*dim))
		for k := 1; k < len(s.Idx); k++ {
			if s.Idx[k] <= s.Idx[k-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOpsScaleDot(t *testing.T) {
	x := []float64{1, 2}
	y := []float64{12, 24}
	Scale(0.5, y)
	if y[0] != 6 || y[1] != 12 {
		t.Fatalf("Scale = %v", y)
	}
	if got := DotDense(x, y); got != 30 {
		t.Fatalf("DotDense = %v, want 30", got)
	}
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Fatalf("Norm2 = %v", got)
	}
}

func TestZeroAndCopyOf(t *testing.T) {
	x := []float64{1, 2, 3}
	c := CopyOf(x)
	zero(x)
	if x[0] != 0 || x[2] != 0 {
		t.Fatalf("Zero failed: %v", x)
	}
	if c[0] != 1 || c[2] != 3 {
		t.Fatalf("CopyOf affected by Zero: %v", c)
	}
}

func TestAccumulatorSparseOnly(t *testing.T) {
	a := newAccumulator(6)
	a.Add(NewSparse(6, []int32{1, 4}, []float64{1, 2}), 1)
	a.Add(NewSparse(6, []int32{1, 3}, []float64{3, 4}), 2)
	res := a.Result(0.5)
	s, ok := res.(*Sparse)
	if !ok {
		t.Fatalf("expected sparse result, got %T", res)
	}
	if got := s.At(1); !almostEqual(got, 3.5, 1e-12) { // (1 + 6) * 0.5
		t.Fatalf("At(1) = %v, want 3.5", got)
	}
	if got := s.At(3); !almostEqual(got, 4, 1e-12) {
		t.Fatalf("At(3) = %v, want 4", got)
	}
	if got := s.At(4); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("At(4) = %v, want 1", got)
	}
}

func TestAccumulatorDensePromotion(t *testing.T) {
	a := newAccumulator(3)
	a.Add(NewSparse(3, []int32{0}, []float64{1}), 1)
	a.Add(Dense{0, 1, 0}, 1)
	res := a.Result(1)
	if _, ok := res.(Dense); !ok {
		t.Fatalf("expected dense result, got %T", res)
	}
	if res.At(0) != 1 || res.At(1) != 1 {
		t.Fatalf("wrong result: %v", res)
	}
}

func TestAccumulatorReuseAfterReset(t *testing.T) {
	a := newAccumulator(4)
	a.Add(NewSparse(4, []int32{2}, []float64{5}), 1)
	_ = a.Result(1)
	a.Add(NewSparse(4, []int32{1}, []float64{7}), 1)
	res := a.Result(1)
	if res.At(2) != 0 {
		t.Fatalf("stale state after reset: At(2)=%v", res.At(2))
	}
	if res.At(1) != 7 {
		t.Fatalf("At(1)=%v, want 7", res.At(1))
	}
}

func TestAccumulatorReuseAfterDenseReset(t *testing.T) {
	a := newAccumulator(3)
	a.Add(Dense{1, 2, 3}, 1)
	_ = a.Result(1)
	a.Add(NewSparse(3, []int32{0}, []float64{1}), 1)
	res := a.Result(1)
	if res.At(1) != 0 || res.At(2) != 0 {
		t.Fatalf("stale dense state after reset: %v", res)
	}
}

func TestAccumulatorAddCoord(t *testing.T) {
	a := newAccumulator(3)
	a.AddCoord(2, 1.5)
	a.AddCoord(2, 0.5)
	res := a.Result(2)
	if res.At(2) != 4 {
		t.Fatalf("At(2)=%v, want 4", res.At(2))
	}
}

// Property: accumulating k sparse vectors then extracting equals the dense sum.
func TestQuickAccumulatorMatchesDenseSum(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(32)
		k := 1 + r.Intn(8)
		a := newAccumulator(dim)
		want := make([]float64, dim)
		for j := 0; j < k; j++ {
			s := randomSparse(r, dim, r.Intn(dim+1))
			alpha := r.NormFloat64()
			a.Add(s, alpha)
			s.AddScaledTo(want, alpha)
		}
		scale := r.NormFloat64()
		got := a.Result(scale)
		for i := 0; i < dim; i++ {
			if !almostEqual(got.At(i), want[i]*scale, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// sameVector reports whether two accumulator results are the same vector
// bit for bit: same representation, same stored coordinates, same float
// bits.
func sameVector(a, b Vector) bool {
	switch x := a.(type) {
	case Dense:
		y, ok := b.(Dense)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	case *Sparse:
		y, ok := b.(*Sparse)
		if !ok || x.N != y.N || len(x.Idx) != len(y.Idx) {
			return false
		}
		for k := range x.Idx {
			if x.Idx[k] != y.Idx[k] || math.Float64bits(x.Val[k]) != math.Float64bits(y.Val[k]) {
				return false
			}
		}
		return true
	}
	return false
}

// TestAccumulatorReuseAfterDense is the regression test for the reset that
// forgot the seen marks of a dense round: a gradient over dense rows marks
// the intercept through AddCoord, and the next sparse round on the same
// accumulator then left the intercept out of its Result.
func TestAccumulatorReuseAfterDense(t *testing.T) {
	const dim, intercept = 5, 4
	round := func(a *Accumulator) Vector {
		a.Add(NewSparse(dim, []int32{1, 3}, []float64{0.25, -2}), 3)
		a.AddCoord(intercept, 3)
		a.Add(NewSparse(dim, []int32{0, 3}, []float64{1.5, 0.125}), -1)
		a.AddCoord(intercept, -1)
		return a.Result(0.5)
	}
	reused := newAccumulator(dim)
	reused.Add(Dense{1, 2, 3, 4, 0}, 2)
	reused.AddCoord(intercept, 2)
	if _, ok := reused.Result(1).(Dense); !ok {
		t.Fatal("dense round did not produce a dense result")
	}
	got, want := round(reused), round(newAccumulator(dim))
	if !sameVector(got, want) {
		t.Fatalf("sparse round after a dense one = %v, a fresh accumulator gives %v", got, want)
	}
}

// Property: one accumulator reused over any sequence of rounds — each a
// random interleaving of dense adds, sparse adds and AddCoord — returns
// round by round exactly what a fresh accumulator returns, whether it is
// kept by the caller or goes through Acquire/Release at varying dimensions.
func TestQuickAccumulatorReuseMatchesFresh(t *testing.T) {
	play := func(r *rand.Rand, dim int, accs ...*Accumulator) {
		for ops := 1 + r.Intn(6); ops > 0; ops-- {
			alpha := r.NormFloat64()
			switch r.Intn(4) {
			case 0:
				d := make(Dense, dim)
				for i := range d {
					d[i] = r.NormFloat64()
				}
				for _, a := range accs {
					a.Add(d, alpha)
				}
			case 1:
				i := r.Intn(dim)
				for _, a := range accs {
					a.AddCoord(i, alpha)
				}
			default:
				s := randomSparse(r, dim, r.Intn(dim+1))
				for _, a := range accs {
					a.Add(s, alpha)
				}
			}
		}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		maxDim := 1 + r.Intn(24)
		kept := newAccumulator(maxDim)
		for round := 0; round < 8; round++ {
			scale := r.NormFloat64()
			// Same dimension on the kept accumulator.
			fresh := newAccumulator(maxDim)
			play(r, maxDim, kept, fresh)
			if !sameVector(kept.Result(scale), fresh.Result(scale)) {
				return false
			}
			// Varying dimension through the recycling.
			dim := 1 + r.Intn(maxDim)
			pooled, fresh := AcquireAccumulator(dim), newAccumulator(dim)
			if len(pooled.buf) != dim {
				return false
			}
			play(r, dim, pooled, fresh)
			got := pooled.Result(scale)
			pooled.Release()
			if !sameVector(got, fresh.Result(scale)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseCleansAnUnfinishedRound: an accumulator released without
// Result (a caller that bailed out) must not leak its partial sums into
// the next acquirer.
func TestReleaseCleansAnUnfinishedRound(t *testing.T) {
	a := AcquireAccumulator(4)
	a.Add(Dense{1, 2, 3, 4}, 1)
	a.AddCoord(3, 1)
	a.Release()
	for i := 0; i < 4; i++ { // whichever accumulator comes back, it is clean
		b := AcquireAccumulator(4)
		b.AddCoord(0, 1)
		res := b.Result(1)
		b.Release()
		if s, ok := res.(*Sparse); !ok || len(s.Idx) != 1 || s.At(0) != 1 {
			t.Fatalf("acquired accumulator was not clean: %v", res)
		}
	}
}

func TestStringRenderings(t *testing.T) {
	if got := (Dense{1, 2}).String(); got == "" {
		t.Fatal("empty dense string")
	}
	if got := NewSparse(4, []int32{1}, []float64{2}).String(); got == "" {
		t.Fatal("empty sparse string")
	}
}

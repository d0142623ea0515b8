package linalg

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// sameSparse reports whether two sparse vectors are equal bit for bit.
func sameSparse(a, b *Sparse) bool {
	if a.N != b.N || len(a.Idx) != len(b.Idx) || len(a.Val) != len(b.Val) {
		return false
	}
	for k := range a.Idx {
		if a.Idx[k] != b.Idx[k] || math.Float64bits(a.Val[k]) != math.Float64bits(b.Val[k]) {
			return false
		}
	}
	return true
}

// randomRow draws a row of n entries: already in strictly increasing index
// order when sorted is set, otherwise in random order with repeated indices.
func randomRow(r *rand.Rand, dim, n int, sorted bool) ([]int32, []float64) {
	idx := make([]int32, n)
	val := make([]float64, n)
	if sorted {
		for k, i := range r.Perm(dim)[:n] {
			idx[k] = int32(i)
		}
		for k := 1; k < n; k++ { // insertion sort: n is small
			for j := k; j > 0 && idx[j-1] > idx[j]; j-- {
				idx[j-1], idx[j] = idx[j], idx[j-1]
			}
		}
	} else {
		for k := range idx {
			idx[k] = int32(r.Intn(dim))
		}
	}
	for k := range val {
		val[k] = r.NormFloat64() * math.Pow(10, float64(r.Intn(7)-3))
	}
	return idx, val
}

// Property: whatever order the entries arrive in, and on both sides of the
// insertion-sort threshold, every row of a batch equals NewSparse over the
// same entries bit for bit — duplicates included, because both sum them in
// input order.
func TestQuickSparseBatchMatchesNewSparse(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const dim = 97
		rows := 1 + r.Intn(12)
		type row struct {
			idx []int32
			val []float64
		}
		in := make([]row, rows)
		nnz := 0
		for i := range in {
			n := r.Intn(20)
			if r.Intn(4) == 0 {
				n = insertionSortMax + 1 + r.Intn(100) // the sort.Stable side
			}
			sorted := r.Intn(2) == 0
			if sorted {
				n = min(n, dim)
			}
			in[i].idx, in[i].val = randomRow(r, dim, n, sorted)
			nnz += n
		}
		b := NewSparseBatch(dim, rows, nnz)
		got := make([]*Sparse, rows)
		for i, rw := range in {
			for k := range rw.idx {
				b.Add(rw.idx[k], rw.val[k])
			}
			got[i] = b.EndRow()
		}
		for i, rw := range in {
			if !sameSparse(got[i], NewSparse(dim, rw.idx, rw.val)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The two input-dependent branches of EndRow, one test on each side: a row
// in strictly increasing order is taken as it is, any other is sorted and
// its duplicates summed in the order they were added.
func TestSparseBatchSortedAndUnsortedRows(t *testing.T) {
	b := NewSparseBatch(10, 3, 9)
	b.Add(1, 1)
	b.Add(4, 2)
	b.Add(9, 3)
	sorted := b.EndRow()
	b.Add(7, 1e16)
	b.Add(2, 5)
	b.Add(7, 1)
	b.Add(7, -1e16)
	unsorted := b.EndRow()
	empty := b.EndRow()

	if !reflect.DeepEqual(sorted.Idx, []int32{1, 4, 9}) || !reflect.DeepEqual(sorted.Val, []float64{1, 2, 3}) {
		t.Fatalf("sorted row changed: %v", sorted)
	}
	// (1e16 + 1) − 1e16 in emission order is 0: the 1 is absorbed first. Any
	// other order of the three gives 1 or 2.
	if !reflect.DeepEqual(unsorted.Idx, []int32{2, 7}) || !reflect.DeepEqual(unsorted.Val, []float64{5, 0}) {
		t.Fatalf("unsorted row = %v, want idx [2 7] val [5 0]", unsorted)
	}
	if empty.N != 10 || empty.NNZ() != 0 {
		t.Fatalf("empty row = %v", empty)
	}
}

// Appending to one row's Idx or Val never reaches the next row: each row's
// capacity is clipped to its length, so the append reallocates.
func TestSparseBatchRowsAreCapacityClipped(t *testing.T) {
	b := NewSparseBatch(100, 3, 6)
	rows := make([]*Sparse, 3)
	for i := range rows {
		b.Add(int32(10*i), float64(i))
		b.Add(int32(10*i+1), float64(i)+0.5)
		rows[i] = b.EndRow()
	}
	want := rows[1].Clone().(*Sparse)
	for _, r := range rows {
		if cap(r.Idx) != len(r.Idx) || cap(r.Val) != len(r.Val) {
			t.Fatalf("row capacity not clipped: idx %d/%d val %d/%d", len(r.Idx), cap(r.Idx), len(r.Val), cap(r.Val))
		}
	}
	rows[0].Idx = append(rows[0].Idx, 99)
	rows[0].Val = append(rows[0].Val, 99)
	if !sameSparse(rows[1], want) {
		t.Fatalf("append on row 0 changed row 1: %v, want %v", rows[1], want)
	}
}

// A batch sized by exact counts costs three allocations however many rows it
// holds; undercounting costs reallocations but never correctness, and rows
// sealed before a reallocation keep their contents.
func TestSparseBatchAllocations(t *testing.T) {
	build := func(rows, declaredRows, declaredNNZ int) []*Sparse {
		b := NewSparseBatch(1000, declaredRows, declaredNNZ)
		out := make([]*Sparse, rows)
		for i := range out {
			b.Add(int32(i), 1)
			b.Add(int32(i+1), 2)
			out[i] = b.EndRow()
		}
		return out
	}
	for _, rows := range []int{8, 512} {
		// One more than the batch's three: the caller's own result slice.
		if got := testing.AllocsPerRun(20, func() { build(rows, rows, 2*rows) }); got != 4 {
			t.Fatalf("%d rows: %v allocations, want 4", rows, got)
		}
	}
	for i, r := range build(50, 1, 1) {
		if !sameSparse(r, NewSparse(1000, []int32{int32(i), int32(i + 1)}, []float64{1, 2})) {
			t.Fatalf("undercounted batch: row %d = %v", i, r)
		}
	}
}

func TestSparseBatchOutOfRangePanics(t *testing.T) {
	for _, i := range []int32{-1, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Add(%d) on a 5-dimensional batch did not panic", i)
				}
			}()
			b := NewSparseBatch(5, 1, 1)
			b.Add(i, 1)
		}()
	}
}

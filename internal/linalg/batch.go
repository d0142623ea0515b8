package linalg

import (
	"fmt"
	"sort"
)

// SparseBatch builds a whole column of sparse row vectors of one dimension
// in three allocations — one []Sparse header array, one []int32 and one
// []float64 — instead of NewSparse's five per row. Rows are filled one at a
// time: Add appends an entry to the open row, EndRow seals it and opens the
// next.
//
// A sealed row's Idx and Val are sub-slices of the shared backing arrays
// with their capacity clipped to their length, so an append on one row
// reallocates instead of writing into its neighbour. The rows still share
// their backing: keeping any one of them alive keeps the whole batch alive.
type SparseBatch struct {
	dim  int
	rows []Sparse
	idx  []int32
	val  []float64
	open int // where the open row starts in idx and val
}

// NewSparseBatch returns a builder for rows vectors of dimension dim holding
// nnz entries in total, counted before merging duplicates. Both counts size
// the three allocations; exceeding either costs a reallocation, never
// correctness (rows sealed earlier keep the backing they were cut from).
//
//cdml:deterministic
func NewSparseBatch(dim, rows, nnz int) SparseBatch {
	return SparseBatch{
		dim:  dim,
		rows: make([]Sparse, 0, rows),
		idx:  make([]int32, 0, nnz),
		val:  make([]float64, 0, nnz),
	}
}

// Add appends the entry (i, v) to the open row. Entries may arrive in any
// order and repeat an index; explicit zeros are kept, as in NewSparse.
//
//cdml:deterministic
func (b *SparseBatch) Add(i int32, v float64) {
	if i < 0 || int(i) >= b.dim {
		panic(fmt.Sprintf("linalg: SparseBatch.Add: index %d out of range [0,%d)", i, b.dim))
	}
	b.idx = append(b.idx, i)
	b.val = append(b.val, v)
}

// EndRow seals the open row and returns it; the result equals
// NewSparse(dim, idx, val) over the entries added since the previous EndRow.
// A row whose indices were added in strictly increasing order — what the
// assembler and the one-hot encoder emit by construction — is taken as it
// is. Any other row is sorted in place by a stable sort, so entries sharing
// an index are summed in the order they were added.
//
//cdml:deterministic
func (b *SparseBatch) EndRow() *Sparse {
	idx, val := b.idx[b.open:], b.val[b.open:]
	if !strictlyIncreasing(idx) {
		sortEntries(idx, val)
		n := sumDuplicates(idx, val)
		b.idx, b.val = b.idx[:b.open+n], b.val[:b.open+n]
	}
	end := len(b.idx)
	b.rows = append(b.rows, Sparse{N: b.dim, Idx: b.idx[b.open:end:end], Val: b.val[b.open:end:end]})
	b.open = end
	return &b.rows[len(b.rows)-1]
}

func strictlyIncreasing(idx []int32) bool {
	for k := 1; k < len(idx); k++ {
		if idx[k-1] >= idx[k] {
			return false
		}
	}
	return true
}

// insertionSortMax bounds the rows sorted by insertion: quadratic in the row
// length, and the fastest stable sort for the few dozen entries a hashed
// record has. Longer rows — a request body is client-controlled — go through
// sort.Stable. Both are stable, so the result does not depend on which ran.
const insertionSortMax = 64

func sortEntries(idx []int32, val []float64) {
	if len(idx) > insertionSortMax {
		sort.Stable(&entrySorter{idx, val})
		return
	}
	for k := 1; k < len(idx); k++ {
		i, v := idx[k], val[k]
		j := k
		for ; j > 0 && idx[j-1] > i; j-- {
			idx[j], val[j] = idx[j-1], val[j-1]
		}
		idx[j], val[j] = i, v
	}
}

// entrySorter sorts parallel index and value slices by index.
type entrySorter struct {
	idx []int32
	val []float64
}

func (s *entrySorter) Len() int           { return len(s.idx) }
func (s *entrySorter) Less(a, b int) bool { return s.idx[a] < s.idx[b] }
func (s *entrySorter) Swap(a, b int) {
	s.idx[a], s.idx[b] = s.idx[b], s.idx[a]
	s.val[a], s.val[b] = s.val[b], s.val[a]
}

// sumDuplicates folds runs of equal indices in sorted entries into their
// first entry, in order, and returns the number of entries left.
func sumDuplicates(idx []int32, val []float64) int {
	w := 0
	for k := range idx {
		if w > 0 && idx[w-1] == idx[k] {
			val[w-1] += val[k]
			continue
		}
		idx[w], val[w] = idx[k], val[k]
		w++
	}
	return w
}

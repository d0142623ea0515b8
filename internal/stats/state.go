package stats

import (
	"fmt"

	"cdml/internal/flat"
)

// Snapshot-payload encodings (internal/flat, DESIGN.md §5n) of the two
// statistics pipeline components persist. Equal state is equal bytes.

// WelfordStateSize is the encoded size of a Welford: n, mean and m2 as three
// 64-bit scalars.
const WelfordStateSize = 24

// AppendState appends the statistic to dst.
func (w *Welford) AppendState(dst []byte) []byte {
	dst = flat.AppendUint64(dst, uint64(w.n))
	dst = flat.AppendFloat64(dst, w.mean)
	return flat.AppendFloat64(dst, w.m2)
}

// LoadState reads what AppendState wrote.
func (w *Welford) LoadState(r *flat.Reader) {
	n, mean, m2 := int64(r.Uint64()), r.Float64(), r.Float64()
	if n < 0 {
		r.Failf("Welford count %d", n)
	}
	if r.Err() == nil {
		w.n, w.mean, w.m2 = n, mean, m2
	}
}

// StateSize is the number of bytes AppendState appends.
func (c *Categorical) StateSize() int {
	n := flat.UvarintSize(uint64(len(c.order)))
	for _, v := range c.order {
		n += flat.StringSize(v) + 8
	}
	return n
}

// AppendState appends the values in ordinal order, each with its count; the
// ordinals are the positions and the total is the counts' sum.
func (c *Categorical) AppendState(dst []byte) []byte {
	dst = flat.AppendUvarint(dst, uint64(len(c.order)))
	for _, v := range c.order {
		dst = flat.AppendUint64(flat.AppendString(dst, v), uint64(c.counts[v]))
	}
	return dst
}

// LoadState reads what AppendState wrote, replacing the statistic.
func (c *Categorical) LoadState(r *flat.Reader) {
	// Every value costs at least 9 bytes, which bounds the count by the
	// input before anything is sized from it.
	n := r.Count(r.Remaining()/9, "categorical values")
	order, counts := make([]string, 0, n), make([]int64, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		order = append(order, r.String())
		counts = append(counts, int64(r.Uint64()))
	}
	if r.Err() == nil {
		if err := c.restore(order, counts); err != nil {
			r.Failf("%v", err)
		}
	}
}

// restore rebuilds the statistic from its values in ordinal order and their
// counts. A repeated value has no ordinal of its own and is refused, and so
// is a negative count or a total past int64: Observe produces neither, and
// the imputer's mode would rest on them.
func (c *Categorical) restore(order []string, counts []int64) error {
	if len(counts) != len(order) {
		return fmt.Errorf("stats: Categorical has %d counts for %d values", len(counts), len(order))
	}
	n := Categorical{
		ordinal: make(map[string]int, len(order)),
		counts:  make(map[string]int64, len(order)),
		order:   order,
	}
	for i, v := range order {
		if _, dup := n.ordinal[v]; dup {
			return fmt.Errorf("stats: Categorical value %q appears twice", v)
		}
		if counts[i] < 0 || n.total+counts[i] < 0 {
			return fmt.Errorf("stats: Categorical value %q has count %d on a total of %d", v, counts[i], n.total)
		}
		n.ordinal[v] = i
		n.counts[v] = counts[i]
		n.total += counts[i]
	}
	*c = n
	return nil
}

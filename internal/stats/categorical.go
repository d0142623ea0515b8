package stats

// Categorical maintains the incrementally updatable hash table behind the
// one-hot encoder: the set of distinct values seen in a categorical column,
// each mapped to a stable ordinal assigned in first-seen order, plus
// occurrence counts.
type Categorical struct {
	ordinal map[string]int
	counts  map[string]int64
	order   []string // values in first-seen order; ordinal i is order[i]
	total   int64
}

// NewCategorical returns an empty categorical statistic.
func NewCategorical() *Categorical {
	return &Categorical{
		ordinal: make(map[string]int),
		counts:  make(map[string]int64),
	}
}

// Observe folds a value into the statistic and returns its ordinal.
func (c *Categorical) Observe(v string) int {
	c.total++
	c.counts[v]++
	if ord, ok := c.ordinal[v]; ok {
		return ord
	}
	ord := len(c.order)
	c.ordinal[v] = ord
	c.order = append(c.order, v)
	return ord
}

// Ordinal returns the ordinal of v and whether v has been observed.
func (c *Categorical) Ordinal(v string) (int, bool) {
	ord, ok := c.ordinal[v]
	return ord, ok
}

// Cardinality returns the number of distinct observed values.
func (c *Categorical) Cardinality() int { return len(c.order) }

// Values returns the distinct values in first-seen order. The slice is a
// copy.
func (c *Categorical) Values() []string {
	return append([]string(nil), c.order...)
}

// MostFrequent returns the value with the highest count (ties broken by
// first-seen order) and false if nothing was observed. It backs the
// missing-value imputer for categorical columns.
func (c *Categorical) MostFrequent() (string, bool) {
	if len(c.order) == 0 {
		return "", false
	}
	best := c.order[0]
	for _, v := range c.order[1:] {
		if c.counts[v] > c.counts[best] {
			best = v
		}
	}
	return best, true
}

// Clone returns a deep copy of the statistic. It backs the pipeline
// snapshot contract: the copy can keep serving Ordinal lookups while the
// original continues to Observe new values.
func (c *Categorical) Clone() *Categorical {
	n := &Categorical{
		ordinal: make(map[string]int, len(c.ordinal)),
		counts:  make(map[string]int64, len(c.counts)),
		order:   append([]string(nil), c.order...),
		total:   c.total,
	}
	for k, v := range c.ordinal {
		n.ordinal[k] = v
	}
	for k, v := range c.counts {
		n.counts[k] = v
	}
	return n
}

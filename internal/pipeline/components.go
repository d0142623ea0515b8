package pipeline

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"cdml/internal/data"
	"cdml/internal/linalg"
	"cdml/internal/stats"
)

// Imputer replaces missing values using incrementally maintained statistics:
// the running mean for float columns and the most frequent value for string
// columns (paper §3.1 lists imputation among the incrementally supported
// components).
type Imputer struct {
	// FloatCols are the numeric columns to impute with the running mean.
	FloatCols []string
	// StringCols are the categorical columns to impute with the mode.
	StringCols []string

	means map[string]*stats.Welford
	modes map[string]*stats.Categorical
}

// NewImputer returns an imputer over the given columns.
func NewImputer(floatCols, stringCols []string) *Imputer {
	im := &Imputer{
		FloatCols:  floatCols,
		StringCols: stringCols,
		means:      make(map[string]*stats.Welford),
		modes:      make(map[string]*stats.Categorical),
	}
	for _, c := range floatCols {
		im.means[c] = &stats.Welford{}
	}
	for _, c := range stringCols {
		im.modes[c] = stats.NewCategorical()
	}
	return im
}

// Name implements Component.
func (im *Imputer) Name() string { return "imputer" }

// Stateless implements Component.
func (im *Imputer) Stateless() bool { return false }

// Update implements Component: non-missing cells feed the statistics.
func (im *Imputer) Update(f *data.Frame) error {
	for _, c := range im.FloatCols {
		w := im.means[c]
		for _, v := range f.Float(c) {
			if !data.IsMissingFloat(v) {
				w.Observe(v)
			}
		}
	}
	for _, c := range im.StringCols {
		m := im.modes[c]
		for _, v := range f.String(c) {
			if v != "" {
				m.Observe(v)
			}
		}
	}
	return nil
}

// Snapshot implements Component: deep-copies the running means and modes.
func (im *Imputer) Snapshot() Component {
	c := &Imputer{
		FloatCols:  im.FloatCols,
		StringCols: im.StringCols,
		means:      make(map[string]*stats.Welford, len(im.means)),
		modes:      make(map[string]*stats.Categorical, len(im.modes)),
	}
	for k, w := range im.means {
		cw := *w
		c.means[k] = &cw
	}
	for k, m := range im.modes {
		c.modes[k] = m.Clone()
	}
	return c
}

// Transform implements Component.
func (im *Imputer) Transform(f *data.Frame) (*data.Frame, error) {
	g := f.ShallowCopy()
	for _, c := range im.FloatCols {
		src := f.Float(c)
		fill := im.means[c].Mean()
		out := make([]float64, len(src))
		for i, v := range src {
			if data.IsMissingFloat(v) {
				out[i] = fill
			} else {
				out[i] = v
			}
		}
		g.SetFloat(c, out)
	}
	for _, c := range im.StringCols {
		src := f.String(c)
		fill, _ := im.modes[c].MostFrequent()
		out := make([]string, len(src))
		for i, v := range src {
			if v == "" {
				out[i] = fill
			} else {
				out[i] = v
			}
		}
		g.SetString(c, out)
	}
	return g, nil
}

// StandardScaler standardizes float columns to zero mean and unit variance
// using incrementally maintained moments. Columns with zero variance map to
// zero.
type StandardScaler struct {
	// Cols are the numeric columns to scale.
	Cols []string

	moments map[string]*stats.Welford
}

// NewStandardScaler returns a scaler over the given columns.
func NewStandardScaler(cols []string) *StandardScaler {
	s := &StandardScaler{Cols: cols, moments: make(map[string]*stats.Welford)}
	for _, c := range cols {
		s.moments[c] = &stats.Welford{}
	}
	return s
}

// Name implements Component.
func (s *StandardScaler) Name() string { return "standard-scaler" }

// Stateless implements Component.
func (s *StandardScaler) Stateless() bool { return false }

// Update implements Component.
func (s *StandardScaler) Update(f *data.Frame) error {
	for _, c := range s.Cols {
		w := s.moments[c]
		for _, v := range f.Float(c) {
			if !data.IsMissingFloat(v) {
				w.Observe(v)
			}
		}
	}
	return nil
}

// Snapshot implements Component: deep-copies the running moments.
func (s *StandardScaler) Snapshot() Component {
	c := &StandardScaler{Cols: s.Cols, moments: make(map[string]*stats.Welford, len(s.moments))}
	for k, w := range s.moments {
		cw := *w
		c.moments[k] = &cw
	}
	return c
}

// Transform implements Component.
func (s *StandardScaler) Transform(f *data.Frame) (*data.Frame, error) {
	g := f.ShallowCopy()
	for _, c := range s.Cols {
		w := s.moments[c]
		mean, std := w.Mean(), w.Std()
		src := f.Float(c)
		out := make([]float64, len(src))
		for i, v := range src {
			if std > 0 {
				out[i] = (v - mean) / std
			}
		}
		g.SetFloat(c, out)
	}
	return g, nil
}

// MinMaxScaler rescales float columns to [0, 1] using incrementally
// maintained minima and maxima.
type MinMaxScaler struct {
	// Cols are the numeric columns to scale.
	Cols []string

	min map[string]float64
	max map[string]float64
}

// NewMinMaxScaler returns a min-max scaler over the given columns.
func NewMinMaxScaler(cols []string) *MinMaxScaler {
	s := &MinMaxScaler{Cols: cols, min: make(map[string]float64), max: make(map[string]float64)}
	for _, c := range cols {
		s.min[c] = math.Inf(1)
		s.max[c] = math.Inf(-1)
	}
	return s
}

// Name implements Component.
func (s *MinMaxScaler) Name() string { return "minmax-scaler" }

// Stateless implements Component.
func (s *MinMaxScaler) Stateless() bool { return false }

// Update implements Component.
func (s *MinMaxScaler) Update(f *data.Frame) error {
	for _, c := range s.Cols {
		for _, v := range f.Float(c) {
			if data.IsMissingFloat(v) {
				continue
			}
			if v < s.min[c] {
				s.min[c] = v
			}
			if v > s.max[c] {
				s.max[c] = v
			}
		}
	}
	return nil
}

// Snapshot implements Component: deep-copies the running minima and maxima.
func (s *MinMaxScaler) Snapshot() Component {
	c := &MinMaxScaler{Cols: s.Cols, min: make(map[string]float64, len(s.min)), max: make(map[string]float64, len(s.max))}
	for k, v := range s.min {
		c.min[k] = v
	}
	for k, v := range s.max {
		c.max[k] = v
	}
	return c
}

// Transform implements Component. Values outside the observed range clamp to
// [0, 1]; a constant column maps to 0.
func (s *MinMaxScaler) Transform(f *data.Frame) (*data.Frame, error) {
	g := f.ShallowCopy()
	for _, c := range s.Cols {
		lo, hi := s.min[c], s.max[c]
		src := f.Float(c)
		out := make([]float64, len(src))
		for i, v := range src {
			if hi > lo {
				x := (v - lo) / (hi - lo)
				out[i] = math.Min(1, math.Max(0, x))
			}
		}
		g.SetFloat(c, out)
	}
	return g, nil
}

// OneHotEncoder expands a categorical string column into a sparse indicator
// vector. Its statistic is the incrementally updatable value→ordinal hash
// table of paper §3.1. The output dimension is fixed at construction so the
// downstream model dimension never changes mid-deployment; categories beyond
// Size wrap around via modulo (in practice Size is chosen above the expected
// cardinality).
type OneHotEncoder struct {
	// Col is the categorical column to encode.
	Col string
	// Out is the name of the produced vector column.
	Out string
	// Size is the fixed output dimensionality.
	Size int

	domain *stats.Categorical
}

// NewOneHotEncoder returns a one-hot encoder producing a size-dimensional
// indicator column named out.
func NewOneHotEncoder(col, out string, size int) *OneHotEncoder {
	if size <= 0 {
		panic(fmt.Sprintf("pipeline: one-hot size must be positive, got %d", size))
	}
	return &OneHotEncoder{Col: col, Out: out, Size: size, domain: stats.NewCategorical()}
}

// Name implements Component.
func (o *OneHotEncoder) Name() string { return "one-hot" }

// Stateless implements Component.
func (o *OneHotEncoder) Stateless() bool { return false }

// Update implements Component.
func (o *OneHotEncoder) Update(f *data.Frame) error {
	for _, v := range f.String(o.Col) {
		if v != "" {
			o.domain.Observe(v)
		}
	}
	return nil
}

// Snapshot implements Component: deep-copies the value→ordinal table.
func (o *OneHotEncoder) Snapshot() Component {
	return &OneHotEncoder{Col: o.Col, Out: o.Out, Size: o.Size, domain: o.domain.Clone()}
}

// Transform implements Component. Unseen or missing values encode as the
// all-zero vector.
func (o *OneHotEncoder) Transform(f *data.Frame) (*data.Frame, error) {
	src := f.String(o.Col)
	out := make([]linalg.Vector, len(src))
	b := linalg.NewSparseBatch(o.Size, len(src), len(src)) // at most one entry per row
	for i, v := range src {
		if ord, ok := o.domain.Ordinal(v); ok {
			b.Add(int32(ord%o.Size), 1)
		}
		out[i] = b.EndRow()
	}
	return f.ShallowCopy().SetVec(o.Out, out), nil
}

// FeatureHasher hashes string tokens and numeric columns into a fixed-size
// sparse feature vector (the hashing trick). It is stateless: the hash
// function needs no statistics, which is why the paper's URL pipeline can
// apply it to an unbounded, growing token vocabulary. Token occurrences
// accumulate counts; numeric columns contribute their value at the hash of
// the column name.
//
// A hasher can also start each row from another hasher's output (BaseCol).
// That lets a pipeline hash its tokens in its stateless head, where a tick
// runs them once, and fold the numerics in after the stateful components
// that scale them.
type FeatureHasher struct {
	// TokenCols are string columns of whitespace-separated tokens.
	TokenCols []string
	// NumCols are numeric columns folded in by column-name hash.
	NumCols []string
	// BaseCol, if set, names a sparse vector column of dimension Size whose
	// rows the hashed entries are merged into.
	BaseCol string
	// Out is the produced vector column.
	Out string
	// Size is the number of hash buckets (the feature dimensionality).
	Size int
}

// NewFeatureHasher returns a hasher into size buckets.
func NewFeatureHasher(tokenCols, numCols []string, out string, size int) *FeatureHasher {
	if size <= 0 {
		panic(fmt.Sprintf("pipeline: hasher size must be positive, got %d", size))
	}
	return &FeatureHasher{TokenCols: tokenCols, NumCols: numCols, Out: out, Size: size}
}

// Name implements Component.
func (h *FeatureHasher) Name() string { return "feature-hasher" }

// Stateless implements Component.
func (h *FeatureHasher) Stateless() bool { return true }

// Update implements Component (no statistics).
func (h *FeatureHasher) Update(f *data.Frame) error { return nil }

// Snapshot implements Component: stateless, shares itself.
func (h *FeatureHasher) Snapshot() Component { return h }

// FNV-1a, 32 bit (hash/fnv's New32a, without the hash.Hash32 and []byte
// allocations of going through the interface). The hashed buckets are part
// of the model's input, so the helpers below are held to the determinism
// contract.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

//cdml:deterministic
func fnv1a(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * fnvPrime32
	}
	return h
}

func (h *FeatureHasher) bucket(s string) int32 {
	return int32(fnv1a(fnvOffset32, s) % uint32(h.Size))
}

// hashedNum is a numeric column and the bucket its values land in.
type hashedNum struct {
	src    []float64
	bucket int32
}

// Transform implements Component. A row's entries are emitted numeric
// columns first, then the base row, then tokens left to right; entries
// landing in the same bucket are summed in that order, numerics in column
// order. The numerics are sorted by bucket once per call and merged into the
// base row, which is sorted already, so a row without tokens is built in
// order and never sorted. A base row that is not sparse or not of dimension
// Size is an error.
func (h *FeatureHasher) Transform(f *data.Frame) (*data.Frame, error) {
	n := f.Rows()
	nums := h.hashedNums(f)
	tokSrcs := make([][]string, len(h.TokenCols))
	for k, c := range h.TokenCols {
		tokSrcs[k] = f.String(c)
	}
	// Bound the batch's entries first, so the whole column is laid out once:
	// a cell holds at most one token more than it has spaces.
	nnz := 0
	for _, c := range nums {
		for _, v := range c.src {
			if storedFloat(v) {
				nnz++
			}
		}
	}
	var base []linalg.Vector
	if h.BaseCol != "" {
		base = f.Vec(h.BaseCol)
		for i, v := range base {
			s, ok := v.(*linalg.Sparse)
			if !ok || s.N != h.Size {
				return nil, fmt.Errorf("pipeline: feature hasher: base column %q row %d is %T, want a sparse vector of dimension %d", h.BaseCol, i, v, h.Size)
			}
			nnz += len(s.Idx)
		}
	}
	for k := range tokSrcs {
		for _, s := range tokSrcs[k] {
			nnz += strings.Count(s, " ") + 1
		}
	}
	out := make([]linalg.Vector, n)
	b := linalg.NewSparseBatch(h.Size, n, nnz)
	for i := 0; i < n; i++ {
		var idx []int32
		var val []float64
		if base != nil {
			s := base[i].(*linalg.Sparse)
			idx, val = s.Idx, s.Val
		}
		j := 0
		for k := 0; k < len(nums); {
			bucket, sum, stored := numSum(nums, &k, i)
			if !stored {
				continue
			}
			for ; j < len(idx) && idx[j] < bucket; j++ {
				b.Add(idx[j], val[j])
			}
			if j < len(idx) && idx[j] == bucket {
				sum += val[j]
				j++
			}
			b.Add(bucket, sum)
		}
		for ; j < len(idx); j++ {
			b.Add(idx[j], val[j])
		}
		for k := range tokSrcs {
			for tok, rest := nextField(tokSrcs[k][i]); tok != ""; tok, rest = nextField(rest) {
				b.Add(h.bucket(tok), 1)
			}
		}
		out[i] = b.EndRow()
	}
	return f.ShallowCopy().SetVec(h.Out, out), nil
}

// hashedNums returns f's numeric columns with their buckets, sorted by
// bucket and, within a bucket, in column order: the order a row sums them in.
func (h *FeatureHasher) hashedNums(f *data.Frame) []hashedNum {
	nums := make([]hashedNum, len(h.NumCols))
	for k, c := range h.NumCols {
		nums[k] = hashedNum{src: f.Float(c), bucket: int32(fnv1a(fnv1a(fnvOffset32, "num:"), c) % uint32(h.Size))}
	}
	slices.SortStableFunc(nums, func(a, b hashedNum) int { return cmp.Compare(a.bucket, b.bucket) })
	return nums
}

// numSum sums row i's stored values of the bucket group that starts at
// nums[*k], in column order, and moves *k past the group. stored is false
// when no value of the group is stored: the row has no entry there.
func numSum(nums []hashedNum, k *int, i int) (bucket int32, sum float64, stored bool) {
	bucket = nums[*k].bucket
	for ; *k < len(nums) && nums[*k].bucket == bucket; *k++ {
		if v := nums[*k].src[i]; storedFloat(v) {
			sum += v // exact on the first: 0 + v is v for any stored v
			stored = true
		}
	}
	return bucket, sum, stored
}

// refold is Transform for a hasher that folds numerics into a base row
// (BaseCol set, no TokenCols), written into rows that an earlier Transform
// emitted instead of into new ones: each row's values are rewritten in
// place, in one walk over the row and its base row in f, with the sums
// Transform forms. Base entries are copied too, so the result is Transform's
// row i whether or not rows[i] was built from the same record. refold
// reports false, possibly having rewritten some rows, when the row counts
// differ, a row is not sparse of dimension Size, or a row's indices are not
// the ones Transform would emit: a numeric bucket is stored in one and not
// the other (a value scaled to exactly 0 or missing on one side only). The
// caller then runs Transform.
func (h *FeatureHasher) refold(f *data.Frame, rows []data.Instance) bool {
	if h.BaseCol == "" || len(h.TokenCols) != 0 || len(rows) != f.Rows() {
		return false
	}
	nums := h.hashedNums(f)
	base := f.Vec(h.BaseCol)
	for i := range rows {
		b, ok := base[i].(*linalg.Sparse)
		if !ok || b.N != h.Size {
			return false
		}
		row, ok := rows[i].X.(*linalg.Sparse)
		if !ok || row.N != h.Size || !refoldRow(row, b, nums, i) {
			return false
		}
	}
	return true
}

// refoldRow rewrites row's values to Transform's merge of row i's numerics
// into base, and reports false at the first index that is not Transform's.
func refoldRow(row, base *linalg.Sparse, nums []hashedNum, i int) bool {
	idx, val := row.Idx, row.Val
	r, j := 0, 0
	for k := 0; k < len(nums); {
		bucket, sum, stored := numSum(nums, &k, i)
		if !stored {
			continue
		}
		for ; j < len(base.Idx) && base.Idx[j] < bucket; j, r = j+1, r+1 {
			if r == len(idx) || idx[r] != base.Idx[j] {
				return false
			}
			val[r] = base.Val[j]
		}
		if j < len(base.Idx) && base.Idx[j] == bucket {
			sum += base.Val[j]
			j++
		}
		if r == len(idx) || idx[r] != bucket {
			return false
		}
		val[r] = sum
		r++
	}
	for ; j < len(base.Idx); j, r = j+1, r+1 {
		if r == len(idx) || idx[r] != base.Idx[j] {
			return false
		}
		val[r] = base.Val[j]
	}
	return r == len(idx)
}

// storedFloat reports whether a float cell contributes an entry to a sparse
// row: the sparse encoding stores only present, exactly-non-zero values.
func storedFloat(v float64) bool {
	//lint:allow floateq: sparse encoding stores only exactly-non-zero entries
	return v != 0 && !data.IsMissingFloat(v)
}

// nextField returns the first space-separated token of s and what follows
// it; tok is "" once s holds no more tokens. Runs of spaces separate tokens
// like a single one. Nothing is allocated: both results are sub-strings.
//
//cdml:deterministic
func nextField(s string) (tok, rest string) {
	start := 0
	for start < len(s) && s[start] == ' ' {
		start++
	}
	end := start
	for end < len(s) && s[end] != ' ' {
		end++
	}
	return s[start:end], s[end:]
}

// Filter drops rows failing a predicate. It is the anomaly-detector shape of
// the paper's Taxi pipeline (trips longer than 22 hours, shorter than 10
// seconds, or with zero distance are removed). Filters are stateless.
type Filter struct {
	// What names the filter for diagnostics (e.g. "anomaly-detector").
	What string
	// Keep returns true for rows that survive. It receives the frame and
	// the row index.
	Keep func(f *data.Frame, i int) bool
}

// NewFilter returns a row filter.
func NewFilter(what string, keep func(f *data.Frame, i int) bool) *Filter {
	return &Filter{What: what, Keep: keep}
}

// Name implements Component.
func (fl *Filter) Name() string { return fl.What }

// Stateless implements Component.
func (fl *Filter) Stateless() bool { return true }

// Update implements Component (no statistics).
func (fl *Filter) Update(f *data.Frame) error { return nil }

// Snapshot implements Component: stateless, shares itself.
func (fl *Filter) Snapshot() Component { return fl }

// Transform implements Component.
func (fl *Filter) Transform(f *data.Frame) (*data.Frame, error) {
	keep := make([]bool, f.Rows())
	for i := range keep {
		keep[i] = fl.Keep(f, i)
	}
	return f.Select(keep), nil
}

// Mapper applies a user-defined stateless row transformation that appends
// or replaces float columns. It is the extension point for custom feature
// extraction (paper §3.1 notes user-defined components may also plug into
// the online statistics machinery; stateful custom components implement
// Component directly).
type Mapper struct {
	// What names the mapper.
	What string
	// Outs are the float columns the mapper produces.
	Outs []string
	// Fn computes the output values for row i.
	Fn func(f *data.Frame, i int, out []float64)
}

// NewMapper returns a stateless row mapper producing the given columns.
func NewMapper(what string, outs []string, fn func(f *data.Frame, i int, out []float64)) *Mapper {
	return &Mapper{What: what, Outs: outs, Fn: fn}
}

// Name implements Component.
func (m *Mapper) Name() string { return m.What }

// Stateless implements Component.
func (m *Mapper) Stateless() bool { return true }

// Update implements Component (no statistics).
func (m *Mapper) Update(f *data.Frame) error { return nil }

// Snapshot implements Component: stateless, shares itself.
func (m *Mapper) Snapshot() Component { return m }

// Transform implements Component.
func (m *Mapper) Transform(f *data.Frame) (*data.Frame, error) {
	n := f.Rows()
	cols := make([][]float64, len(m.Outs))
	for k := range cols {
		cols[k] = make([]float64, n)
	}
	row := make([]float64, len(m.Outs))
	for i := 0; i < n; i++ {
		m.Fn(f, i, row)
		for k := range cols {
			cols[k][i] = row[k]
		}
	}
	g := f.ShallowCopy()
	for k, name := range m.Outs {
		g.SetFloat(name, cols[k])
	}
	return g, nil
}

// Assembler concatenates float columns and vector columns into a single
// feature vector column. The output is sparse if any input vector column is
// sparse, else dense.
type Assembler struct {
	// FloatCols contribute one coordinate each, in order.
	FloatCols []string
	// VecCols contribute their full dimensionality each, in order.
	VecCols []string
	// Out is the produced feature column (typically "features").
	Out string
}

// NewAssembler returns an assembler producing the out column.
func NewAssembler(floatCols, vecCols []string, out string) *Assembler {
	return &Assembler{FloatCols: floatCols, VecCols: vecCols, Out: out}
}

// Name implements Component.
func (a *Assembler) Name() string { return "assembler" }

// Stateless implements Component.
func (a *Assembler) Stateless() bool { return true }

// Update implements Component (no statistics).
func (a *Assembler) Update(f *data.Frame) error { return nil }

// Snapshot implements Component: stateless, shares itself.
func (a *Assembler) Snapshot() Component { return a }

// Transform implements Component. Entries are emitted in index order by
// construction — float columns first, then each vector column at its offset —
// so the sparse rows need no sorting.
func (a *Assembler) Transform(f *data.Frame) (*data.Frame, error) {
	n := f.Rows()
	floats := make([][]float64, len(a.FloatCols))
	for k, c := range a.FloatCols {
		floats[k] = f.Float(c)
	}
	vecs := make([][]linalg.Vector, len(a.VecCols))
	vecDims := make([]int, len(a.VecCols))
	totalDim := len(a.FloatCols)
	sparse := false
	for k, c := range a.VecCols {
		vecs[k] = f.Vec(c)
		if n > 0 {
			vecDims[k] = vecs[k][0].Dim()
			if _, ok := vecs[k][0].(*linalg.Sparse); ok {
				sparse = true
			}
		}
		for _, v := range vecs[k] {
			if v.Dim() != vecDims[k] {
				return nil, fmt.Errorf("pipeline: assembler: vector column %q dim %d varies from %d", c, v.Dim(), vecDims[k])
			}
		}
		totalDim += vecDims[k]
	}
	out := make([]linalg.Vector, n)
	if !sparse {
		// Dense rows are carved from one backing array, capacity-clipped like
		// the sparse batch's.
		flat := make([]float64, 0, n*totalDim)
		for i := range out {
			start := len(flat)
			for k := range floats {
				v := floats[k][i]
				if data.IsMissingFloat(v) {
					v = 0
				}
				flat = append(flat, v)
			}
			for k := range vecs {
				v := vecs[k][i]
				for j := 0; j < vecDims[k]; j++ {
					flat = append(flat, v.At(j))
				}
			}
			out[i] = linalg.Dense(flat[start:len(flat):len(flat)])
		}
		return f.ShallowCopy().SetVec(a.Out, out), nil
	}
	// Count the batch's entries first, so the whole column is laid out once.
	nnz := 0
	for k := range floats {
		for _, v := range floats[k] {
			if storedFloat(v) {
				nnz++
			}
		}
	}
	for k := range vecs {
		for _, v := range vecs[k] {
			if t, ok := v.(*linalg.Sparse); ok {
				nnz += len(t.Idx)
				continue
			}
			for j := 0; j < vecDims[k]; j++ {
				//lint:allow floateq: sparse encoding stores only exactly-non-zero entries
				if v.At(j) != 0 {
					nnz++
				}
			}
		}
	}
	b := linalg.NewSparseBatch(totalDim, n, nnz)
	for i := range out {
		for k := range floats {
			if v := floats[k][i]; storedFloat(v) {
				b.Add(int32(k), v)
			}
		}
		off := len(a.FloatCols)
		for k := range vecs {
			v := vecs[k][i]
			if t, ok := v.(*linalg.Sparse); ok {
				for j, ix := range t.Idx {
					b.Add(int32(off)+ix, t.Val[j])
				}
			} else {
				for j := 0; j < vecDims[k]; j++ {
					//lint:allow floateq: sparse encoding stores only exactly-non-zero entries
					if x := v.At(j); x != 0 {
						b.Add(int32(off+j), x)
					}
				}
			}
			off += vecDims[k]
		}
		out[i] = b.EndRow()
	}
	return f.ShallowCopy().SetVec(a.Out, out), nil
}

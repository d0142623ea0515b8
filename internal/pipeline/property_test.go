package pipeline

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"cdml/internal/data"
	"cdml/internal/flat"
	"cdml/internal/linalg"
)

// randomFrame builds a frame with a float column "x", a categorical column
// "c", a token column "toks" of up to four tokens over a vocabulary of six,
// and a label, with occasional missing values and empty cells.
func randomFrame(r *rand.Rand, rows int) *data.Frame {
	xs := make([]float64, rows)
	cs := make([]string, rows)
	toks := make([]string, rows)
	ys := make([]float64, rows)
	for i := 0; i < rows; i++ {
		words := make([]string, r.Intn(5))
		for k := range words {
			words[k] = fmt.Sprintf("t%d", r.Intn(6))
		}
		toks[i] = strings.Join(words, " ")
		if r.Float64() < 0.1 {
			xs[i] = data.Missing
		} else {
			xs[i] = r.NormFloat64() * 10
		}
		if r.Float64() < 0.1 {
			cs[i] = ""
		} else {
			cs[i] = fmt.Sprintf("cat%d", r.Intn(5))
		}
		ys[i] = float64(r.Intn(2))
	}
	f := data.NewFrame(rows)
	f.SetFloat("x", xs)
	f.SetString("c", cs)
	f.SetString("toks", toks)
	f.SetFloat("label", ys)
	return f
}

// snapshotFrame captures the observable contents of a frame.
func snapshotFrame(f *data.Frame) string {
	out := ""
	for _, col := range f.Columns() {
		switch f.KindOf(col) {
		case data.KindFloat:
			out += fmt.Sprintf("%s:%v;", col, f.Float(col))
		case data.KindString:
			out += fmt.Sprintf("%s:%v;", col, f.String(col))
		case data.KindVec:
			for _, v := range f.Vec(col) {
				out += v.(fmt.Stringer).String()
			}
		}
	}
	return out
}

// randomComponents builds a random stack of stateful and stateless
// components over the random frame's schema: stateless ones before, between
// and after the stateful ones. Half the stacks end the URL pipeline's way: a
// token hasher in the stateless head and a hasher that folds the scaled
// numerics into its rows last, into at most eight buckets, so numerics
// collide with tokens and with each other.
func randomComponents(r *rand.Rand) []Component {
	var comps []Component
	features := []string{"x"}
	// A stateless head: a filter that drops rows below a random floor, a
	// token hasher, and a derived column the assembler or the fold picks up.
	if r.Intn(2) == 0 {
		headFloor := -20 * r.Float64()
		comps = append(comps, NewFilter("head-floor", func(f *data.Frame, i int) bool {
			x := f.Float("x")[i]
			return data.IsMissingFloat(x) || x >= headFloor
		}))
	}
	foldSize := 0
	if r.Intn(2) == 0 {
		foldSize = 1 + r.Intn(8)
		comps = append(comps, NewFeatureHasher([]string{"toks"}, nil, "hashed", foldSize))
	}
	if r.Intn(2) == 0 {
		comps = append(comps, NewInteraction([][2]string{{"x", "x"}}))
		features = append(features, "x*x")
	}
	if r.Intn(2) == 0 {
		comps = append(comps, NewImputer([]string{"x"}, []string{"c"}))
	}
	switch r.Intn(3) {
	case 0:
		comps = append(comps, NewStandardScaler([]string{"x"}))
	case 1:
		comps = append(comps, NewMinMaxScaler([]string{"x"}))
	default:
		comps = append(comps, NewStdClipper([]string{"x"}, 2))
	}
	if r.Intn(2) == 0 {
		comps = append(comps, NewBinarizer([]string{"x"}, 0))
	}
	// A filter that keeps every row about half the time — Select then hands
	// its input frame on unchanged — and drops the negative ones otherwise.
	floor := math.Inf(-1)
	if r.Intn(2) == 0 {
		floor = 0
	}
	comps = append(comps, NewFilter("floor", func(f *data.Frame, i int) bool {
		x := f.Float("x")[i]
		return data.IsMissingFloat(x) || x >= floor
	}))
	comps = append(comps, NewOneHotEncoder("c", "cv", 8))
	if foldSize == 0 {
		return append(comps, NewAssembler(features, []string{"cv"}, "features"))
	}
	fold := NewFeatureHasher(nil, features, "features", foldSize)
	fold.BaseCol = "hashed"
	return append(comps, fold)
}

// frameParser hands out a prepared frame as the parse of any records.
type frameParser struct{ f *data.Frame }

func (p *frameParser) Name() string                          { return "frame" }
func (p *frameParser) Parse(_ [][]byte) (*data.Frame, error) { return p.f, nil }

// refInstances is the component-by-component reference of the online path
// (update) and the transform-only path: every component in order, the
// stateless head included, Update before Transform when updating.
func refInstances(p *Pipeline, comps []Component, f *data.Frame, update bool) ([]data.Instance, error) {
	var err error
	for _, c := range comps {
		if update {
			if err = c.Update(f); err != nil {
				return nil, err
			}
		}
		if f, err = c.Transform(f); err != nil {
			return nil, err
		}
	}
	return p.Instances(f)
}

// sameInstances reports whether two instance slices are equal bit for bit.
func sameInstances(got, want []data.Instance) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d instances, want %d", len(got), len(want))
	}
	gx, wx := make([]linalg.Vector, len(got)), make([]linalg.Vector, len(want))
	for i := range got {
		if math.Float64bits(got[i].Y) != math.Float64bits(want[i].Y) {
			return fmt.Errorf("instance %d label %v, want %v", i, got[i].Y, want[i].Y)
		}
		gx[i], wx[i] = got[i].X, want[i].X
	}
	return sameVectors(gx, wx)
}

// Property: for any random pipeline and data, (1) Serve and Online over one
// Parse — the serve pass first, and the online pass over the served rows, as
// a tick runs them — are bit-identical to running every component in order,
// (2) nothing mutates the parsed input, and (3) the serve path is
// deterministic. Over the seeds, the online pass of a stack that ends in a
// fold both rewrites the served rows and falls back to the fold's Transform.
func TestQuickPipelinePurity(t *testing.T) {
	reused, fellBack := 0, 0
	f := func(seed int64) error {
		r := rand.New(rand.NewSource(seed))
		src := &frameParser{}
		p := &Pipeline{Parser: src, Components: randomComponents(r), FeatureCol: "features", LabelCol: "label"}
		ref := randomComponents(rand.New(rand.NewSource(seed)))

		// Train statistics on some batches.
		for b := 0; b < 3; b++ {
			src.f = randomFrame(r, 1+r.Intn(20))
			in, err := p.Parse(nil)
			if err != nil {
				return err
			}
			served, err := p.Serve(in)
			if err != nil {
				return err
			}
			want, err := refInstances(p, ref, src.f, false)
			if err != nil {
				return err
			}
			if err := sameInstances(served, want); err != nil {
				return fmt.Errorf("batch %d, serve: %w", b, err)
			}
			online, err := p.Online(in, served)
			if err != nil {
				return err
			}
			if want, err = refInstances(p, ref, src.f, true); err != nil {
				return err
			}
			if err := sameInstances(online, want); err != nil {
				return fmt.Errorf("batch %d, online: %w", b, err)
			}
			if _, fold := p.Components[len(p.Components)-1].(*FeatureHasher); fold && len(served) > 0 && len(online) > 0 {
				if &online[0] == &served[0] {
					reused++
				} else {
					fellBack++
				}
			}
		}
		src.f = randomFrame(r, 1+r.Intn(10))
		before := snapshotFrame(src.f)
		in, err := p.Parse(nil)
		if err != nil {
			return err
		}
		ins1, err := p.Serve(in)
		if err != nil {
			return err
		}
		if snapshotFrame(src.f) != before {
			return fmt.Errorf("input mutated")
		}
		ins2, err := p.Serve(in)
		if err != nil {
			return err
		}
		if err := sameInstances(ins2, ins1); err != nil {
			return fmt.Errorf("nondeterministic serve path: %w", err)
		}
		want, err := refInstances(p, ref, src.f, false)
		if err != nil {
			return err
		}
		if err := sameInstances(ins1, want); err != nil {
			return fmt.Errorf("query: %w", err)
		}
		return nil
	}
	for seed := int64(0); seed < 80; seed++ {
		if err := f(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if reused == 0 || fellBack == 0 {
		t.Fatalf("the fold's online pass rewrote the served rows of %d batches and fell back on %d: want both", reused, fellBack)
	}
	t.Logf("fold batches: %d rewritten, %d fell back", reused, fellBack)
}

// Property: checkpoint round-trips preserve every stateful component's
// transform behaviour.
func TestQuickPipelineCheckpointRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		comps := randomComponents(r)
		p := &Pipeline{Components: comps, FeatureCol: "features", LabelCol: "label"}
		for b := 0; b < 3; b++ {
			if _, err := updateTransform(p.Components, randomFrame(r, 10)); err != nil {
				return false
			}
		}
		// Rebuild an identically configured pipeline and restore state.
		r2 := rand.New(rand.NewSource(seed))
		comps2 := randomComponents(r2)
		p2 := &Pipeline{Components: comps2, FeatureCol: "features", LabelCol: "label"}

		state, err := p.AppendState(nil)
		if err != nil || len(state) != p.StateSize() {
			return false
		}
		fr := flat.NewReader(state)
		if err := p2.LoadState(fr); err != nil || fr.Close() != nil {
			return false
		}
		// Equal state is equal bytes: the restored twin, and the serving
		// snapshot of either, encode to what the original did.
		for _, q := range []*Pipeline{p2, p.Snapshot(), p2.Snapshot()} {
			if again, err := q.AppendState(nil); err != nil || !bytes.Equal(again, state) {
				return false
			}
		}
		query := randomFrame(r, 8)
		a, err := transform(p.Components, query)
		if err != nil {
			return false
		}
		b, err := transform(p2.Components, query)
		if err != nil {
			return false
		}
		return snapshotFrame(a) == snapshotFrame(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The reference constructions: each vector-producing component's output built
// row by row with linalg.NewSparse / linalg.Dense, the way the components did
// before they filled a linalg.SparseBatch. The components must reproduce them
// bit for bit.

func refOneHot(o *OneHotEncoder, f *data.Frame) []linalg.Vector {
	src := f.String(o.Col)
	out := make([]linalg.Vector, len(src))
	for i, v := range src {
		if ord, ok := o.domain.Ordinal(v); ok {
			out[i] = linalg.NewSparse(o.Size, []int32{int32(ord % o.Size)}, []float64{1})
		} else {
			out[i] = linalg.NewSparse(o.Size, nil, nil)
		}
	}
	return out
}

func refHasher(h *FeatureHasher, f *data.Frame) []linalg.Vector {
	bucket := func(s string) int32 {
		hh := fnv.New32a()
		hh.Write([]byte(s))
		return int32(hh.Sum32() % uint32(h.Size))
	}
	out := make([]linalg.Vector, f.Rows())
	for i := range out {
		var idx []int32
		var val []float64
		for _, c := range h.NumCols {
			if v := f.Float(c)[i]; !data.IsMissingFloat(v) && v != 0 {
				idx = append(idx, bucket("num:"+c))
				val = append(val, v)
			}
		}
		if h.BaseCol != "" {
			b := f.Vec(h.BaseCol)[i].(*linalg.Sparse)
			idx = append(idx, b.Idx...)
			val = append(val, b.Val...)
		}
		for _, c := range h.TokenCols {
			for _, tok := range fields(f.String(c)[i]) {
				idx = append(idx, bucket(tok))
				val = append(val, 1)
			}
		}
		out[i] = linalg.NewSparse(h.Size, idx, val)
	}
	return out
}

func refAssembler(a *Assembler, f *data.Frame) []linalg.Vector {
	n := f.Rows()
	totalDim := len(a.FloatCols)
	sparse := false
	for _, c := range a.VecCols {
		if n > 0 {
			totalDim += f.Vec(c)[0].Dim()
			if _, ok := f.Vec(c)[0].(*linalg.Sparse); ok {
				sparse = true
			}
		}
	}
	out := make([]linalg.Vector, n)
	for i := range out {
		if !sparse {
			d := make(linalg.Dense, 0, totalDim)
			for _, c := range a.FloatCols {
				v := f.Float(c)[i]
				if data.IsMissingFloat(v) {
					v = 0
				}
				d = append(d, v)
			}
			for _, c := range a.VecCols {
				v := f.Vec(c)[i]
				for j := 0; j < v.Dim(); j++ {
					d = append(d, v.At(j))
				}
			}
			out[i] = d
			continue
		}
		var idx []int32
		var val []float64
		for k, c := range a.FloatCols {
			if v := f.Float(c)[i]; v != 0 && !data.IsMissingFloat(v) {
				idx = append(idx, int32(k))
				val = append(val, v)
			}
		}
		off := len(a.FloatCols)
		for _, c := range a.VecCols {
			v := f.Vec(c)[i]
			switch t := v.(type) {
			case *linalg.Sparse:
				for j, ix := range t.Idx {
					idx = append(idx, int32(off)+ix)
					val = append(val, t.Val[j])
				}
			default:
				for j := 0; j < v.Dim(); j++ {
					if x := v.At(j); x != 0 {
						idx = append(idx, int32(off+j))
						val = append(val, x)
					}
				}
			}
			off += v.Dim()
		}
		out[i] = linalg.NewSparse(totalDim, idx, val)
	}
	return out
}

// fields splits on single spaces, building the []string the hasher used to
// range over.
func fields(s string) []string {
	var out []string
	start := -1
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		out = append(out, s[start:])
	}
	return out
}

// sameVectors reports whether two vector columns are equal bit for bit:
// same representation, Dim, Idx and float64 bit patterns.
func sameVectors(got, want []linalg.Vector) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		switch w := want[i].(type) {
		case *linalg.Sparse:
			g, ok := got[i].(*linalg.Sparse)
			if !ok || g.N != w.N || len(g.Idx) != len(w.Idx) || len(g.Val) != len(w.Val) {
				return fmt.Errorf("row %d: got %v, want %v", i, got[i], w)
			}
			for k := range w.Idx {
				if g.Idx[k] != w.Idx[k] || math.Float64bits(g.Val[k]) != math.Float64bits(w.Val[k]) {
					return fmt.Errorf("row %d entry %d: got %v, want %v", i, k, g, w)
				}
			}
		case linalg.Dense:
			g, ok := got[i].(linalg.Dense)
			if !ok || len(g) != len(w) {
				return fmt.Errorf("row %d: got %v, want %v", i, got[i], w)
			}
			for k := range w {
				if math.Float64bits(g[k]) != math.Float64bits(w[k]) {
					return fmt.Errorf("row %d coordinate %d: got %v, want %v", i, k, g, w)
				}
			}
		}
	}
	return nil
}

// vectorFrame builds a random frame for the vector-producing components:
// float columns "x" and "z" (missing values, exact zeros), a categorical
// "c", a token column "toks" over a vocabulary small enough for a 16-bucket
// hasher to collide constantly, a dense vector column "dv" and a label.
func vectorFrame(r *rand.Rand, rows int) *data.Frame {
	f := randomFrame(r, rows)
	zs := make([]float64, rows)
	toks := make([]string, rows)
	dv := make([]linalg.Vector, rows)
	for i := 0; i < rows; i++ {
		switch r.Intn(4) {
		case 0:
			zs[i] = 0
		case 1:
			zs[i] = data.Missing
		default:
			zs[i] = r.NormFloat64() * 1e8
		}
		words := make([]string, r.Intn(90)) // both sides of the batch's sort threshold
		for k := range words {
			words[k] = fmt.Sprintf("w%d", r.Intn(40))
		}
		toks[i] = strings.Join(words, strings.Repeat(" ", 1+r.Intn(2)))
		dv[i] = linalg.Dense{r.NormFloat64(), 0, float64(r.Intn(3))}
	}
	f.SetFloat("z", zs)
	f.SetString("toks", toks)
	f.SetVec("dv", dv)
	return f
}

// Property: every vector-producing component, fed random frames, emits the
// column its row-by-row reference builds — same bits, fewer allocations.
func TestQuickBatchBuiltColumnsMatchRowByRow(t *testing.T) {
	f := func(seed int64) error {
		r := rand.New(rand.NewSource(seed))
		oneHot := NewOneHotEncoder("c", "cv", 4) // 5 categories into 4 slots: wraps
		for b := 0; b < 2; b++ {
			if err := oneHot.Update(vectorFrame(r, 10)); err != nil {
				return err
			}
		}
		fr := vectorFrame(r, r.Intn(30)) // sometimes no rows at all
		hot, err := oneHot.Transform(fr)
		if err != nil {
			return err
		}
		if err := sameVectors(hot.Vec("cv"), refOneHot(oneHot, fr)); err != nil {
			return fmt.Errorf("one-hot: %w", err)
		}

		hasher := NewFeatureHasher([]string{"toks", "c"}, []string{"x", "z"}, "hv", 16)
		hashed, err := hasher.Transform(hot)
		if err != nil {
			return err
		}
		if err := sameVectors(hashed.Vec("hv"), refHasher(hasher, hot)); err != nil {
			return fmt.Errorf("hasher: %w", err)
		}

		for _, a := range []*Assembler{
			NewAssembler([]string{"x", "z"}, []string{"cv", "dv", "hv"}, "features"), // sparse: a sparse input
			NewAssembler([]string{"z"}, []string{"dv", "cv"}, "features"),            // sparse, led by a dense input
			NewAssembler([]string{"x", "z"}, []string{"dv"}, "features"),             // dense
			NewAssembler([]string{"x"}, nil, "features"),                             // dense, floats only
		} {
			out, err := a.Transform(hashed)
			if err != nil {
				return err
			}
			if err := sameVectors(out.Vec("features"), refAssembler(a, hashed)); err != nil {
				return fmt.Errorf("assembler %v+%v: %w", a.FloatCols, a.VecCols, err)
			}
		}
		return nil
	}
	for seed := int64(0); seed < 150; seed++ {
		if err := f(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// Property: a hasher that folds numerics into a base column — another
// hasher's output, or arbitrary sparse rows with explicit zeros — emits the
// rows its reference builds by appending the numerics in column order, the
// base entries, then the tokens, and summing shared buckets in that order.
// At most 16 buckets for up to seven numeric columns force collisions among
// the numerics, with the base and with the tokens; every row must come out
// strictly increasing.
func TestQuickHasherBaseMergeMatchesReference(t *testing.T) {
	f := func(seed int64) error {
		r := rand.New(rand.NewSource(seed))
		size := 1 + r.Intn(16)
		fr := vectorFrame(r, r.Intn(30))
		numCols := []string{"x", "z"}
		for k := r.Intn(6); k > 0; k-- {
			col := make([]float64, fr.Rows())
			for i := range col {
				switch r.Intn(4) {
				case 0: // zero: no entry
				case 1:
					col[i] = data.Missing
				default:
					col[i] = r.NormFloat64()
				}
			}
			name := fmt.Sprintf("n%d", k)
			fr.SetFloat(name, col)
			numCols = append(numCols, name)
		}
		in := fr
		if r.Intn(2) == 0 {
			var err error
			if in, err = NewFeatureHasher([]string{"toks"}, nil, "base", size).Transform(fr); err != nil {
				return err
			}
		} else {
			rows := make([]linalg.Vector, fr.Rows())
			for i := range rows {
				idx := make([]int32, r.Intn(2*size))
				val := make([]float64, len(idx))
				for k := range idx {
					idx[k] = int32(r.Intn(size))
					val[k] = float64(r.Intn(3)) * r.NormFloat64()
				}
				rows[i] = linalg.NewSparse(size, idx, val)
			}
			in = fr.ShallowCopy().SetVec("base", rows)
		}
		var tokCols []string
		if r.Intn(2) == 0 {
			tokCols = []string{"c", "toks"}
		}
		fold := NewFeatureHasher(tokCols, numCols, "hv", size)
		fold.BaseCol = "base"
		out, err := fold.Transform(in)
		if err != nil {
			return err
		}
		got := out.Vec("hv")
		if err := sameVectors(got, refHasher(fold, in)); err != nil {
			return err
		}
		for i, v := range got {
			idx := v.(*linalg.Sparse).Idx
			for k := 1; k < len(idx); k++ {
				if idx[k-1] >= idx[k] {
					return fmt.Errorf("row %d not strictly increasing: %v", i, idx)
				}
			}
		}
		return nil
	}
	for seed := int64(0); seed < 300; seed++ {
		if err := f(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// Appending to one instance's vector never changes its neighbour, sparse or
// dense: batch-built rows share a backing array but not their capacity.
func TestBatchBuiltRowsDoNotAlias(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	fr := vectorFrame(r, 6)
	oneHot := NewOneHotEncoder("c", "cv", 8)
	if err := oneHot.Update(fr); err != nil {
		t.Fatal(err)
	}
	hot, _ := oneHot.Transform(fr)
	for _, a := range []*Assembler{
		NewAssembler([]string{"x", "z"}, []string{"cv"}, "features"),
		NewAssembler([]string{"x", "z"}, []string{"dv"}, "features"),
	} {
		out, err := a.Transform(hot)
		if err != nil {
			t.Fatal(err)
		}
		vecs := out.Vec("features")
		before := vecs[1].Clone()
		switch v := vecs[0].(type) {
		case *linalg.Sparse:
			v.Idx = append(v.Idx, 11)
			v.Val = append(v.Val, 99)
		case linalg.Dense:
			_ = append(v, 99)
		}
		if err := sameVectors(vecs[1:2], []linalg.Vector{before}); err != nil {
			t.Fatalf("append on row 0 reached row 1: %v", err)
		}
	}
}

package dataset

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"cdml/internal/core"
	"cdml/internal/data"
	"cdml/internal/linalg"
	"cdml/internal/model"
	"cdml/internal/opt"
	"cdml/internal/pipeline"
)

// step takes one mini-batch SGD step on a chunk's instances the way a
// deployment's online update does.
func step(t *testing.T, m model.Model, o opt.Optimizer, ins []data.Instance) {
	t.Helper()
	if _, err := core.Step(context.Background(), m, o, ins); err != nil {
		t.Fatal(err)
	}
}

func smallURLConfig() URLConfig {
	cfg := DefaultURLConfig()
	cfg.Days = 10
	cfg.ChunksPerDay = 2
	cfg.RowsPerChunk = 50
	cfg.Vocab = 500
	cfg.HashDim = 1 << 12
	return cfg
}

func smallTaxiConfig() TaxiConfig {
	cfg := DefaultTaxiConfig()
	cfg.Chunks = 40
	cfg.HoursPerChunk = 192 // 8-day chunks: 40 chunks span ~11 months
	cfg.RowsPerChunk = 60
	return cfg
}

func TestURLChunkDeterministic(t *testing.T) {
	g := NewURL(smallURLConfig())
	a := g.Chunk(3)
	b := g.Chunk(3)
	if len(a) != len(b) {
		t.Fatal("nondeterministic chunk size")
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("record %d differs between generations", i)
		}
	}
}

func TestURLChunkCountAndBounds(t *testing.T) {
	g := NewURL(smallURLConfig())
	if g.NumChunks() != 20 {
		t.Fatalf("NumChunks = %d", g.NumChunks())
	}
	if g.RowsPerChunk() != 50 {
		t.Fatalf("RowsPerChunk = %d", g.RowsPerChunk())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range chunk")
		}
	}()
	g.Chunk(20)
}

func TestURLBadConfigPanics(t *testing.T) {
	cfg := smallURLConfig()
	cfg.Days = 0
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewURL(cfg)
}

func TestURLParserRoundTrip(t *testing.T) {
	g := NewURL(smallURLConfig())
	recs := g.Chunk(0)
	f, err := urlParser{}.Parse(recs)
	if err != nil {
		t.Fatal(err)
	}
	if f.Rows() != len(recs) {
		t.Fatalf("parsed %d of %d rows", f.Rows(), len(recs))
	}
	for _, y := range f.Float("label") {
		if y != 1 && y != -1 {
			t.Fatalf("bad label %v", y)
		}
	}
	if !f.Has("tokens") || !f.Has("num0") || !f.Has("num3") {
		t.Fatalf("missing columns: %v", f.Columns())
	}
}

func TestURLParserDropsMalformed(t *testing.T) {
	recs := [][]byte{
		[]byte("+1\t1,2,3,4\tt1 t2"),
		[]byte("garbage"),
		[]byte("+2\t1,2,3,4\tt1"), // bad label
		[]byte("+1\t1,2,3\tt1"),   // wrong numeric arity
		[]byte("+1\t1,x,3,4\tt1"), // unparseable numeric
		[]byte("-1\t?,2,3,4\tt1"), // missing numeric is fine
	}
	f, err := urlParser{}.Parse(recs)
	if err != nil {
		t.Fatal(err)
	}
	if f.Rows() != 2 {
		t.Fatalf("rows = %d, want 2", f.Rows())
	}
	if !data.IsMissingFloat(f.Float("num0")[1]) {
		t.Fatal("? should parse as missing")
	}
}

func TestURLHasMissingValues(t *testing.T) {
	g := NewURL(smallURLConfig())
	f, _ := urlParser{}.Parse(g.Chunk(0))
	missing := 0
	for _, c := range urlNumCols {
		for _, v := range f.Float(c) {
			if data.IsMissingFloat(v) {
				missing++
			}
		}
	}
	if missing == 0 {
		t.Fatal("URL stream should contain missing numerics for the imputer")
	}
}

func TestURLLabelsBothClasses(t *testing.T) {
	g := NewURL(smallURLConfig())
	f, _ := urlParser{}.Parse(g.Chunk(1))
	pos, neg := 0, 0
	for _, y := range f.Float("label") {
		if y > 0 {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		t.Fatalf("degenerate labels: pos=%d neg=%d", pos, neg)
	}
}

func TestURLPipelineEndToEnd(t *testing.T) {
	cfg := smallURLConfig()
	g := NewURL(cfg)
	p := NewURLPipeline(cfg.HashDim)
	ins, err := p.ProcessOnline(g.Chunk(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != cfg.RowsPerChunk {
		t.Fatalf("instances = %d", len(ins))
	}
	if ins[0].X.Dim() != cfg.HashDim {
		t.Fatalf("feature dim = %d", ins[0].X.Dim())
	}
	if ins[0].X.NNZ() == 0 {
		t.Fatal("empty feature vector")
	}
}

// oneHasherURLPipeline is the URL pipeline with a single hasher over the
// tokens and the scaled numerics at its end, and so no stateless head.
func oneHasherURLPipeline(hashDim int) *pipeline.Pipeline {
	numCols := urlNumCols[:]
	return pipeline.New(urlParser{},
		pipeline.NewImputer(numCols, nil),
		pipeline.NewStandardScaler(numCols),
		pipeline.NewFeatureHasher([]string{"tokens"}, numCols, "features", hashDim),
	)
}

// urlHashing holds what decides where the two URL compositions may round
// apart: the buckets the numerics land in and each row's token counts.
type urlHashing struct {
	numBuckets []int32
	tokens     []linalg.Vector
}

func newURLHashing(t *testing.T, dim int, records [][]byte) urlHashing {
	t.Helper()
	ones := data.NewFrame(1)
	for _, c := range urlNumCols {
		ones.SetFloat(c, []float64{1})
	}
	nums, err := pipeline.NewFeatureHasher(nil, urlNumCols[:], "v", dim).Transform(ones)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := urlParser{}.Parse(records)
	if err != nil {
		t.Fatal(err)
	}
	toks, err := pipeline.NewFeatureHasher([]string{"tokens"}, nil, "v", dim).Transform(parsed)
	if err != nil {
		t.Fatal(err)
	}
	return urlHashing{numBuckets: nums.Vec("v")[0].(*linalg.Sparse).Idx, tokens: toks.Vec("v")}
}

// diffRows compares the split composition's instances with the one-hasher
// composition's and returns how many rows differ. A row may differ only in
// an entry one unit in the last place apart, in a bucket that holds a
// numeric and two or more tokens: the split sums n + k there, one hasher
// (n + 1) + 1 + …. Anything else is an error.
func (h urlHashing) diffRows(got, want []data.Instance) (int, error) {
	if len(got) != len(want) {
		return 0, fmt.Errorf("%d instances, want %d", len(got), len(want))
	}
	diff := 0
	for i := range want {
		g, w := got[i].X.(*linalg.Sparse), want[i].X.(*linalg.Sparse)
		if math.Float64bits(got[i].Y) != math.Float64bits(want[i].Y) || g.N != w.N || !slices.Equal(g.Idx, w.Idx) {
			return 0, fmt.Errorf("instance %d: %v %v, want %v %v", i, got[i].Y, g, want[i].Y, w)
		}
		differs := false
		for k, b := range w.Idx {
			if math.Float64bits(g.Val[k]) == math.Float64bits(w.Val[k]) {
				continue
			}
			if math.Nextafter(w.Val[k], g.Val[k]) != g.Val[k] || !slices.Contains(h.numBuckets, b) || h.tokens[i].At(int(b)) < 2 {
				return 0, fmt.Errorf("instance %d bucket %d: %v, want %v", i, b, g.Val[k], w.Val[k])
			}
			differs = true
		}
		if differs {
			diff++
		}
	}
	return diff, nil
}

// TestURLPipelineMatchesOneHasher: hashing the tokens in the stateless head
// and folding the scaled numerics in after the scaler builds, on the URL
// stream, the instances of one hasher over both, on the serve and the online
// path — the online pass over the served rows, as a tick runs it — and the
// same pipeline state. Where the summation orders differ (see diffRows) the
// sums may round apart by one unit in the last place: never at the
// benchmark's 2^15 buckets, in a few rows at 64 and 256, where buckets
// collide in most rows. The online pass rewrites the served rows of every
// chunk but two: chunk 0, whose serve pass had no statistics to scale with,
// and chunk 1, whose serve pass imputes a missing cell with the mean that
// the scaler then centers to exactly 0, until chunk 1's update moves the
// imputer's and the scaler's means apart.
func TestURLPipelineMatchesOneHasher(t *testing.T) {
	const chunks = 300
	g := NewURL(DefaultURLConfig())
	dims := []int{64, 256, 1 << 15}
	split, one := make([]*pipeline.Pipeline, len(dims)), make([]*pipeline.Pipeline, len(dims))
	for k, dim := range dims {
		split[k], one[k] = NewURLPipeline(dim), oneHasherURLPipeline(dim)
	}
	diffs, fellBack := make([]int, len(dims)), make([][]int, len(dims))
	rows := 0
	for i := 0; i < chunks; i++ {
		records := g.Chunk(i)
		rows += len(records)
		for k, dim := range dims {
			hashing := newURLHashing(t, dim, records)
			in, err := split[k].Parse(records)
			if err != nil {
				t.Fatal(err)
			}
			served, err := split[k].Serve(in)
			if err != nil {
				t.Fatal(err)
			}
			want, err := one[k].ProcessServe(records)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := hashing.diffRows(served, want); err != nil {
				t.Fatalf("dim %d, chunk %d, serve: %v", dim, i, err)
			}
			online, err := split[k].Online(in, served)
			if err != nil {
				t.Fatal(err)
			}
			if &online[0] != &served[0] {
				fellBack[k] = append(fellBack[k], i)
			}
			if want, err = one[k].ProcessOnline(records); err != nil {
				t.Fatal(err)
			}
			n, err := hashing.diffRows(online, want)
			if err != nil {
				t.Fatalf("dim %d, chunk %d, online: %v", dim, i, err)
			}
			diffs[k] += n
		}
	}
	for k, dim := range dims {
		t.Logf("dim %d: %d of %d rows one unit in the last place apart; chunks not rewritten: %v", dim, diffs[k], rows, fellBack[k])
		a, err := split[k].AppendState(nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := one[k].AppendState(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("dim %d: pipeline state differs", dim)
		}
	}
	last := len(dims) - 1
	if diffs[last] != 0 {
		t.Errorf("%d rows differ at %d buckets, want none", diffs[last], dims[last])
	}
	for k, dim := range dims {
		if !slices.Equal(fellBack[k], []int{0, 1}) {
			t.Errorf("at %d buckets the online pass did not rewrite the served rows of chunks %v, want chunks 0 and 1", dim, fellBack[k])
		}
	}
}

// firstInput records the frame its component's first Transform sees.
type firstInput struct {
	pipeline.Component
	seen *data.Frame
}

func (c *firstInput) Transform(f *data.Frame) (*data.Frame, error) {
	if c.seen == nil {
		c.seen = f
	}
	return c.Component.Transform(f)
}

// TestURLParseHashesTokens: the URL pipeline hashes its tokens in the
// stateless head, so the frame Parse hands both passes of a tick already
// holds the hashed-token column, one vector of the model's dimension a row.
func TestURLParseHashesTokens(t *testing.T) {
	cfg := smallURLConfig()
	p := NewURLPipeline(cfg.HashDim)
	k := 0
	for p.Components[k].Stateless() {
		k++
	}
	spy := &firstInput{Component: p.Components[k]}
	p.Components[k] = spy
	in, err := p.Parse(NewURL(cfg).Chunk(0))
	if err != nil {
		t.Fatal(err)
	}
	if spy.seen != nil {
		t.Fatal("Parse ran a stateful component")
	}
	if _, err := p.Serve(in); err != nil {
		t.Fatal(err)
	}
	f := spy.seen
	if !f.Has(urlTokenCol) {
		t.Fatalf("parsed frame lacks %q (have %v)", urlTokenCol, f.Columns())
	}
	rows := f.Vec(urlTokenCol)
	if len(rows) != cfg.RowsPerChunk {
		t.Fatalf("%d hashed-token rows, want %d", len(rows), cfg.RowsPerChunk)
	}
	for i, v := range rows {
		if v.Dim() != cfg.HashDim || v.NNZ() == 0 {
			t.Fatalf("row %d: dim %d, %d entries", i, v.Dim(), v.NNZ())
		}
	}
}

func TestURLModelLearnsStream(t *testing.T) {
	// The deployed SVM trained online over the synthetic stream must beat
	// random guessing comfortably — this validates that the generator's
	// labels are actually learnable through hashing.
	cfg := smallURLConfig()
	cfg.Days = 20
	g := NewURL(cfg)
	p := NewURLPipeline(cfg.HashDim)
	m := NewURLModel(cfg.HashDim, 1e-4)
	o := opt.NewAdam(0.05)
	var wrong, total int
	for i := 0; i < g.NumChunks(); i++ {
		ins, err := p.ProcessOnline(g.Chunk(i))
		if err != nil {
			t.Fatal(err)
		}
		if i >= g.NumChunks()/2 { // prequential: evaluate after warmup
			for _, in := range ins {
				total++
				if m.Classify(in.X) != in.Y {
					wrong++
				}
			}
		}
		step(t, m, o, ins)
	}
	rate := float64(wrong) / float64(total)
	if rate > 0.35 {
		t.Fatalf("URL stream not learnable: error rate %v", rate)
	}
}

func TestTaxiChunkDeterministic(t *testing.T) {
	g := NewTaxi(smallTaxiConfig())
	a, b := g.Chunk(5), g.Chunk(5)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatal("nondeterministic taxi chunk")
		}
	}
}

func TestTaxiBadConfigPanics(t *testing.T) {
	cfg := smallTaxiConfig()
	cfg.Chunks = 0
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTaxi(cfg)
}

func TestTaxiChunkRangePanics(t *testing.T) {
	g := NewTaxi(smallTaxiConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Chunk(-1)
}

func TestTaxiParser(t *testing.T) {
	g := NewTaxi(smallTaxiConfig())
	f, err := taxiParser{}.Parse(g.Chunk(0))
	if err != nil {
		t.Fatal(err)
	}
	if f.Rows() != 60 {
		t.Fatalf("rows = %d", f.Rows())
	}
	for i, d := range f.Float("duration") {
		if d < 0 {
			t.Fatalf("negative duration at %d", i)
		}
		want := math.Log1p(d)
		if math.Abs(f.Float("label")[i]-want) > 1e-12 {
			t.Fatal("label is not log1p(duration)")
		}
	}
}

func TestTaxiParserDropsMalformed(t *testing.T) {
	recs := [][]byte{
		[]byte("2015-02-01 00:00:00,2015-02-01 00:10:00,-73.98,40.75,-73.97,40.76,2"),
		[]byte("not,a,trip"),
		[]byte("2015-02-01 00:00:00,bad-time,-73.98,40.75,-73.97,40.76,2"),
		[]byte("2015-02-01 00:10:00,2015-02-01 00:00:00,-73.98,40.75,-73.97,40.76,2"), // negative duration
		[]byte("2015-02-01 00:00:00,2015-02-01 00:10:00,x,40.75,-73.97,40.76,2"),
	}
	f, err := taxiParser{}.Parse(recs)
	if err != nil {
		t.Fatal(err)
	}
	if f.Rows() != 1 {
		t.Fatalf("rows = %d, want 1", f.Rows())
	}
	if math.Abs(f.Float("duration")[0]-600) > 1e-9 {
		t.Fatalf("duration = %v, want 600", f.Float("duration")[0])
	}
}

func TestHaversineKnownDistance(t *testing.T) {
	// JFK to LaGuardia is ≈ 17 km.
	d := Haversine(40.6413, -73.7781, 40.7769, -73.8740)
	if d < 15 || d < 0 || d > 20 {
		t.Fatalf("JFK-LGA distance = %v km", d)
	}
	if Haversine(40, -73, 40, -73) != 0 {
		t.Fatal("zero distance wrong")
	}
}

func TestBearingCardinalDirections(t *testing.T) {
	// Due north.
	if b := Bearing(40, -73, 41, -73); math.Abs(b-0) > 1 && math.Abs(b-360) > 1 {
		t.Fatalf("north bearing = %v", b)
	}
	// Due east (approximately, at this latitude).
	if b := Bearing(40, -74, 40, -73); math.Abs(b-90) > 2 {
		t.Fatalf("east bearing = %v", b)
	}
	// Range.
	for _, b := range []float64{Bearing(40, -73, 39, -74), Bearing(1, 1, -1, -1)} {
		if b < 0 || b >= 360 {
			t.Fatalf("bearing out of range: %v", b)
		}
	}
}

func TestTaxiFeatureExtractor(t *testing.T) {
	g := NewTaxi(smallTaxiConfig())
	f, _ := taxiParser{}.Parse(g.Chunk(0))
	out, err := taxiFeatureExtractor{}.Transform(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"dist_km", "bearing", "hour", "dow"} {
		if !out.Has(c) {
			t.Fatalf("missing extracted column %q", c)
		}
	}
	for _, h := range out.Float("hour") {
		if h < 0 || h > 23 {
			t.Fatalf("hour out of range: %v", h)
		}
	}
	validDow := map[string]bool{"sun": true, "mon": true, "tue": true, "wed": true, "thu": true, "fri": true, "sat": true}
	for _, d := range out.String("dow") {
		if !validDow[d] {
			t.Fatalf("bad dow %q", d)
		}
	}
}

func TestTaxiAnomalyFilterRemovesAnomalies(t *testing.T) {
	cfg := smallTaxiConfig()
	cfg.AnomalyRate = 0.3 // force plenty of anomalies
	g := NewTaxi(cfg)
	f, _ := taxiParser{}.Parse(g.Chunk(0))
	f2, _ := (taxiFeatureExtractor{}).Transform(f)
	filtered, err := newTaxiAnomalyFilter().Transform(f2)
	if err != nil {
		t.Fatal(err)
	}
	if filtered.Rows() >= f2.Rows() {
		t.Fatal("filter removed nothing despite injected anomalies")
	}
	for i := 0; i < filtered.Rows(); i++ {
		d := filtered.Float("duration")[i]
		if d > 22*3600 || d < 10 || filtered.Float("dist_km")[i] <= 0 {
			t.Fatalf("anomaly survived: dur=%v dist=%v", d, filtered.Float("dist_km")[i])
		}
	}
}

func TestTaxiPipelineEndToEnd(t *testing.T) {
	g := NewTaxi(smallTaxiConfig())
	p := NewTaxiPipeline()
	ins, err := p.ProcessOnline(g.Chunk(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) == 0 {
		t.Fatal("no instances")
	}
	if ins[0].X.Dim() != TaxiFeatureDim {
		t.Fatalf("feature dim = %d, want %d", ins[0].X.Dim(), TaxiFeatureDim)
	}
}

func TestTaxiModelLearnsStream(t *testing.T) {
	g := NewTaxi(smallTaxiConfig())
	p := NewTaxiPipeline()
	m := NewTaxiModel(1e-4)
	o := opt.NewAdam(0.1)
	var sse float64
	var n int
	for i := 0; i < g.NumChunks(); i++ {
		ins, err := p.ProcessOnline(g.Chunk(i))
		if err != nil {
			t.Fatal(err)
		}
		if i >= g.NumChunks()/2 {
			for _, in := range ins {
				d := m.Predict(in.X) - in.Y
				sse += d * d
				n++
			}
		}
		for k := 0; k < 10; k++ { // several passes per chunk to converge fast
			step(t, m, o, ins)
		}
	}
	rmsle := math.Sqrt(sse / float64(n))
	// Label std is ≈ 0.8; a fitted model must do much better than the
	// label-mean baseline.
	if rmsle > 0.6 {
		t.Fatalf("Taxi stream not learnable: RMSLE %v", rmsle)
	}
}

func TestSpeedModelRushHourSlower(t *testing.T) {
	if speedKmh(8, time.Wednesday) >= speedKmh(3, time.Wednesday) {
		t.Fatal("rush hour should be slower than night")
	}
	if speedKmh(8, time.Saturday) <= speedKmh(8, time.Wednesday) {
		t.Fatal("weekends should be faster")
	}
}

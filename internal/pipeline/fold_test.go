package pipeline

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"cdml/internal/data"
)

// foldFrame is a chunk of the fold tests' schema: a float "x", a float "z",
// a token column "toks" and a label.
func foldFrame(xs, zs []float64, toks []string) *data.Frame {
	f := data.NewFrame(len(xs))
	f.SetFloat("x", xs)
	f.SetFloat("z", zs)
	f.SetString("toks", toks)
	f.SetFloat("label", make([]float64, len(xs)))
	return f
}

// onlineOverServed runs a tick's two passes over src's frame — Serve, then
// Online over the served rows — and checks both against ref, a twin of p run
// component by component. It reports whether the online pass rewrote the
// served rows rather than building its own.
func onlineOverServed(p, ref *Pipeline, src *frameParser) (rewritten bool, err error) {
	in, err := p.Parse(nil)
	if err != nil {
		return false, err
	}
	served, err := p.Serve(in)
	if err != nil {
		return false, err
	}
	want, err := refInstances(p, ref.Components, src.f, false)
	if err != nil {
		return false, err
	}
	if err := sameInstances(served, want); err != nil {
		return false, fmt.Errorf("serve: %w", err)
	}
	online, err := p.Online(in, served)
	if err != nil {
		return false, err
	}
	if want, err = refInstances(p, ref.Components, src.f, true); err != nil {
		return false, err
	}
	if err := sameInstances(online, want); err != nil {
		return false, fmt.Errorf("online: %w", err)
	}
	return len(served) > 0 && len(online) > 0 && &online[0] == &served[0], nil
}

// TestOnlineFallsBackWhereTheNumericsMove drives a URL-shaped pipeline (a
// token head, a scaler, a fold of the scaled numeric into the token rows)
// through four chunks. The first falls back to the fold's Transform: its
// serve pass has no statistics, so every numeric scales to 0 and is not
// stored. The second falls back too: x = 4 is the mean only after the
// chunk's update, so it scales to exactly 0 on the online pass alone, in a
// row with no tokens. The last two rewrite the served rows. Each pass equals
// the reference bit for bit.
func TestOnlineFallsBackWhereTheNumericsMove(t *testing.T) {
	const dim = 1 << 15
	build := func(src *frameParser) *Pipeline {
		fold := NewFeatureHasher(nil, []string{"x"}, "features", dim)
		fold.BaseCol = "hashed"
		return New(src, NewFeatureHasher([]string{"toks"}, nil, "hashed", dim), NewStandardScaler([]string{"x"}), fold)
	}
	src := &frameParser{}
	p, ref := build(src), build(src)
	for k, c := range []struct {
		xs        []float64
		toks      []string
		rewritten bool
	}{
		{[]float64{0, 4}, []string{"a b", ""}, false},  // mean 2 after the update
		{[]float64{8, 4}, []string{"a", ""}, false},    // mean 4 after the update
		{[]float64{1, 7}, []string{"a", "b c"}, true},  // nonzero on both passes
		{[]float64{3, 5}, []string{"", "c c a"}, true}, // ... and again
	} {
		src.f = foldFrame(c.xs, make([]float64, len(c.xs)), c.toks)
		rewritten, err := onlineOverServed(p, ref, src)
		if err != nil {
			t.Fatalf("chunk %d: %v", k, err)
		}
		if rewritten != c.rewritten {
			t.Fatalf("chunk %d: online pass rewrote the served rows: %v, want %v", k, rewritten, c.rewritten)
		}
	}
}

// TestOnlineRewritesRowsOfAnotherRecord: a filter between the scaler and the
// fold keeps the rows whose scaled x lies within half a deviation of the
// mean, so the serve pass, with the statistics before the update, keeps
// another record than the online pass: x = 6 and x = 12 of the second chunk.
// Both rows hold x's bucket and those of a, b, A and B, on both sides of it,
// once and twice, so the online pass rewrites the served row of the one
// record into the other's row: its numeric, its base values and its label.
func TestOnlineRewritesRowsOfAnotherRecord(t *testing.T) {
	const dim = 1 << 15
	build := func(src *frameParser) *Pipeline {
		fold := NewFeatureHasher(nil, []string{"x"}, "features", dim)
		fold.BaseCol = "hashed"
		return New(src,
			NewFeatureHasher([]string{"toks"}, nil, "hashed", dim),
			NewStandardScaler([]string{"x"}),
			NewFilter("near-mean", func(f *data.Frame, i int) bool { return math.Abs(f.Float("x")[i]) < 0.5 }),
			fold)
	}
	src := &frameParser{}
	p, ref := build(src), build(src)
	src.f = foldFrame([]float64{0, 10}, make([]float64, 2), []string{"a", "b"})
	if _, err := onlineOverServed(p, ref, src); err != nil {
		t.Fatal(err)
	}
	src.f = foldFrame([]float64{6, 12, 30, 30}, make([]float64, 4), []string{"a b A B", "a a b b A A B B", "", ""})
	src.f.SetFloat("label", []float64{-1, 1, 0, 0})
	rewritten, err := onlineOverServed(p, ref, src)
	if err != nil {
		t.Fatal(err)
	}
	if !rewritten {
		t.Fatal("the online pass built its own rows: the test exercises nothing")
	}
}

// foldPipeline is a stack that ends in a fold, for the fuzzer: a token hasher
// and an interaction in the stateless head; an imputer, a standard and a
// min-max scaler (which maps each chunk's minimum to exactly 0); a filter
// whose verdict can differ between the passes; and a fold of three numerics
// into dim buckets.
func foldPipeline(src Parser, dim int) *Pipeline {
	fold := NewFeatureHasher(nil, []string{"x", "z", "x*z"}, "features", dim)
	fold.BaseCol = "hashed"
	return New(src,
		NewFeatureHasher([]string{"toks"}, nil, "hashed", dim),
		NewInteraction([][2]string{{"x", "z"}}),
		NewImputer([]string{"z"}, nil),
		NewStandardScaler([]string{"x", "x*z"}),
		NewMinMaxScaler([]string{"z"}),
		NewFilter("nonnegative", func(f *data.Frame, i int) bool {
			x := f.Float("x")[i]
			return data.IsMissingFloat(x) || x >= 0
		}),
		fold,
	)
}

// fuzzFloat decodes a cell: 0, missing, or a small integer, so that means
// and minima are hit exactly.
func fuzzFloat(b byte) float64 {
	switch b % 4 {
	case 0:
		return 0
	case 1:
		return data.Missing
	}
	return float64(int8(b) >> 2)
}

// fuzzChunk decodes one chunk from raw — a row count below 16, then three
// bytes a row: x, z (fuzzFloat) and the tokens (the low two bits count up
// to three, drawn from a vocabulary of four by the next six) — and returns
// the bytes left.
func fuzzChunk(raw []byte) (*data.Frame, []byte) {
	rows := min(int(raw[0]%16), (len(raw)-1)/3)
	raw = raw[1:]
	xs, zs, toks := make([]float64, rows), make([]float64, rows), make([]string, rows)
	for i := range rows {
		xs[i], zs[i] = fuzzFloat(raw[0]), fuzzFloat(raw[1])
		words := make([]string, raw[2]&3)
		for k := range words {
			words[k] = fmt.Sprintf("t%d", raw[2]>>(2+2*k)&3)
		}
		toks[i] = strings.Join(words, " ")
		raw = raw[3:]
	}
	return foldFrame(xs, zs, toks), raw
}

// FuzzFoldReuse: for any chunks, a fold stack's online pass over the served
// rows — rewritten in place or fallen back to the fold's Transform — equals
// the component-by-component reference bit for bit, with at most 16 buckets,
// so numerics collide with tokens and with each other.
func FuzzFoldReuse(f *testing.F) {
	f.Add(uint8(3), []byte{2, 0x08, 0x0c, 0x05, 0x18, 0x10, 0x00, 3, 0x20, 0x0c, 0x09, 0x0c, 0x09, 0x1a, 0x0c, 0x0c, 0x03})
	f.Add(uint8(15), []byte{4, 0x02, 0x0a, 0x07, 0x0e, 0x12, 0x0b, 0x01, 0x00, 0x00, 0xfe, 0x0f, 0x3f})
	// A row whose only stored numeric is another bucket's on each pass: as
	// many entries, other indices.
	f.Add(uint8(15), []byte("+000\xc700000000000\xaf002000000000002002200020"))
	r := rand.New(rand.NewSource(1))
	for range 4 {
		raw := make([]byte, 64)
		r.Read(raw)
		f.Add(uint8(r.Intn(16)), raw)
	}
	f.Fuzz(func(t *testing.T, size uint8, raw []byte) {
		dim := 1 + int(size%16)
		src := &frameParser{}
		p, ref := foldPipeline(src, dim), foldPipeline(src, dim)
		for k := 0; len(raw) > 0; k++ {
			src.f, raw = fuzzChunk(raw)
			if _, err := onlineOverServed(p, ref, src); err != nil {
				t.Fatalf("chunk %d: %v", k, err)
			}
		}
	})
}

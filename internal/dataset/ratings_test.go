package dataset

import (
	"bytes"
	"math"
	"testing"

	"cdml/internal/opt"
)

func smallRatingsConfig() RatingsConfig {
	cfg := DefaultRatingsConfig()
	cfg.Users, cfg.Items = 30, 50
	cfg.Chunks, cfg.RowsPerChunk = 60, 80
	cfg.Drift = 0
	return cfg
}

func TestRatingsDeterministic(t *testing.T) {
	g := NewRatings(smallRatingsConfig())
	a, b := g.Chunk(3), g.Chunk(3)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatal("nondeterministic ratings chunk")
		}
	}
}

func TestRatingsBadConfigPanics(t *testing.T) {
	cfg := smallRatingsConfig()
	cfg.Factors = 0
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRatings(cfg)
}

func TestRatingsChunkRangePanics(t *testing.T) {
	g := NewRatings(smallRatingsConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Chunk(60)
}

func TestRatingsParser(t *testing.T) {
	recs := [][]byte{
		[]byte("u1,i2,3.5"),
		[]byte("garbage"),
		[]byte("x1,i2,3.5"), // bad user prefix
		[]byte("u1,i2,abc"), // bad rating
		[]byte("u9,i0,4.125"),
	}
	f, err := ratingsParser{}.Parse(recs)
	if err != nil {
		t.Fatal(err)
	}
	if f.Rows() != 2 {
		t.Fatalf("rows = %d", f.Rows())
	}
	if f.String("user")[1] != "u9" || f.Float("label")[1] != 4.125 {
		t.Fatal("parsed values wrong")
	}
}

func TestTwoHotEncoder(t *testing.T) {
	e := newTwoHotEncoder(10, 20, "features")
	f, _ := ratingsParser{}.Parse([][]byte{
		[]byte("u3,i15,4.0"),
		[]byte("u99,i1,2.0"), // user out of range → filtered
	})
	g, err := e.Transform(f)
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows() != 1 {
		t.Fatalf("rows = %d", g.Rows())
	}
	v := g.Vec("features")[0]
	if v.Dim() != 30 || v.At(3) != 1 || v.At(10+15) != 1 || v.NNZ() != 2 {
		t.Fatalf("two-hot wrong: %v", v)
	}
	if !e.Stateless() {
		t.Fatal("encoder should be stateless")
	}
}

func TestTwoHotBadShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newTwoHotEncoder(0, 5, "f")
}

func TestRatingsPipelineEndToEnd(t *testing.T) {
	cfg := smallRatingsConfig()
	g := NewRatings(cfg)
	p := NewRatingsPipeline(cfg.Users, cfg.Items)
	ins, err := p.ProcessOnline(g.Chunk(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != cfg.RowsPerChunk {
		t.Fatalf("instances = %d", len(ins))
	}
	if ins[0].X.NNZ() != 2 {
		t.Fatal("not 2-hot")
	}
	if ins[0].Y < 0 || ins[0].Y > 8 {
		t.Fatalf("implausible rating %v", ins[0].Y)
	}
}

func TestRatingsModelLearnsStream(t *testing.T) {
	cfg := smallRatingsConfig()
	g := NewRatings(cfg)
	p := NewRatingsPipeline(cfg.Users, cfg.Items)
	m := NewRatingsModel(cfg, 1e-3)
	o := opt.NewAdam(0.05)
	var sse float64
	var n int
	for c := 0; c < g.NumChunks(); c++ {
		ins, err := p.ProcessOnline(g.Chunk(c))
		if err != nil {
			t.Fatal(err)
		}
		if c >= g.NumChunks()/2 {
			for _, in := range ins {
				d := m.Predict(in.X) - in.Y
				sse += d * d
				n++
			}
		}
		for pass := 0; pass < 4; pass++ {
			step(t, m, o, ins)
		}
	}
	rmse := math.Sqrt(sse / float64(n))
	// Rating std ≈ 1; the model should get well under it.
	if rmse > 0.55 {
		t.Fatalf("ratings stream not learnable: RMSE %v", rmse)
	}
}

func TestRatingsDriftMovesRatings(t *testing.T) {
	cfg := smallRatingsConfig()
	cfg.Drift = 1.5
	g := NewRatings(cfg)
	var moved float64
	for u := 0; u < 10; u++ {
		for i := 0; i < 10; i++ {
			moved += math.Abs(g.trueRating(u, i, 1) - g.trueRating(u, i, 0))
		}
	}
	if moved/100 < 0.1 {
		t.Fatalf("drift too small: %v", moved/100)
	}
	cfg.Drift = 0
	g0 := NewRatings(cfg)
	for u := 0; u < 5; u++ {
		if g0.trueRating(u, 3, 0) != g0.trueRating(u, 3, 1) {
			t.Fatal("zero drift should be stationary")
		}
	}
}

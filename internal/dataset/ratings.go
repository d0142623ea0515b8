package dataset

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"

	"cdml/internal/data"
	"cdml/internal/linalg"
	"cdml/internal/model"
	"cdml/internal/pipeline"
)

// RatingsConfig parameterizes the synthetic rating stream that exercises
// the matrix factorization model (the recommender use of SGD the paper
// cites, §2.1 [19]).
type RatingsConfig struct {
	// Users and Items bound the id spaces.
	Users, Items int
	// Factors is the latent dimensionality of the generating model.
	Factors int
	// Chunks and RowsPerChunk shape the stream.
	Chunks, RowsPerChunk int
	// Drift rotates user preferences over the deployment (0 = stationary).
	Drift float64
	// Noise is the rating noise standard deviation.
	Noise float64
	// Seed makes the stream reproducible.
	Seed int64
}

// DefaultRatingsConfig returns a laptop-scale rating stream.
func DefaultRatingsConfig() RatingsConfig {
	return RatingsConfig{
		Users:        200,
		Items:        400,
		Factors:      4,
		Chunks:       400,
		RowsPerChunk: 100,
		Drift:        0.5,
		Noise:        0.2,
		Seed:         13,
	}
}

// Ratings generates "user,item,rating" records from a latent-factor world.
type Ratings struct {
	cfg RatingsConfig
	uf  [][]float64 // user factors
	ut  [][]float64 // user preference trend (drift direction)
	vf  [][]float64 // item factors
	mu  float64
}

// NewRatings returns a generator for the given config.
func NewRatings(cfg RatingsConfig) *Ratings {
	if cfg.Users <= 0 || cfg.Items <= 0 || cfg.Factors <= 0 || cfg.Chunks <= 0 || cfg.RowsPerChunk <= 0 {
		panic(fmt.Sprintf("dataset: invalid Ratings config %+v", cfg))
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	g := &Ratings{cfg: cfg, mu: 3.5}
	g.uf = make([][]float64, cfg.Users)
	g.ut = make([][]float64, cfg.Users)
	for u := range g.uf {
		g.uf[u] = make([]float64, cfg.Factors)
		g.ut[u] = make([]float64, cfg.Factors)
		for k := range g.uf[u] {
			g.uf[u][k] = 0.6 * r.NormFloat64()
			g.ut[u][k] = cfg.Drift * r.NormFloat64()
		}
	}
	g.vf = make([][]float64, cfg.Items)
	for i := range g.vf {
		g.vf[i] = make([]float64, cfg.Factors)
		for k := range g.vf[i] {
			g.vf[i][k] = 0.6 * r.NormFloat64()
		}
	}
	return g
}

// Name identifies the generator.
func (g *Ratings) Name() string { return "ratings" }

// NumChunks returns the stream length.
func (g *Ratings) NumChunks() int { return g.cfg.Chunks }

// trueRating returns the noiseless rating of (u, i) at deployment progress
// t in [0, 1], with user preferences drifted by t.
func (g *Ratings) trueRating(u, i int, t float64) float64 {
	v := g.mu
	for k := 0; k < g.cfg.Factors; k++ {
		v += (g.uf[u][k] + t*g.ut[u][k]) * g.vf[i][k]
	}
	return v
}

// Chunk generates the records of chunk c: "u<id>,i<id>,<rating>".
func (g *Ratings) Chunk(c int) [][]byte {
	if c < 0 || c >= g.cfg.Chunks {
		panic(fmt.Sprintf("dataset: Ratings chunk %d out of range [0,%d)", c, g.cfg.Chunks))
	}
	r := rand.New(rand.NewSource(g.cfg.Seed ^ (0x2545f491 * int64(c+1))))
	t := float64(c) / float64(g.cfg.Chunks)
	records := make([][]byte, g.cfg.RowsPerChunk)
	var buf bytes.Buffer
	for row := range records {
		u := r.Intn(g.cfg.Users)
		i := r.Intn(g.cfg.Items)
		rating := g.trueRating(u, i, t) + g.cfg.Noise*r.NormFloat64()
		buf.Reset()
		fmt.Fprintf(&buf, "u%d,i%d,%.3f", u, i, rating)
		records[row] = append([]byte(nil), buf.Bytes()...)
	}
	return records
}

// ratingsParser parses rating records into a frame with string columns
// "user" and "item" plus the float "label" (the rating).
type ratingsParser struct{}

// Name implements pipeline.Parser.
func (ratingsParser) Name() string { return "ratings-parser" }

// Parse implements pipeline.Parser; malformed records — a wrong field count,
// an id without its u/i prefix, a non-finite rating — are dropped. Fields are
// scanned in place; the id strings of the whole batch share one allocation.
func (ratingsParser) Parse(records [][]byte) (*data.Frame, error) {
	labels := make([]float64, 0, len(records))
	// The accepted records' user and item ids, back to back, and where each
	// id ends; a record's length bounds its ids'.
	idText := make([]byte, 0, totalLen(records))
	ends := make([]int, 0, 2*len(records))
	for _, rec := range records {
		if bytes.Count(rec, comma) != 2 {
			continue
		}
		u, rest := cutField(rec, ',')
		i, rating := cutField(rest, ',')
		if len(u) < 2 || u[0] != 'u' || len(i) < 2 || i[0] != 'i' {
			continue
		}
		y, ok := parseFinite(rating)
		if !ok {
			continue
		}
		idText = append(idText, u...)
		ends = append(ends, len(idText))
		idText = append(idText, i...)
		ends = append(ends, len(idText))
		labels = append(labels, y)
	}
	all := string(idText)
	users := make([]string, len(labels))
	items := make([]string, len(labels))
	start := 0
	for r := range labels {
		users[r] = all[start:ends[2*r]]
		items[r] = all[ends[2*r]:ends[2*r+1]]
		start = ends[2*r+1]
	}
	f := data.NewFrame(len(labels))
	f.SetString("user", users)
	f.SetString("item", items)
	f.SetFloat("label", labels)
	return f, nil
}

// twoHotEncoder turns the "user"/"item" id columns into the 2-hot sparse
// vectors the MF model consumes. It is stateless: ids carry their indices
// ("u17" → 17), so no mapping table is needed.
type twoHotEncoder struct {
	// Users and Items bound the id spaces; rows with out-of-range or
	// unparseable ids are filtered out.
	Users, Items int
	// Out names the produced vector column.
	Out string
}

// newTwoHotEncoder returns an encoder over the given id spaces.
func newTwoHotEncoder(users, items int, out string) *twoHotEncoder {
	if users <= 0 || items <= 0 {
		panic(fmt.Sprintf("dataset: invalid two-hot shape %d×%d", users, items))
	}
	return &twoHotEncoder{Users: users, Items: items, Out: out}
}

// Name implements pipeline.Component.
func (e *twoHotEncoder) Name() string { return "two-hot-encoder" }

// Stateless implements pipeline.Component.
func (e *twoHotEncoder) Stateless() bool { return true }

// Update implements pipeline.Component (no statistics).
func (e *twoHotEncoder) Update(f *data.Frame) error { return nil }

// Snapshot implements pipeline.Component: stateless, shares itself.
func (e *twoHotEncoder) Snapshot() pipeline.Component { return e }

// Transform implements pipeline.Component: encodes each (user, item) row
// and filters rows whose ids fall outside the configured spaces.
func (e *twoHotEncoder) Transform(f *data.Frame) (*data.Frame, error) {
	users := f.String("user")
	items := f.String("item")
	keep := make([]bool, f.Rows())
	for i := range keep {
		u, err1 := strconv.Atoi(users[i][1:])
		it, err2 := strconv.Atoi(items[i][1:])
		keep[i] = err1 == nil && err2 == nil && u >= 0 && u < e.Users && it >= 0 && it < e.Items
	}
	g := f.Select(keep)
	us := g.String("user")
	is := g.String("item")
	out := make([]linalg.Vector, g.Rows())
	for i := range out {
		u, _ := strconv.Atoi(us[i][1:])
		it, _ := strconv.Atoi(is[i][1:])
		out[i] = model.EncodePair(e.Users, e.Items, u, it)
	}
	return g.ShallowCopy().SetVec(e.Out, out), nil
}

// NewRatingsPipeline constructs the recommender pipeline: parser → rating
// clipper (ratings live on a bounded scale) → two-hot encoder.
func NewRatingsPipeline(users, items int) *pipeline.Pipeline {
	return pipeline.New(ratingsParser{},
		pipeline.NewStdClipper([]string{"label"}, 4),
		newTwoHotEncoder(users, items, "features"),
	)
}

// NewRatingsModel constructs the matrix factorization model for the stream.
func NewRatingsModel(cfg RatingsConfig, reg float64) *model.MF {
	return model.NewMF(cfg.Users, cfg.Items, cfg.Factors+1, reg, cfg.Seed)
}

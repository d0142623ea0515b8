// Package dataset provides the two workload generators of the evaluation,
// standing in for the real datasets the paper used (see DESIGN.md,
// Substitutions):
//
//   - URL: a sparse, high-dimensional binary classification stream with
//     gradual concept drift and a feature set that grows over time,
//     mirroring the malicious-URL dataset of Ma et al. [22]. It feeds the
//     parser → token hasher → imputer → standard scaler → numeric fold →
//     SVM pipeline (both hashers are FeatureHashers; see NewURLPipeline).
//   - Taxi: a dense tabular regression stream of synthetic NYC-like taxi
//     trips with a stationary distribution and injected anomalies. It feeds
//     the parser → feature extractor → anomaly filter → scaler → one-hot →
//     assembler → linear regression pipeline.
//
// Generators are deterministic given a seed, and each chunk is generated
// independently (seeded by chunk index), so experiments are reproducible
// and chunks can be regenerated in any order.
package dataset

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"cdml/internal/data"
	"cdml/internal/model"
	"cdml/internal/pipeline"
)

// URLConfig parameterizes the URL-like stream.
type URLConfig struct {
	// Days is the number of deployment days (the paper's URL dataset spans
	// 121 days: day 0 trains the initial model, days 1–120 deploy).
	Days int
	// ChunksPerDay discretizes each day.
	ChunksPerDay int
	// RowsPerChunk is the number of records per chunk.
	RowsPerChunk int
	// Vocab is the token vocabulary size (the real dataset's feature count
	// scaled down).
	Vocab int
	// TokensPerRow is the average number of tokens per record.
	TokensPerRow int
	// HashDim is the feature-hashing dimensionality of the pipeline.
	HashDim int
	// Drift scales the gradual concept drift (0 disables it).
	Drift float64
	// NoiseRate is the label-flip probability.
	NoiseRate float64
	// Seed makes the stream reproducible.
	Seed int64
}

// DefaultURLConfig returns the scaled-down deployment scenario: 120 days of
// 10 chunks, 150 rows each (the paper uses 12,000 chunks of ~200 rows).
func DefaultURLConfig() URLConfig {
	return URLConfig{
		Days:         120,
		ChunksPerDay: 10,
		RowsPerChunk: 150,
		Vocab:        20000,
		TokensPerRow: 15,
		HashDim:      1 << 18,
		Drift:        0.8,
		NoiseRate:    0.03,
		Seed:         42,
	}
}

// numURLFeatures is the count of numeric per-record features (URL length,
// digit count, dot count, subdomain depth in the real dataset's spirit).
const numURLFeatures = 4

// URL generates the URL-like stream.
type URL struct {
	cfg URLConfig

	baseW  []float64 // per-token base weight
	ampW   []float64 // per-token cyclic drift amplitude
	trendW []float64 // per-token directional drift slope
	phase  []float64 // per-token drift phase
	birth  []float64 // per-token activation day (growing feature set)
	numW   []float64 // weights of the numeric features
}

// NewURL returns a generator for the given config.
func NewURL(cfg URLConfig) *URL {
	if cfg.Days <= 0 || cfg.ChunksPerDay <= 0 || cfg.RowsPerChunk <= 0 || cfg.Vocab <= 0 {
		panic(fmt.Sprintf("dataset: invalid URL config %+v", cfg))
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	u := &URL{
		cfg:    cfg,
		baseW:  make([]float64, cfg.Vocab),
		ampW:   make([]float64, cfg.Vocab),
		trendW: make([]float64, cfg.Vocab),
		phase:  make([]float64, cfg.Vocab),
		birth:  make([]float64, cfg.Vocab),
		numW:   make([]float64, numURLFeatures),
	}
	for i := 0; i < cfg.Vocab; i++ {
		u.baseW[i] = r.NormFloat64()
		u.ampW[i] = cfg.Drift * r.NormFloat64()
		// Directional component: by the end of the deployment a token's
		// weight has moved ~2·Drift standard deviations from where it
		// started, so old chunks genuinely go stale (the paper observes
		// the URL dataset's characteristics gradually change over time).
		u.trendW[i] = 2 * cfg.Drift * r.NormFloat64()
		u.phase[i] = 2 * math.Pi * r.Float64()
		// 30% of tokens exist from day 0; the rest appear gradually over
		// the first 80% of the deployment (the dataset's growing feature
		// set).
		if r.Float64() < 0.3 {
			u.birth[i] = 0
		} else {
			u.birth[i] = r.Float64() * 0.8 * float64(cfg.Days)
		}
	}
	for i := range u.numW {
		u.numW[i] = 1.5 * r.NormFloat64()
	}
	return u
}

// Name identifies the generator.
func (u *URL) Name() string { return "url" }

// NumChunks returns the total deployment chunk count.
func (u *URL) NumChunks() int { return u.cfg.Days * u.cfg.ChunksPerDay }

// RowsPerChunk returns the configured chunk size.
func (u *URL) RowsPerChunk() int { return u.cfg.RowsPerChunk }

// tokenWeight returns the drifting true weight of token tok on a given
// day: a fixed base, a slow cycle, and a directional trend.
func (u *URL) tokenWeight(tok int, day float64) float64 {
	period := float64(u.cfg.Days)
	return u.baseW[tok] +
		u.ampW[tok]*math.Sin(2*math.Pi*day/period+u.phase[tok]) +
		u.trendW[tok]*day/period
}

// Chunk generates the raw records of chunk i. Record format (tab-separated):
//
//	label \t num0,num1,num2,num3 \t tok_A tok_B ...
//
// where label is +1/-1, numeric fields may be "?" (missing, ~4%), and
// tokens are symbolic feature names.
func (u *URL) Chunk(i int) [][]byte {
	if i < 0 || i >= u.NumChunks() {
		panic(fmt.Sprintf("dataset: URL chunk %d out of range [0,%d)", i, u.NumChunks()))
	}
	r := rand.New(rand.NewSource(u.cfg.Seed ^ (0x9e3779b9 * int64(i+1))))
	day := float64(i) / float64(u.cfg.ChunksPerDay)
	// The records are written back to back into one buffer and cut apart at
	// the end (the buffer moves while it grows); a row averages 35 bytes of
	// label and numbers plus 6 a token.
	buf := make([]byte, 0, u.cfg.RowsPerChunk*(40+6*u.cfg.TokensPerRow))
	ends := make([]int, u.cfg.RowsPerChunk)
	toks := make([]int, 0, 2*u.cfg.TokensPerRow)
	var nums [numURLFeatures]float64
	for row := range ends {
		// Draw tokens from the active vocabulary with a popularity skew:
		// token index ~ floor(V * u^2.5) favors low indices.
		nTok := 1 + r.Intn(2*u.cfg.TokensPerRow)
		toks = toks[:0]
		score := 0.0
		for len(toks) < nTok {
			tok := min(popularToken(float64(u.cfg.Vocab), r.Float64()), u.cfg.Vocab-1)
			if u.birth[tok] > day {
				continue // not yet in the feature set
			}
			toks = append(toks, tok)
			score += u.tokenWeight(tok, day)
		}
		score /= math.Sqrt(float64(len(toks)))
		// Numeric features, standardized at the source, contribute too.
		for k := range nums {
			nums[k] = r.NormFloat64()
			score += u.numW[k] * nums[k]
		}
		label := 1
		if score+0.2*r.NormFloat64() < 0 {
			label = -1
		}
		if r.Float64() < u.cfg.NoiseRate {
			label = -label
		}
		// Serialize.
		if label > 0 {
			buf = append(buf, "+1\t"...)
		} else {
			buf = append(buf, "-1\t"...)
		}
		for k, v := range nums {
			if k > 0 {
				buf = append(buf, ',')
			}
			if r.Float64() < 0.04 {
				buf = append(buf, '?') // missing value for the imputer
			} else {
				buf = appendFixed(buf, v, 4)
			}
		}
		buf = append(buf, '\t')
		for k, tok := range toks {
			if k > 0 {
				buf = append(buf, ' ')
			}
			buf = strconv.AppendInt(append(buf, 't'), int64(tok), 10)
		}
		ends[row] = len(buf)
	}
	return cutRecords(buf, ends)
}

// popularToken is int(V·math.Pow(x, 2.5)) for x in [0, 1), without Pow's
// Exp and Log: V·x²·√x takes four correctly rounded operations, so it is
// within 2^-50 of the exact product relatively, and Pow — Exp(Log(x)/2)·x²,
// whose Log errs by an ulp of |log x| ≤ 37 for a nonzero r.Float64() —
// within 2^-46. Two values that close truncate alike unless an integer lies
// between them, so a product within 2^-40 of one asks Pow.
func popularToken(vocab, x float64) int {
	f := vocab * (x * x * math.Sqrt(x))
	if k := math.Round(f); math.Abs(f-k) <= f*0x1p-40 {
		return int(vocab * math.Pow(x, 2.5))
	}
	return int(f)
}

// cutRecords slices a chunk's buffer into its records, each clipped to its
// own length so that appending to one cannot reach the next.
func cutRecords(buf []byte, ends []int) [][]byte {
	records := make([][]byte, len(ends))
	start := 0
	for row, end := range ends {
		records[row] = buf[start:end:end]
		start = end
	}
	return records
}

// urlParser parses URL records into a frame with float columns
// "num0".."num3" (Missing for "?"), string column "tokens", and float
// column "label" (+1/−1).
type urlParser struct{}

// Name implements pipeline.Parser.
func (urlParser) Name() string { return "url-parser" }

// Parse implements pipeline.Parser; malformed records — a wrong field count,
// a label other than ±1, a numeric field that is neither "?" nor a finite
// number — are dropped. Fields are scanned in place; the token strings of
// the whole batch share one allocation.
func (urlParser) Parse(records [][]byte) (*data.Frame, error) {
	labels := make([]float64, 0, len(records))
	var nums [numURLFeatures][]float64
	for k := range nums {
		nums[k] = make([]float64, 0, len(records))
	}
	// The accepted records' token fields, back to back, and where each one
	// ends; a record's length bounds its token field's.
	tokenText := make([]byte, 0, totalLen(records))
	ends := make([]int, 0, len(records))
	for _, rec := range records {
		if bytes.Count(rec, tab) != 2 {
			continue
		}
		field, rest := cutField(rec, '\t')
		y, ok := parseFinite(field)
		//lint:allow floateq: class labels are exactly ±1 on the wire
		if !ok || (y != 1 && y != -1) {
			continue
		}
		numField, toks := cutField(rest, '\t')
		if bytes.Count(numField, comma) != numURLFeatures-1 {
			continue
		}
		var row [numURLFeatures]float64
		for k := range row {
			field, numField = cutField(numField, ',')
			if len(field) == 1 && field[0] == '?' {
				row[k] = data.Missing
			} else if row[k], ok = parseFinite(field); !ok {
				break
			}
		}
		if !ok {
			continue
		}
		labels = append(labels, y)
		for k := range nums {
			nums[k] = append(nums[k], row[k])
		}
		tokenText = append(tokenText, toks...)
		ends = append(ends, len(tokenText))
	}
	all := string(tokenText)
	tokens := make([]string, len(ends))
	start := 0
	for i, end := range ends {
		tokens[i] = all[start:end]
		start = end
	}
	f := data.NewFrame(len(labels))
	f.SetFloat("label", labels)
	for k := range nums {
		f.SetFloat(urlNumCols[k], nums[k])
	}
	f.SetString("tokens", tokens)
	return f, nil
}

// urlNumCols names the numeric columns, built once.
var urlNumCols = func() (cols [numURLFeatures]string) {
	for k := range cols {
		cols[k] = fmt.Sprintf("num%d", k)
	}
	return cols
}()

// urlTokenCol is the URL pipeline's hashed-token column.
const urlTokenCol = "hashed-tokens"

// NewURLPipeline constructs the paper's URL pipeline: input parser → feature
// hasher (the tokens, into the configured dimensionality) → missing-value
// imputer → standard scaler → feature hasher (the scaled numerics, folded
// into the hashed tokens). The token hasher is stateless and comes before
// every stateful component, so it is part of the stateless head a tick runs
// once for both of its passes (Pipeline.Parse). A bucket shared by numerics
// and tokens sums the numerics, then the token count n + k, where one hasher
// over both would add the tokens one at a time, (n + 1) + 1: the two can
// differ in the last bit when a bucket holds a numeric and two or more
// tokens. The SVM model is created separately with NewURLModel.
func NewURLPipeline(hashDim int) *pipeline.Pipeline {
	numCols := append([]string(nil), urlNumCols[:]...)
	fold := pipeline.NewFeatureHasher(nil, numCols, "features", hashDim)
	fold.BaseCol = urlTokenCol
	return pipeline.New(urlParser{},
		pipeline.NewFeatureHasher([]string{"tokens"}, nil, urlTokenCol, hashDim),
		pipeline.NewImputer(numCols, nil),
		pipeline.NewStandardScaler(numCols),
		fold,
	)
}

// NewURLModel constructs the URL pipeline's SVM over the hashed feature
// space.
func NewURLModel(hashDim int, reg float64) *model.SVM {
	return model.NewSVM(hashDim, reg)
}

package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"cdml/datasets"
)

// Request payloads come from the repository's own synthetic generators,
// seeded by the run's seed; the server receives the bytes and nothing else.
// Chunk indices start after serverWarmupChunks so the records continue the
// stream the server warmed up on rather than replaying it.

const (
	// serverWarmupChunks is the -warmup every workload boots the server with.
	serverWarmupChunks = 1000
	// chunkRows is the training chunk size, the server's -rows default.
	chunkRows = 80
	// maxChunks bounds the chunk indices a run may ask a generator for:
	// warm-up, plus far more training chunks than any window can send.
	maxChunks = 60000
)

// chunkSource yields the raw records of chunk i of a seeded stream.
type chunkSource func(i int) [][]byte

// newChunkSource returns the generator of the named pipeline ("url" or
// "taxi") with rows records per chunk.
func newChunkSource(pipeline string, seed int64, rows int) (chunkSource, error) {
	switch pipeline {
	case "url":
		cfg := datasets.DefaultURLConfig()
		cfg.Days = maxChunks / cfg.ChunksPerDay
		cfg.RowsPerChunk = rows
		cfg.Vocab = 5000 // the vocabulary cdml-serve warms up on
		cfg.Seed = seed
		return datasets.NewURL(cfg).Chunk, nil
	case "taxi":
		cfg := datasets.DefaultTaxiConfig()
		cfg.Chunks = maxChunks
		cfg.RowsPerChunk = rows
		cfg.Seed = seed
		return datasets.NewTaxi(cfg).Chunk, nil
	default:
		return nil, fmt.Errorf("unknown pipeline %q", pipeline)
	}
}

// joinRecords renders records as a request body: newline-separated.
func joinRecords(records [][]byte) []byte {
	return append(bytes.Join(records, []byte{'\n'}), '\n')
}

// predictBodies builds n distinct predict request bodies of batch records
// each, from chunks first, first+1, … of the stream.
func predictBodies(pipeline string, seed int64, batch, n, first int) ([][]byte, error) {
	src, err := newChunkSource(pipeline, seed, max(batch, chunkRows))
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, 0, n)
	for c := first; len(bodies) < n; c++ {
		recs := src(c)
		for len(recs) >= batch && len(bodies) < n {
			bodies = append(bodies, joinRecords(recs[:batch]))
			recs = recs[batch:]
		}
	}
	return bodies, nil
}

// trainChunk is one labelled chunk ready to post, with what the trivial
// predictor needs to know about its labels.
type trainChunk struct {
	body   []byte
	labels []float64
}

// trainChunks builds chunks first … first+n-1 of the stream as request
// bodies.
func trainChunks(pipeline string, seed int64, first, n int) ([]trainChunk, error) {
	src, err := newChunkSource(pipeline, seed, chunkRows)
	if err != nil {
		return nil, err
	}
	out := make([]trainChunk, n)
	for i := range out {
		recs := src(first + i)
		labels, err := labelsOf(pipeline, recs)
		if err != nil {
			return nil, err
		}
		out[i] = trainChunk{body: joinRecords(recs), labels: labels}
	}
	return out, nil
}

// taxiTimeLayout is the timestamp format of the taxi records.
const taxiTimeLayout = "2006-01-02 15:04:05"

// labelsOf reads the training target out of raw records the way the
// pipeline defines it: the leading ±1 of a URL record, and log1p(dropoff −
// pickup seconds) of a taxi trip the anomaly detector keeps.
func labelsOf(pipeline string, records [][]byte) ([]float64, error) {
	out := make([]float64, 0, len(records))
	for _, rec := range records {
		switch pipeline {
		case "url":
			switch {
			case bytes.HasPrefix(rec, []byte("+1\t")):
				out = append(out, 1)
			case bytes.HasPrefix(rec, []byte("-1\t")):
				out = append(out, -1)
			default:
				return nil, fmt.Errorf("url record without a ±1 label: %q", rec)
			}
		case "taxi":
			f := bytes.Split(rec, []byte{','})
			if len(f) != 7 {
				return nil, fmt.Errorf("taxi record with %d fields: %q", len(f), rec)
			}
			pick, err1 := time.Parse(taxiTimeLayout, string(f[0]))
			drop, err2 := time.Parse(taxiTimeLayout, string(f[1]))
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("taxi record with unreadable times: %q", rec)
			}
			// The pipeline's anomaly detector removes these trips before
			// the model is scored on them, so the trivial predictor is not
			// scored on them either.
			d := drop.Sub(pick).Seconds()
			if d > 22*3600 || d < 10 || (bytes.Equal(f[2], f[4]) && bytes.Equal(f[3], f[5])) {
				continue
			}
			out = append(out, math.Log1p(d))
		}
	}
	return out, nil
}

// trivialError is the prequential error of the predictor that ignores its
// input, over every label sent: for the URL classifier always answering the
// majority class (misclassification rate), for the taxi regressor always
// answering the mean (RMSE). A deployed model that does not beat it has
// learned nothing.
func trivialError(pipeline string, labels []float64) float64 {
	if len(labels) == 0 {
		return math.Inf(1)
	}
	n := float64(len(labels))
	if pipeline == "url" {
		pos := 0.0
		for _, y := range labels {
			if y > 0 {
				pos++
			}
		}
		return min(pos, n-pos) / n
	}
	mean := 0.0
	for _, y := range labels {
		mean += y
	}
	mean /= n
	ss := 0.0
	for _, y := range labels {
		ss += (y - mean) * (y - mean)
	}
	return math.Sqrt(ss / n)
}

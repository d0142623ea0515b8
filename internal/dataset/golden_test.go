package dataset

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// TestGeneratorBytesGolden pins the generators' output byte for byte: the
// system benchmark's request payloads and the server's warm-up stream come
// from URL.Chunk and Taxi.Chunk, so a rewrite of either may change how the
// bytes are produced and never which. The digests were recorded before the
// generators were moved off fmt (DESIGN.md §5p), over chunks 0, 1 and 999 —
// every record followed by a newline — at seeds 1 and 42, with the
// configurations that matter: cdml-serve's for a 1000-chunk warm-up and the
// load generator's (benchmark/payload.go: 80-row training chunks, and the
// 256-row chunks taxi-b256 cuts its predict bodies from). A Taxi chunk does
// not depend on the stream's length, so server and load generator share a row.
func TestGeneratorBytesGolden(t *testing.T) {
	url := func(days int) func(seed int64) func(int) [][]byte {
		return func(seed int64) func(int) [][]byte {
			cfg := DefaultURLConfig()
			cfg.Days, cfg.RowsPerChunk, cfg.Vocab, cfg.HashDim, cfg.Seed = days, 80, 5000, 1<<15, seed
			return NewURL(cfg).Chunk
		}
	}
	taxi := func(rows int) func(seed int64) func(int) [][]byte {
		return func(seed int64) func(int) [][]byte {
			cfg := DefaultTaxiConfig()
			cfg.Chunks, cfg.RowsPerChunk, cfg.Seed = 60000, rows, seed
			return NewTaxi(cfg).Chunk
		}
	}
	for _, tc := range []struct {
		name          string
		stream        func(seed int64) func(int) [][]byte
		seed1, seed42 string
	}{
		{"url/server", url(101),
			"9656f1db84ea2a94ed3cafe074609a399b8c302b9bd4b73cf2da4f518f8ced28",
			"0f4311519b6af0f0561cba7a53cf9f06ec90b4fa901980d733ef1ebedd66718c"},
		{"url/loadgen", url(6000),
			"54e0da0445ceff4fb19822e4e7f7eed1d7ec21664eb0edd6272ea1977b06d3f7",
			"c8ebe1873d003c6a15b7d4a01e913858dc38f501bc9ce211f435fcd79a23afcd"},
		{"taxi/rows80", taxi(80),
			"193755b8097b952457756c8df32ae53c5dcbd7be9b8276098995bc1f2ee5f03a",
			"710b186f413279babd77c77d1a3253a7ef6813bcd75295d8bbde8f342305abe0"},
		{"taxi/rows256", taxi(256),
			"4c101422774cf3420812e27a5d317a1e06b3e7da171bf8711ef9f093b4a4249d",
			"3db05b494cb68443cd97ded16e5beac821989bd30a26c15707b245b004e11e15"},
	} {
		for seed, want := range map[int64]string{1: tc.seed1, 42: tc.seed42} {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				chunk := tc.stream(seed)
				h := sha256.New()
				for _, i := range []int{0, 1, 999} {
					for _, rec := range chunk(i) {
						h.Write(rec)
						h.Write([]byte{'\n'})
					}
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != want {
					t.Errorf("digest %s, want %s", got, want)
				}
			})
		}
	}
}

// TestPopularTokenIsPow checks popularToken against int(V·math.Pow(x, 2.5))
// where the two could part, at cdml-serve's vocabulary: for every token k,
// at the smallest x that draws k or a later token, 16 ulps on either side of
// it — where the fast product is too close to k to be trusted — and 2^10 to
// 2^14 ulps away, just past that guard, where it is.
func TestPopularTokenIsPow(t *testing.T) {
	const vocab = 5000
	pow := func(x float64) int { return int(vocab * math.Pow(x, 2.5)) }
	for k := 1; k < vocab; k++ {
		// The smallest x in [0, 1) with pow(x) ≥ k: the bits of
		// non-negative floats are ordered like their values.
		lo, hi := uint64(0), math.Float64bits(1)
		for lo < hi {
			if mid := lo + (hi-lo)/2; pow(math.Float64frombits(mid)) >= k {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		var offsets []int64
		for d := int64(-16); d <= 16; d++ {
			offsets = append(offsets, d)
		}
		for e := 10; e <= 14; e++ {
			offsets = append(offsets, -1<<e, 1<<e)
		}
		for _, d := range offsets {
			x := math.Float64frombits(uint64(int64(lo) + d))
			if got, want := popularToken(vocab, x), pow(x); got != want {
				t.Fatalf("token %d, x = %v (%+d ulps): %d, Pow draws %d", k, x, d, got, want)
			}
		}
	}
}

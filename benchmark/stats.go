package main

import (
	"math"
	"slices"
	"time"
)

// latencies is one operation kind's wire-latency sample, in arrival order
// until sorted.
type latencies []time.Duration

func (l latencies) sorted() latencies {
	s := slices.Clone(l)
	slices.Sort(s)
	return s
}

// quantileOf returns the q-quantile (0 ≤ q ≤ 1) of an ascending sample by
// the nearest-rank rule, so every reported value is one that was measured.
func quantileOf(sorted latencies, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := rankOf(len(sorted), q) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// rankOf is the 1-based nearest rank of the q-quantile among n samples,
// ⌈q·n⌉, computed so that a product like 0.999·1000 that lands a hair above
// a whole number in floating point does not round up to the next rank.
func rankOf(n int, q float64) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// tailLadder is the set of percentiles a report may quote.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// minBeyond is how many samples must lie beyond a percentile before it is
// quoted: with fewer, the figure is one outlier, not a tail.
const minBeyond = 10

// supportedTail returns the highest percentile of tailLadder that has at
// least minBeyond of n samples beyond it, and false when even the median
// has not.
func supportedTail(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, q := range tailLadder {
		if n-rankOf(n, q) >= minBeyond {
			best, ok = q, true
		}
	}
	return best, ok
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of a float sample; the sample is copied, not reordered.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(v))
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is what
// the acceptance check of the benchmark uses for the run-to-run spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	//lint:allow floateq: guards the division below against an exactly-zero median
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

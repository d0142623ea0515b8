package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets is the fixed bucket count of every Histogram. Bucket i counts
// observations whose duration in nanoseconds d satisfies
// bits.Len64(d) == i, i.e. d in [2^(i-1), 2^i) (bucket 0 holds exactly 0).
// The geometric ladder spans 1ns to ~2.5h with a worst-case relative error
// of 2x per bucket, which quantile interpolation reduces further — ample
// resolution for latencies whose interesting range covers nine orders of
// magnitude.
const numBuckets = 44

// bucketUpperBound returns bucket i's exclusive upper bound in seconds
// (2^i nanoseconds).
func bucketUpperBound(i int) float64 {
	return float64(uint64(1)<<uint(i)) / 1e9
}

// Histogram is a log-bucketed latency histogram. Observe is a fixed number
// of atomic adds with zero allocations; Quantile and Snapshot read a
// best-effort atomic snapshot (buckets are read one by one, so a scrape
// racing an observation may be off by the in-flight event — harmless for
// monitoring). The zero value is ready to use.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	sum     atomic.Int64 // nanoseconds
	count   atomic.Int64

	// exemplar is the most interesting recent traced observation (highest
	// bucket wins; a stale exemplar is displaced by any traced observation).
	// Written only by ObserveExemplar, read at scrape time.
	exemplar atomic.Pointer[exemplar]
}

// exemplar links one concrete observation to the trace that produced it, so
// a slow histogram bucket can be followed to the exact request via
// .../trace?id=<trace id>.
type exemplar struct {
	// TraceID identifies the trace behind this observation.
	TraceID string
	// Bucket is the histogram bucket the observation landed in.
	Bucket int
	// Duration is the observed duration.
	Duration time.Duration
	// At is when the observation was recorded.
	At time.Time
}

// exemplarTTL bounds how long an exemplar shadows slower candidates: after a
// minute any traced observation may replace it, so the exposed exemplar
// tracks recent traffic rather than the all-time worst case.
const exemplarTTL = time.Minute

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a nanosecond duration to its bucket.
//
//cdml:hotpath
func bucketIndex(nanos int64) int {
	if nanos <= 0 {
		return 0
	}
	idx := bits.Len64(uint64(nanos))
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	return idx
}

// Observe records one duration.
//
//cdml:hotpath
func (h *Histogram) Observe(d time.Duration) {
	n := d.Nanoseconds()
	if n < 0 {
		n = 0
	}
	h.buckets[bucketIndex(n)].Add(1)
	h.sum.Add(n)
	h.count.Add(1)
}

// ObserveExemplar records one duration and, when traceID is non-empty,
// offers it as the histogram's exemplar. An observation wins the slot when
// it lands in a bucket at least as high as the current exemplar's or when
// the current exemplar is older than a minute — so the exposed exemplar
// points at a recent slow request, the one worth pulling up in .../trace.
// Racing writers may drop an offer; exemplars are best-effort by design.
func (h *Histogram) ObserveExemplar(d time.Duration, traceID string) {
	h.Observe(d)
	if traceID == "" {
		return
	}
	n := d.Nanoseconds()
	if n < 0 {
		n = 0
	}
	idx := bucketIndex(n)
	cur := h.exemplar.Load()
	if cur != nil && idx < cur.Bucket && time.Since(cur.At) < exemplarTTL {
		return
	}
	h.exemplar.Store(&exemplar{TraceID: traceID, Bucket: idx, Duration: d, At: time.Now()})
}

// lastExemplar returns the current exemplar, if any traced observation has been
// recorded.
func (h *Histogram) lastExemplar() (exemplar, bool) {
	e := h.exemplar.Load()
	if e == nil {
		return exemplar{}, false
	}
	return *e, true
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Snapshot returns per-bucket counts, the sum in seconds, and the count.
func (h *Histogram) Snapshot() (counts [numBuckets]int64, sum float64, count int64) {
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return counts, float64(h.sum.Load()) / 1e9, h.count.Load()
}

// quantile estimates the q-quantile (q in [0,1]) in seconds by linear
// interpolation within the target bucket. Estimates are monotone in q by
// construction. Returns 0 when the histogram is empty.
func (h *Histogram) quantile(q float64) float64 {
	counts, _, _ := h.Snapshot()
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the target observation.
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo := 0.0
			if i > 0 {
				lo = bucketUpperBound(i - 1)
			}
			hi := bucketUpperBound(i)
			frac := (float64(rank-cum) - 0.5) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	return bucketUpperBound(numBuckets - 1)
}

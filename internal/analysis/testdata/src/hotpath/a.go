// Fixture for the hotpath analyzer: allocation- and syscall-bearing
// constructs are flagged only inside //cdml:hotpath-annotated functions;
// panic arguments are exempt, and //lint:allow hotpath overrides.
package fixture

import (
	"fmt"
	"time"
)

type observer struct {
	last  int64
	calls int64
}

// observe is the per-event write path.
//
//cdml:hotpath
func (o *observer) observe(nanos int64) {
	if nanos < 0 {
		panic(fmt.Sprintf("negative duration %d", nanos)) // cold branch: exempt
	}
	o.last = nanos
	o.calls++
}

//cdml:hotpath
func flagged(vs []float64) float64 {
	start := time.Now()               // want `time\.Now\(\) is a syscall`
	_ = fmt.Sprintf("n=%d", len(vs))  // want `fmt\.Sprintf allocates`
	_ = fmt.Errorf("boom")            // want `fmt\.Errorf allocates`
	m := map[string]int{"a": 1}       // want `map literal allocates`
	s := []int{1, 2, 3}               // want `slice literal allocates`
	f := func() int { return len(m) } // want `closure`
	_ = interface{}(vs)               // want `conversion to interface`
	var sum float64
	for _, v := range vs {
		sum += v
	}
	_ = start
	_ = s
	_ = f
	return sum
}

//cdml:hotpath
func clean(w []float64, idx []int32, val []float64) float64 {
	if len(idx) != len(val) {
		panic(fmt.Sprintf("len mismatch %d != %d", len(idx), len(val)))
	}
	var sum float64
	for k, i := range idx {
		sum += val[k] * w[i]
	}
	return sum
}

//cdml:hotpath
func allowed() time.Time {
	return time.Now() //lint:allow hotpath: latency measurement needs the wall clock
}

// notAnnotated is ordinary code — nothing is flagged.
func notAnnotated() (time.Time, string) {
	return time.Now(), fmt.Sprintf("%v", []int{1})
}

// arrayLiteralsAreFine: arrays are values, not heap allocations.
//
//cdml:hotpath
func arrayLiteralsAreFine() int {
	classes := [4]int{2, 3, 4, 5}
	return classes[1]
}

// clampedIndex mirrors a histogram's bucket choice (obs.bucketIndex):
// pure integer arithmetic, nothing flagged.
//
//cdml:hotpath
func clampedIndex(n, width, limit int) int {
	idx := (n + width - 1) / width
	if idx >= limit {
		idx = limit - 1
	}
	return idx
}

// accumulate mirrors a gradient sum's inner loop (linalg.Dense.AddScaledTo):
// index-order accumulation into a caller-provided buffer stays
// annotation-clean.
//
//cdml:hotpath
func accumulate(dst []float64, parts [][]float64) float64 {
	var lossSum float64
	for _, p := range parts {
		for i, v := range p {
			dst[i] += v
		}
		lossSum += float64(len(p))
	}
	return lossSum
}

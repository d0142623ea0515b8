// Fixture for the determinism analyzer: //cdml:deterministic functions and
// their transitive same-package callees must avoid map iteration, the wall
// clock, and unseeded randomness; dynamic callees must carry the
// annotation as part of the interface contract.
package fixture

import (
	"math/rand"
	"time"
)

// sum is deterministic and clean: slice iteration, seeded randomness.
//
//cdml:deterministic
func sum(xs []float64) float64 {
	var total float64
	for _, x := range xs {
		total += x
	}
	r := rand.New(rand.NewSource(42))
	return total + r.Float64()*0
}

// mapOrder iterates a map inside the deterministic contract.
//
//cdml:deterministic
func mapOrder(m map[string]float64) float64 {
	var total float64
	for _, v := range m { // want `map iteration in //cdml:deterministic mapOrder`
		total += v
	}
	return total
}

// clocked consults the wall clock.
//
//cdml:deterministic
func clocked() int64 {
	return time.Now().UnixNano() // want `time\.Now in //cdml:deterministic clocked`
}

// unseeded draws from the global source.
//
//cdml:deterministic
func unseeded() float64 {
	return rand.Float64() // want `global Float64 draw in //cdml:deterministic unseeded`
}

// helper is unannotated: the obligation flows into it transitively.
func helper(m map[string]int) int {
	n := 0
	for k := range m { // want `map iteration in helper \(reached from //cdml:deterministic viaHelper\)`
		n += len(k)
	}
	return n
}

// viaHelper itself is clean; the violation sits in its callee.
//
//cdml:deterministic
func viaHelper(m map[string]int) int {
	return helper(m)
}

// cleanHelper exercises the transitive walk without a violation.
func cleanHelper(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

//cdml:deterministic
func viaCleanHelper(xs []int) int {
	return cleanHelper(xs)
}

// reducer shows the annotation as interface contract: reduce carries it,
// merge does not.
type reducer interface {
	//cdml:deterministic
	reduce(a, b int) int

	merge(a, b int) int
}

// apply may call reduce (the contract promises determinism) but not merge.
//
//cdml:deterministic
func apply(r reducer) int {
	x := r.reduce(1, 2)
	return r.merge(x, 3) // want `call to merge in //cdml:deterministic apply: dynamic callee is not annotated`
}

// instrumented documents timing instrumentation that feeds stats, not
// results.
//
//cdml:deterministic
func instrumented(xs []float64) float64 {
	start := time.Now() //lint:allow determinism: timing feeds a latency histogram, never the numeric result
	var total float64
	for _, x := range xs {
		total += x
	}
	_ = start
	return total
}

// Fault injection for storage chaos tests. FaultBackend wraps any Backend
// with programmable failpoints — fail the next N calls, or a seeded fraction
// of calls — so tests can prove that a failed storage operation surfaces as
// one clean failed tick and that recovery machinery tolerates a misbehaving
// store. It lives in the main build (not a _test file) so chaos suites in
// other packages and future load-testing binaries can reuse it; production
// stacks simply never construct one.

package data

import (
	"math/rand"
	"sync"
)

// Op identifies one Backend operation a failpoint targets.
type Op string

// Backend operations.
const (
	OpPutRaw         Op = "put_raw"
	OpGetRaw         Op = "get_raw"
	OpPutFeatures    Op = "put_features"
	OpGetFeatures    Op = "get_features"
	OpDeleteFeatures Op = "delete_features"
	OpDeleteRaw      Op = "delete_raw"
)

// opAll targets every backend operation when installing a fault rule.
const opAll Op = "*"

// faultRule is one armed failpoint.
type faultRule struct {
	op        Op    // operation it applies to (opAll matches everything)
	remaining int64 // >0: fail this many more matching calls; -1: unlimited
	rate      float64
	rnd       func() float64
	err       error
}

// FaultBackend injects failures into a wrapped Backend.
// All methods are safe for concurrent use; rule installation may race with
// in-flight operations (that is the point of a chaos test).
type FaultBackend struct {
	base Backend

	mu    sync.Mutex
	rules []*faultRule //cdml:guardedby mu
}

// NewFaultBackend wraps base with no failpoints armed: until a fail rule is
// installed it is a transparent pass-through.
func NewFaultBackend(base Backend) *FaultBackend {
	return &FaultBackend{base: base}
}

// FailN arms a failpoint: the next n matching calls return err instead of
// reaching the base backend.
func (f *FaultBackend) FailN(op Op, n int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = append(f.rules, &faultRule{op: op, remaining: int64(n), err: err})
}

// failRate arms a probabilistic failpoint: each matching call fails with
// probability p, drawn from the seeded source so chaos runs replay
// identically. The rule stays armed until Reset.
func (f *FaultBackend) failRate(op Op, p float64, err error, seed int64) {
	src := rand.New(rand.NewSource(seed))
	var mu sync.Mutex
	rnd := func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return src.Float64()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = append(f.rules, &faultRule{op: op, remaining: -1, rate: p, rnd: rnd, err: err})
}

// Reset disarms every failpoint.
func (f *FaultBackend) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = nil
}

// check consults the armed rules for op and returns the first matching
// injected error.
func (f *FaultBackend) check(op Op) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range f.rules {
		if r.op != opAll && r.op != op {
			continue
		}
		switch {
		case r.remaining > 0:
			r.remaining--
			return r.err
		case r.remaining < 0 && r.rnd != nil && r.rnd() < r.rate:
			return r.err
		}
	}
	return nil
}

// PutRaw implements Backend.
func (f *FaultBackend) PutRaw(rc RawChunk) error {
	if err := f.check(OpPutRaw); err != nil {
		return err
	}
	return f.base.PutRaw(rc)
}

// GetRaw implements Backend.
func (f *FaultBackend) GetRaw(id Timestamp) (RawChunk, error) {
	if err := f.check(OpGetRaw); err != nil {
		return RawChunk{}, err
	}
	return f.base.GetRaw(id)
}

// PutFeatures implements Backend.
func (f *FaultBackend) PutFeatures(fc FeatureChunk) error {
	if err := f.check(OpPutFeatures); err != nil {
		return err
	}
	return f.base.PutFeatures(fc)
}

// GetFeatures implements Backend.
func (f *FaultBackend) GetFeatures(id Timestamp) (FeatureChunk, error) {
	if err := f.check(OpGetFeatures); err != nil {
		return FeatureChunk{}, err
	}
	return f.base.GetFeatures(id)
}

// DeleteFeatures implements Backend.
func (f *FaultBackend) DeleteFeatures(id Timestamp) error {
	if err := f.check(OpDeleteFeatures); err != nil {
		return err
	}
	return f.base.DeleteFeatures(id)
}

// DeleteRaw implements Backend.
func (f *FaultBackend) DeleteRaw(id Timestamp) error {
	if err := f.check(OpDeleteRaw); err != nil {
		return err
	}
	return f.base.DeleteRaw(id)
}

// Close implements Backend (never injected: teardown should stay clean).
func (f *FaultBackend) Close() error { return f.base.Close() }

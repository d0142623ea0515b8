package data

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"cdml/internal/obs"
)

// Op identifies one Backend operation for fault injection and retry
// accounting. The string values double as the metric label.
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

// numOps sizes the per-operation counter arrays.
const numOps = 6

// ops lists every retried operation in metric-label order.
var ops = [numOps]Op{OpPutRaw, OpGetRaw, OpPutFeatures, OpGetFeatures, OpDeleteFeatures, OpDeleteRaw}

// opIndex maps an Op to its counter slot.
func opIndex(op Op) int {
	for i, o := range ops {
		if o == op {
			return i
		}
	}
	return 0
}

// RetryPolicy bounds the retry loop of a RetryBackend. The zero value is
// usable: DefaultRetryPolicy() fills every unset field.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per operation, including the
	// first (default 4; 1 disables retrying).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 10ms); it
	// doubles after every failed attempt up to MaxDelay (default 1s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// JitterFrac spreads each delay uniformly over ±JitterFrac·delay
	// (default 0.2) so synchronized retries do not stampede a recovering
	// backend. Jitter draws from Rand, making backoff sequences
	// deterministic under a seeded source.
	JitterFrac float64
	// Rand supplies jitter randomness in [0,1). nil defaults to a private
	// seeded source (deterministic per backend, safe for concurrent use).
	Rand func() float64
	// Sleep waits between attempts; nil defaults to a context-aware timer
	// sleep. Tests inject a recording fake to assert the backoff schedule
	// without wall-clock waits.
	Sleep func(ctx context.Context, d time.Duration) error
}

// DefaultRetryPolicy returns the policy used when fields are unset.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    time.Second,
		JitterFrac:  0.2,
	}
}

// withDefaults fills unset fields from DefaultRetryPolicy.
func (p RetryPolicy) withDefaults() RetryPolicy {
	def := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = def.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = def.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = def.MaxDelay
	}
	if p.JitterFrac < 0 {
		p.JitterFrac = 0
		//lint:allow floateq: the exact zero value is the "use default" sentinel; negatives disable jitter above
	} else if p.JitterFrac == 0 {
		p.JitterFrac = def.JitterFrac
	}
	return p
}

// RetryBackend decorates any Backend with bounded exponential-backoff
// retries, healing transient storage errors (a flaky disk, a briefly
// unreachable store) before they fail a whole training tick. Permanent
// conditions pass through untouched: errNotFound is the protocol for "chunk
// absent" and is never retried, and neither is a context error from the base
// backend.
//
// The decorator sits under TieredBackend in the default stack — cache hits
// never pay a retry check; only real base-backend IO does.
type RetryBackend struct {
	base Backend
	pol  RetryPolicy
	ctx  context.Context

	retries [numOps]atomic.Int64
	giveups [numOps]atomic.Int64
}

// NewRetryBackend wraps base with the given retry policy (zero-value fields
// take defaults; see RetryPolicy).
//
//cdml:detached backoff sleeps belong to no request: the default policy's whole backoff is 10 + 20 + 40 ms ± 20 %, which a drain can sit out
func NewRetryBackend(base Backend, pol RetryPolicy) *RetryBackend {
	r := &RetryBackend{base: base, pol: pol.withDefaults(), ctx: context.Background()}
	if r.pol.Rand == nil {
		src := rand.New(rand.NewSource(1))
		var mu sync.Mutex
		r.pol.Rand = func() float64 {
			mu.Lock()
			defer mu.Unlock()
			return src.Float64()
		}
	}
	if r.pol.Sleep == nil {
		r.pol.Sleep = sleepCtx
	}
	return r
}

// sleepCtx waits d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryable reports whether an error is worth another attempt. errNotFound
// is the backend protocol for an absent chunk — retrying cannot make it
// appear — a chunk file that fails its checks reads the same the next time,
// and context errors mean the caller is gone.
func retryable(err error) bool {
	return err != nil &&
		!errors.Is(err, errNotFound) &&
		!errors.Is(err, errCorruptChunk) &&
		!errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded)
}

// do runs f under the retry policy, counting retries and give-ups per op.
func (r *RetryBackend) do(op Op, f func() error) error {
	k := opIndex(op)
	delay := r.pol.BaseDelay
	var err error
	for attempt := 1; ; attempt++ {
		err = f()
		if !retryable(err) {
			return err // success, not-found, or cancellation: pass through
		}
		if attempt >= r.pol.MaxAttempts {
			r.giveups[k].Add(1)
			return fmt.Errorf("data: %s failed after %d attempts: %w", op, attempt, err)
		}
		r.retries[k].Add(1)
		if serr := r.pol.Sleep(r.ctx, r.jitter(delay)); serr != nil {
			r.giveups[k].Add(1)
			return fmt.Errorf("data: %s retry canceled after %d attempts: %w", op, attempt, err)
		}
		delay = min(delay*2, r.pol.MaxDelay)
	}
}

// jitter spreads d uniformly over ±JitterFrac·d.
func (r *RetryBackend) jitter(d time.Duration) time.Duration {
	if r.pol.JitterFrac <= 0 {
		return d
	}
	spread := (2*r.pol.Rand() - 1) * r.pol.JitterFrac // in [-JitterFrac, +JitterFrac)
	return time.Duration(float64(d) * (1 + spread))
}

// Retries returns the cumulative retry count of one operation.
func (r *RetryBackend) Retries(op Op) int64 { return r.retries[opIndex(op)].Load() }

// Giveups returns the cumulative give-up count (retry budget exhausted or
// backoff canceled) of one operation.
func (r *RetryBackend) Giveups(op Op) int64 { return r.giveups[opIndex(op)].Load() }

// totalRetries sums retries across all operations.
func (r *RetryBackend) totalRetries() int64 {
	var n int64
	for i := range r.retries {
		n += r.retries[i].Load()
	}
	return n
}

// Instrument registers per-operation retry/give-up counters with reg, read
// at scrape time from the backend's atomics. labels keep the series of
// several backends sharing one registry apart.
func (r *RetryBackend) Instrument(reg *obs.Registry, labels ...obs.Label) {
	for i, op := range ops {
		i := i
		ls := append(append([]obs.Label{}, labels...), obs.L("op", string(op)))
		reg.CounterFunc("cdml_store_retries_total",
			"Storage operations retried after a transient backend error.",
			func() float64 { return float64(r.retries[i].Load()) }, ls...)
		reg.CounterFunc("cdml_store_giveups_total",
			"Storage operations that exhausted their retry budget.",
			func() float64 { return float64(r.giveups[i].Load()) }, ls...)
	}
}

// PutRaw implements Backend with retries.
func (r *RetryBackend) PutRaw(rc RawChunk) error {
	return r.do(OpPutRaw, func() error { return r.base.PutRaw(rc) })
}

// GetRaw implements Backend with retries.
func (r *RetryBackend) GetRaw(id Timestamp) (RawChunk, error) {
	var rc RawChunk
	err := r.do(OpGetRaw, func() error {
		var e error
		rc, e = r.base.GetRaw(id)
		return e
	})
	return rc, err
}

// PutFeatures implements Backend with retries.
func (r *RetryBackend) PutFeatures(fc FeatureChunk) error {
	return r.do(OpPutFeatures, func() error { return r.base.PutFeatures(fc) })
}

// GetFeatures implements Backend with retries.
func (r *RetryBackend) GetFeatures(id Timestamp) (FeatureChunk, error) {
	var fc FeatureChunk
	err := r.do(OpGetFeatures, func() error {
		var e error
		fc, e = r.base.GetFeatures(id)
		return e
	})
	return fc, err
}

// DeleteFeatures implements Backend with retries.
func (r *RetryBackend) DeleteFeatures(id Timestamp) error {
	return r.do(OpDeleteFeatures, func() error { return r.base.DeleteFeatures(id) })
}

// DeleteRaw implements Backend with retries.
func (r *RetryBackend) DeleteRaw(id Timestamp) error {
	return r.do(OpDeleteRaw, func() error { return r.base.DeleteRaw(id) })
}

// Close implements Backend (no retry: closing is best-effort teardown).
func (r *RetryBackend) Close() error { return r.base.Close() }

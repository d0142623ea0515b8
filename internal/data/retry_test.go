package data

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cdml/internal/obs"
)

var errFlaky = errors.New("transient backend failure")

// recordingSleep captures the backoff schedule without wall-clock waits.
type recordingSleep struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (rs *recordingSleep) sleep(ctx context.Context, d time.Duration) error {
	rs.mu.Lock()
	rs.delays = append(rs.delays, d)
	rs.mu.Unlock()
	return ctx.Err()
}

func newTestRetry(base Backend, attempts int) (*RetryBackend, *recordingSleep) {
	rs := &recordingSleep{}
	r := NewRetryBackend(base, RetryPolicy{
		MaxAttempts: attempts,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    80 * time.Millisecond,
		Sleep:       rs.sleep,
	})
	return r, rs
}

func TestRetryHealsTransientErrors(t *testing.T) {
	fb := NewFaultBackend(NewMemoryBackend())
	r, rs := newTestRetry(fb, 4)
	fb.FailN(OpPutRaw, 2, errFlaky)

	if err := r.PutRaw(RawChunk{ID: 1, Records: [][]byte{[]byte("a")}}); err != nil {
		t.Fatalf("transient errors not healed: %v", err)
	}
	if got := r.Retries(OpPutRaw); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
	if got := r.Giveups(OpPutRaw); got != 0 {
		t.Fatalf("giveups = %d, want 0", got)
	}
	if len(rs.delays) != 2 {
		t.Fatalf("sleeps = %d, want 2", len(rs.delays))
	}
	// The chunk really landed on the base backend.
	if _, err := r.GetRaw(1); err != nil {
		t.Fatalf("chunk lost after retried put: %v", err)
	}
}

func TestRetryExhaustsBudgetAndGivesUp(t *testing.T) {
	fb := NewFaultBackend(NewMemoryBackend())
	r, rs := newTestRetry(fb, 3)
	fb.FailN(OpGetFeatures, 100, errFlaky)
	if err := r.PutFeatures(FeatureChunk{ID: 7}); err != nil {
		t.Fatal(err)
	}

	_, err := r.GetFeatures(7)
	if err == nil {
		t.Fatal("exhausted retries reported success")
	}
	if !errors.Is(err, errFlaky) {
		t.Fatalf("cause lost: %v", err)
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("attempt count missing from error: %v", err)
	}
	if got := r.Giveups(OpGetFeatures); got != 1 {
		t.Fatalf("giveups = %d, want 1", got)
	}
	if got := r.Retries(OpGetFeatures); got != 2 {
		t.Fatalf("retries = %d, want 2 (attempts-1)", got)
	}
	if len(rs.delays) != 2 {
		t.Fatalf("sleeps = %d, want 2", len(rs.delays))
	}
}

func TestRetryBackoffDoublesAndCaps(t *testing.T) {
	fb := NewFaultBackend(NewMemoryBackend())
	rs := &recordingSleep{}
	r := NewRetryBackend(fb, RetryPolicy{
		MaxAttempts: 6,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    40 * time.Millisecond,
		JitterFrac:  -1, // negative disables jitter: exact schedule asserted
		Sleep:       rs.sleep,
	})
	fb.FailN(OpPutRaw, 100, errFlaky)

	if err := r.PutRaw(RawChunk{ID: 1}); err == nil {
		t.Fatal("want failure")
	}
	want := []time.Duration{10, 20, 40, 40, 40}
	for i := range want {
		want[i] *= time.Millisecond
	}
	if len(rs.delays) != len(want) {
		t.Fatalf("delays %v, want %v", rs.delays, want)
	}
	for i := range want {
		if rs.delays[i] != want[i] {
			t.Fatalf("delay[%d] = %v, want %v (schedule %v)", i, rs.delays[i], want[i], rs.delays)
		}
	}
}

func TestRetryJitterIsDeterministicUnderSeededSource(t *testing.T) {
	schedule := func() []time.Duration {
		fb := NewFaultBackend(NewMemoryBackend())
		rs := &recordingSleep{}
		r := NewRetryBackend(fb, RetryPolicy{
			MaxAttempts: 5,
			BaseDelay:   10 * time.Millisecond,
			MaxDelay:    time.Second,
			JitterFrac:  0.5,
			Sleep:       rs.sleep,
		})
		fb.FailN(OpPutRaw, 100, errFlaky)
		if err := r.PutRaw(RawChunk{ID: 1}); err == nil {
			t.Fatal("want failure")
		}
		return rs.delays
	}
	a, b := schedule(), schedule()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("schedules %v vs %v", a, b)
	}
	jittered := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded jitter not deterministic: %v vs %v", a, b)
		}
		base := 10 * time.Millisecond << i
		if a[i] != base {
			jittered = true
		}
	}
	if !jittered {
		t.Fatalf("jitter never moved a delay off the base schedule: %v", a)
	}
}

func TestRetryDoesNotRetryNotFound(t *testing.T) {
	r, rs := newTestRetry(NewMemoryBackend(), 4)
	if _, err := r.GetRaw(42); !errors.Is(err, errNotFound) {
		t.Fatalf("want errNotFound, got %v", err)
	}
	if len(rs.delays) != 0 {
		t.Fatalf("errNotFound was retried %d times", len(rs.delays))
	}
	if r.totalRetries() != 0 {
		t.Fatalf("retries = %d, want 0", r.totalRetries())
	}
}

func TestRetryMetricsExposition(t *testing.T) {
	fb := NewFaultBackend(NewMemoryBackend())
	r, _ := newTestRetry(fb, 2)
	fb.FailN(OpPutRaw, 100, errFlaky)
	if err := r.PutRaw(RawChunk{ID: 1}); err == nil {
		t.Fatal("want failure")
	}

	reg := obs.NewRegistry()
	r.Instrument(reg)
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`cdml_store_retries_total{op="put_raw"} 1`,
		`cdml_store_giveups_total{op="put_raw"} 1`,
		`cdml_store_retries_total{op="get_raw"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestChaosRetryUnderConcurrentFaultRate(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite runs via make chaos")
	}
	fb := NewFaultBackend(NewMemoryBackend())
	// 20% failure rate against a 12-attempt budget: (0.2)^12 ≈ 4e-9 residual
	// failure probability per op, ~3e-6 across the whole run's 640 ops — the
	// suite asserts full healing, so the budget must make residual failure
	// negligible (a 6-attempt budget at 30% would flake almost every other
	// run: 0.3^6 × 640 ≈ 0.47 expected failures).
	fb.failRate(opAll, 0.2, errFlaky, 99)
	r := NewRetryBackend(fb, RetryPolicy{
		MaxAttempts: 12,
		BaseDelay:   time.Microsecond,
		MaxDelay:    10 * time.Microsecond,
	})

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				id := Timestamp(g*1000 + i)
				if err := r.PutRaw(RawChunk{ID: id, Records: [][]byte{[]byte("x")}}); err != nil {
					errCh <- fmt.Errorf("put %d: %w", id, err)
					return
				}
				if _, err := r.GetRaw(id); err != nil {
					errCh <- fmt.Errorf("get %d: %w", id, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if r.totalRetries() == 0 {
		t.Fatal("fault rate injected nothing; chaos test is vacuous")
	}
}

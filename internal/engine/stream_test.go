package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// The earlier an index, the longer its result takes: completion order is the
// reverse of index order inside every window, delivery order must not be.
func TestStreamDeliversInIndexOrder(t *testing.T) {
	const n = 64
	for _, workers := range []int{2, 4, 8} {
		e := New(workers)
		want := 0
		err := StreamCtx(context.Background(), e, n, func(i int) int {
			time.Sleep(time.Duration(n-i) * 20 * time.Microsecond)
			return i * i
		}, func(i, v int) error {
			if i != want || v != i*i {
				t.Errorf("workers=%d: delivery %d carried index %d, value %d", workers, want, i, v)
			}
			want++
			return nil
		})
		if err != nil || want != n {
			t.Fatalf("workers=%d: err = %v after %d of %d results", workers, err, want, n)
		}
	}
}

// The look-ahead is exactly 8·Workers(): the first consume is held until that
// many results have been started (less look-ahead and it would wait forever),
// and no fn ever starts more than that far past what consume has finished.
func TestStreamLookAheadIsEightTimesTheWorkers(t *testing.T) {
	const n, workers, window = 400, 3, 24
	var started, finished atomic.Int64
	full := make(chan struct{})
	err := StreamCtx(context.Background(), New(workers), n, func(i int) int {
		g := started.Add(1)
		if g-finished.Load() > window {
			t.Errorf("fn(%d) is result %d started with only %d consumed", i, g, finished.Load())
		}
		if g == window {
			close(full)
		}
		return i
	}, func(i, v int) error {
		if i == 0 {
			<-full
		}
		finished.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if started.Load() != n || finished.Load() != n {
		t.Fatalf("started %d, consumed %d of %d", started.Load(), finished.Load(), n)
	}
}

// A consumer that gives up mid-stream gets its own error back only after
// every producer has left fn — including ones that were in the middle of a
// result nobody will read, whose send must not block them.
func TestStreamEarlyStopJoinsProducers(t *testing.T) {
	errStop := errors.New("stop")
	var running, started atomic.Int64
	entered, release := make(chan struct{}, 8), make(chan struct{})
	consumed := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- StreamCtx(context.Background(), New(4), 1000, func(i int) int {
			running.Add(1)
			defer running.Add(-1)
			started.Add(1)
			if i > 0 {
				entered <- struct{}{}
				<-release
			}
			return i
		}, func(i, v int) error {
			<-entered // a producer is inside fn and will stay there
			close(consumed)
			return errStop
		})
	}()
	<-consumed
	select {
	case err := <-done:
		t.Fatalf("StreamCtx returned %v while a producer was still inside fn", err)
	default:
	}
	close(release)
	if err := <-done; !errors.Is(err, errStop) {
		t.Fatalf("err = %v, want the consumer's", err)
	}
	if running.Load() != 0 {
		t.Fatalf("%d producers still inside fn after StreamCtx returned", running.Load())
	}
	if s := started.Load(); s > 8 {
		t.Fatalf("%d results started for a consumer that stopped at the first", s)
	}
}

func TestStreamCancellationEndsTheCall(t *testing.T) {
	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		err := StreamCtx(ctx, New(workers), 100, func(i int) int { return i }, func(i, v int) error {
			seen++
			if i == 2 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) || seen != 3 {
			t.Fatalf("workers=%d: err = %v after %d results, want context.Canceled after 3", workers, err, seen)
		}
	}
}

// A panic in fn belongs to whoever asked for the result: it comes up on the
// calling goroutine, at its index, after the results before it.
func TestStreamGeneratorPanicSurfacesOnTheConsumer(t *testing.T) {
	for _, workers := range []int{1, 2} {
		var seen []int
		func() {
			defer func() {
				if p := recover(); p != "chunk 5 is cursed" {
					t.Errorf("workers=%d: recovered %v on the caller, want fn's panic", workers, p)
				}
			}()
			_ = StreamCtx(context.Background(), New(workers), 50, func(i int) int {
				if i == 5 {
					panic("chunk 5 is cursed")
				}
				return i
			}, func(i, v int) error {
				seen = append(seen, i)
				return nil
			})
			t.Errorf("workers=%d: StreamCtx returned past a panicking fn", workers)
		}()
		if len(seen) != 5 {
			t.Fatalf("workers=%d: consumed %v before the panic, want 0..4", workers, seen)
		}
	}
}

// An engine of one worker has no idle core to generate on: fn and consume
// alternate on the calling goroutine and nothing is started. So does a
// one-result stream on any engine.
func TestStreamOneWorkerSpawnsNothing(t *testing.T) {
	caller := goroutineID()
	for _, tc := range []struct{ workers, n int }{{1, 20}, {4, 1}} {
		e := New(tc.workers)
		inFlight := 0
		err := StreamCtx(context.Background(), e, tc.n, func(i int) int {
			if id := goroutineID(); id != caller {
				t.Errorf("workers=%d: fn(%d) ran on goroutine %s, caller is %s", tc.workers, i, id, caller)
			}
			inFlight++
			return i
		}, func(i, v int) error {
			if inFlight--; inFlight != 0 {
				t.Errorf("workers=%d: %d results generated ahead of consume(%d)", tc.workers, inFlight, i)
			}
			return nil
		})
		if err != nil || e.tasks.Load() != int64(tc.n) {
			t.Fatalf("workers=%d: err = %v, %d tasks counted of %d", tc.workers, err, e.tasks.Load(), tc.n)
		}
	}
}

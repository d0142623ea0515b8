package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestNewDefaults(t *testing.T) {
	e := New(0)
	if e.Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("workers = %d", e.Workers())
	}
	if New(3).Workers() != 3 {
		t.Fatal("explicit workers ignored")
	}
}

func TestForEachRunsAllTasks(t *testing.T) {
	e := New(4)
	var hits [100]atomic.Int32
	if err := e.forEachCtx(context.Background(), 100, func(i int) error {
		hits[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("task %d ran %d times", i, hits[i].Load())
		}
	}
	if e.tasks.Load() != 100 {
		t.Fatalf("tasks executed = %d", e.tasks.Load())
	}
}

func TestForEachEmptyAndSingle(t *testing.T) {
	e := New(4)
	if err := e.forEachCtx(context.Background(), 0, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	ran := false
	if err := e.forEachCtx(context.Background(), 1, func(int) error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("single task did not run")
	}
}

func TestForEachCollectsAllErrors(t *testing.T) {
	e := New(2)
	var completed atomic.Int32
	err := e.forEachCtx(context.Background(), 10, func(i int) error {
		completed.Add(1)
		if i%2 == 0 {
			return fmt.Errorf("fail-%d", i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if completed.Load() != 10 {
		t.Fatalf("failed tasks aborted the batch: %d completed", completed.Load())
	}
}

func TestMapPreservesOrder(t *testing.T) {
	e := New(8)
	out, err := MapCtx(context.Background(), e, 50, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapError(t *testing.T) {
	e := New(2)
	_, err := MapCtx(context.Background(), e, 5, func(i int) (int, error) {
		if i == 3 {
			return 0, fmt.Errorf("boom")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestUnionConcatenatesInOrder(t *testing.T) {
	e := New(4)
	out, err := UnionCtx(context.Background(), e, 3, func(i int) ([]int, error) {
		part := make([]int, i+1)
		for j := range part {
			part[j] = i*10 + j
		}
		return part, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 10, 11, 20, 21, 22}
	if len(out) != len(want) {
		t.Fatalf("union = %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("union = %v, want %v", out, want)
		}
	}
}

func TestUnionError(t *testing.T) {
	e := New(2)
	if _, err := UnionCtx(context.Background(), e, 2, func(i int) ([]int, error) { return nil, fmt.Errorf("x") }); err == nil {
		t.Fatal("expected error")
	}
}

func TestForEachErrorOrderDeterministic(t *testing.T) {
	// Errors must join in task-index order regardless of which goroutine
	// finishes first, so seeded runs produce byte-identical error text at
	// any worker count.
	want := "engine: task 1: fail-1\nengine: task 4: fail-4\nengine: task 7: fail-7"
	for _, workers := range []int{1, 3, 8} {
		e := New(workers)
		for trial := 0; trial < 20; trial++ {
			err := e.forEachCtx(context.Background(), 9, func(i int) error {
				if i%3 == 1 {
					return fmt.Errorf("fail-%d", i)
				}
				return nil
			})
			if err == nil {
				t.Fatal("expected error")
			}
			if err.Error() != want {
				t.Fatalf("workers=%d trial %d: error order %q, want %q", workers, trial, err.Error(), want)
			}
		}
	}
}

func TestForEachCtxCancellationStopsDispatch(t *testing.T) {
	e := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- e.forEachCtx(ctx, 1000, func(i int) error {
			started.Add(1)
			<-release
			return nil
		})
	}()
	// Wait for the workers to occupy their first tasks, then cancel: no
	// further tasks may be claimed once the running ones unblock.
	for started.Load() < 2 {
		runtime.Gosched()
	}
	cancel()
	close(release)
	err := <-done
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n >= 1000 {
		t.Fatalf("cancellation did not stop dispatch: %d tasks started", n)
	}
}

func TestForEachCtxCompletesWithoutCancellation(t *testing.T) {
	e := New(4)
	var n atomic.Int32
	if err := e.forEachCtx(context.Background(), 50, func(int) error { n.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 50 {
		t.Fatalf("ran %d tasks", n.Load())
	}
}

func TestMapCtxCancelled(t *testing.T) {
	e := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MapCtx(ctx, e, 10, func(i int) (int, error) { return i, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestForEachMoreWorkersThanTasks(t *testing.T) {
	e := New(64)
	var n atomic.Int32
	if err := e.forEachCtx(context.Background(), 3, func(int) error { n.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 3 {
		t.Fatalf("ran %d tasks", n.Load())
	}
}

// goroutineID reads the running goroutine's id off its stack header
// ("goroutine 17 [running]:"); tests only.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// The caller is one of the workers, so a one-task call (a gather of one
// sampled chunk) runs fn where it was called and starts no goroutine: it
// never waits for the scheduler to wake a parked thread for 3 µs of work.
func TestForEachSingleTaskRunsOnTheCaller(t *testing.T) {
	e := New(4)
	caller, ran := goroutineID(), ""
	if err := e.forEachCtx(context.Background(), 1, func(int) error { ran = goroutineID(); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran != caller {
		t.Fatalf("one-task forEachCtx ran fn on goroutine %s, caller is %s", ran, caller)
	}
	// With several tasks the caller still takes its share: task 0 is claimed
	// before any started goroutine can have been scheduled ahead of it on
	// one worker.
	one := New(1)
	var others atomic.Int32
	if err := one.forEachCtx(context.Background(), 8, func(int) error {
		if goroutineID() != caller {
			others.Add(1)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if others.Load() != 0 {
		t.Fatalf("a one-worker engine ran %d of 8 tasks off the calling goroutine", others.Load())
	}
	fn := func(int) error { return nil }
	ctx := context.Background()
	// The shared state and the error slice; the parent also allocated the
	// counter, the wait group and the worker closure one by one (4).
	if allocs := testing.AllocsPerRun(200, func() { _ = e.forEachCtx(ctx, 1, fn) }); allocs >= 4 {
		t.Fatalf("one-task forEachCtx allocates %.0f times, no fewer than before the caller was a worker", allocs)
	}
}

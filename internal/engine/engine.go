// Package engine is the execution-engine substrate (paper §4.5). The
// paper's prototype delegates batch work (proactive training over sampled
// chunks) and stream work (online learning, prediction answering) to Apache
// Spark; here a worker pool over chunk partitions plays that role. The
// engine is deliberately generic: it executes closures over index ranges
// and knows nothing about pipelines or models.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cdml/internal/obs"
)

// Engine executes tasks over partitions with bounded parallelism.
type Engine struct {
	workers int
	tasks   atomic.Int64
	// forEachLatency, when set via Instrument, records the wall-clock
	// duration of every ForEach call. Held as an atomic pointer so an
	// uninstrumented engine pays one nil-check per ForEach (not per task).
	forEachLatency atomic.Pointer[obs.Histogram]
}

// New returns an engine with the given parallelism; workers ≤ 0 selects
// runtime.GOMAXPROCS(0).
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: workers}
}

// Workers returns the engine parallelism.
func (e *Engine) Workers() int { return e.workers }

// Instrument registers the engine's task counter, worker gauge, and
// per-ForEach latency histogram with reg. Safe to call more than once with
// the same registry (get-or-create semantics) and concurrently with running
// work.
func (e *Engine) Instrument(reg *obs.Registry) {
	reg.CounterFunc("cdml_engine_tasks_total",
		"Partition tasks executed by the execution engine.",
		func() float64 { return float64(e.tasks.Load()) })
	reg.GaugeFunc("cdml_engine_workers",
		"Execution engine parallelism.",
		func() float64 { return float64(e.workers) })
	e.forEachLatency.Store(reg.Histogram("cdml_engine_foreach_seconds",
		"Wall-clock duration of engine ForEach calls."))
}

// forEachCtx runs fn(i) for every i in [0, n) across the worker pool and
// returns the combined errors; all tasks run even if some fail. Cancelling
// ctx stops the dispatch of new tasks; tasks already running finish
// normally, and the context's error is joined into the result.
//
// The caller is one of the workers: min(workers, n)-1 goroutines are
// started and the calling goroutine claims tasks beside them before it
// waits, so a call that needs one worker — a gather of one sampled chunk —
// starts no goroutine and waits for no wake-up.
//
// Task errors are collected per index and joined in index order, so the
// combined error is a deterministic function of the task outcomes —
// independent of goroutine completion order across runs.
//
//cdml:deterministic
func (e *Engine) forEachCtx(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if h := e.forEachLatency.Load(); h != nil {
		start := time.Now() //lint:allow determinism: latency instrumentation feeds the histogram, never task results
		defer func() { h.Observe(time.Since(start)) }()
	}
	// One allocation holds everything the workers share, so a call that
	// starts none pays for it and the error slice and nothing else.
	r := &forEachRun{e: e, done: ctx.Done(), n: n, fn: fn, errs: make([]error, n)}
	workers := min(e.workers, n)
	r.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer r.wg.Done()
			r.work()
		}()
	}
	r.work()
	r.wg.Wait()
	// errors.Join drops nil entries, so passing the full slice preserves
	// index order without an explicit filter pass.
	if err := ctx.Err(); err != nil {
		return errors.Join(errors.Join(r.errs...), err)
	}
	return errors.Join(r.errs...)
}

// forEachRun is one forEachCtx call: its tasks, the counter its workers
// claim them from and where their errors go.
type forEachRun struct {
	e    *Engine
	done <-chan struct{}
	n    int
	fn   func(i int) error
	errs []error
	next atomic.Int64
	wg   sync.WaitGroup
}

// work claims and runs tasks until none are left or done is closed.
func (r *forEachRun) work() {
	for {
		select {
		case <-r.done:
			return
		default:
		}
		i := int(r.next.Add(1)) - 1
		if i >= r.n {
			return
		}
		r.e.tasks.Add(1)
		if err := r.fn(i); err != nil {
			r.errs[i] = fmt.Errorf("engine: task %d: %w", i, err)
		}
	}
}

// MapCtx runs fn over [0, n) in parallel, collecting results in order. No new
// tasks are dispatched once ctx is cancelled, and a nil slice plus the context
// error are returned. Results land at their task index, so the output order
// is deterministic whatever the goroutine schedule.
//
//cdml:deterministic
func MapCtx[T any](ctx context.Context, e *Engine, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := e.forEachCtx(ctx, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// UnionCtx concatenates the per-partition slices produced by fn — the
// analogue of the prototype's context.union over sampled chunk RDDs
// (paper §5.4). Partitions are produced in parallel; the result preserves
// partition order. Cancellation is MapCtx's.
//
//cdml:deterministic
func UnionCtx[T any](ctx context.Context, e *Engine, n int, fn func(i int) ([]T, error)) ([]T, error) {
	parts, err := MapCtx(ctx, e, n, fn)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]T, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// StreamCtx runs fn(i) for every i in [0, n) on up to Workers() goroutines
// and hands each result to consume on the calling goroutine, in index order
// — the look-ahead of a pipelined batch: a consumer that must take its
// input serially (a training loop) while the inputs are independent to
// produce. At most 2·Workers() results exist that consume has not finished
// with, however large n is. An engine of one worker starts no goroutine and
// looks no further ahead than the next index.
//
// The first error consume returns ends the call, and so does ctx's, checked
// before each result is taken; a panic in fn is raised again on the calling
// goroutine at that index. However it ends, StreamCtx returns only after
// every producer has exited, so fn is never running once the caller has its
// answer; results produced and not consumed by then are dropped.
//
//cdml:deterministic
func StreamCtx[T any](ctx context.Context, e *Engine, n int, fn func(i int) T, consume func(i int, v T) error) error {
	workers := min(e.workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			e.tasks.Add(1)
			if err := consume(i, fn(i)); err != nil {
				return err
			}
		}
		return nil
	}
	window := 2 * workers
	// held has an entry per result in production or produced and not yet
	// consumed: a producer adds one before it claims an index, the consumer
	// takes one out per result it is done with. Result i travels through
	// slot i%window, which is free by then — index i is claimed under entry
	// i+1, so i+1-window entries have come out, each after the result before
	// it was consumed — and a producer's send never blocks.
	held := make(chan struct{}, window)
	slots := make([]chan produced[T], window)
	for k := range slots {
		slots[k] = make(chan produced[T], 1)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	defer wg.Wait()
	defer close(stop)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case held <- struct{}{}:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				e.tasks.Add(1)
				slots[i%window] <- produce(fn, i)
			}
		}()
	}
	// The producers do not watch ctx: they stop when the consumer leaves, and
	// until then the result it waits for is always on its way.
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		r := <-slots[i%window]
		if r.panicked != nil {
			panic(r.panicked)
		}
		if err := consume(i, r.v); err != nil {
			return err
		}
		<-held
	}
	return nil
}

// produced is one StreamCtx result on its way to the consumer: fn's value,
// or what it panicked with.
type produced[T any] struct {
	v        T
	panicked any
}

// produce runs fn(i), capturing a panic for the consumer's goroutine.
func produce[T any](fn func(i int) T, i int) (r produced[T]) {
	defer func() { r.panicked = recover() }()
	r.v = fn(i)
	return r
}

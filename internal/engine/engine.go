// Package engine is the execution-engine substrate (paper §4.5). The
// paper's prototype delegates batch work (proactive training over sampled
// chunks) and stream work (online learning, prediction answering) to Apache
// Spark. Here the engine does one job: the warm-up's look-ahead, a bounded
// pool of goroutines producing chunks ahead of a serial consumer
// (StreamCtx). Proactive training's gather and retraining's re-read of
// history are plain loops on the training goroutine: eight in-memory chunk
// lookups do not pay for a dispatch. The engine knows nothing about
// pipelines or models.
package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"cdml/internal/obs"
)

// Engine executes tasks with bounded parallelism.
type Engine struct {
	workers int
	tasks   atomic.Int64
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

// Instrument registers the engine's task counter and worker gauge with reg.
// Safe to call more than once with the same registry (get-or-create
// semantics) and concurrently with running work.
func (e *Engine) Instrument(reg *obs.Registry) {
	reg.CounterFunc("cdml_engine_tasks_total",
		"Tasks executed by the execution engine.",
		func() float64 { return float64(e.tasks.Load()) })
	reg.GaugeFunc("cdml_engine_workers",
		"Execution engine parallelism.",
		func() float64 { return float64(e.workers) })
	// Deprecated: nothing observes cdml_engine_foreach_seconds since the
	// gather became a loop; it stays registered, always empty, because
	// benchmark/workload.go:582 scrapes it and fails the run on a missing
	// series. The next change that may edit benchmark/ (ROADMAP item 6)
	// deletes both.
	reg.Histogram("cdml_engine_foreach_seconds",
		"Deprecated, never observed: the duration of a fan-out the engine no longer runs.")
}

// StreamCtx runs fn(i) for every i in [0, n) on up to Workers() goroutines
// and hands each result to consume on the calling goroutine, in index order
// — the look-ahead of a pipelined batch: a consumer that must take its
// input serially (a training loop) while the inputs are independent to
// produce. At most lookAhead·Workers() results exist that consume has not
// finished with, however large n is. An engine of one worker starts no
// goroutine and looks no further ahead than the next index.
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
	window := lookAhead * workers
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
				// Once the consumer has left, a free entry claims nothing: a
				// select between the two would take it half the time.
				select {
				case <-stop:
					return
				default:
				}
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

// lookAhead is StreamCtx's depth per worker. A shallow window keeps
// emptying: the consumer parks on the result it waits for, the producers on
// a full window, and each side then waits for the other to be woken.
const lookAhead = 8

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

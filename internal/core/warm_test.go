package core

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"

	"cdml/internal/data"
	"cdml/internal/engine"
	"cdml/internal/opt"
	"cdml/internal/snapstream"
)

// TestWarmIsTheIngestLoop: the batch is the loop. Warm(n, chunk) leaves what
// n × Ingest(chunk(i)) leaves — version, payload bytes (model, optimizer and
// pipeline statistics), statistics and stored chunks — for both benchmark
// pipelines under Adam with proactive training on a chunk-count schedule, at
// any engine size; it gets there on one publish.
func TestWarmIsTheIngestLoop(t *testing.T) {
	const n = 20
	for _, workload := range []string{"url", "taxi"} {
		build := func(workers int) (*Deployer, Stream, *data.Store) {
			cfg, s := v1Fixture(workload)
			cfg.NewOptimizer = func() opt.Optimizer { return opt.NewAdam(0.05) }
			cfg.Engine = engine.New(workers)
			d, err := NewDeployer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(d.Shutdown)
			return d, s, cfg.Store
		}
		loop, s, loopStore := build(1)
		ingestChunks(t, loop, s, 0, n)
		want, wantStats := payloadBytes(t, loop), loop.Stats()
		if wantStats.ProactiveRuns == 0 {
			t.Fatalf("%s: the reference never trained proactively", workload)
		}
		for _, workers := range []int{1, 2, 4} {
			d, s, store := build(workers)
			if _, err := d.Warm(n, s.Chunk); err != nil {
				t.Fatalf("%s workers=%d: %v", workload, workers, err)
			}
			if got := d.Published().Version(); got != loop.Published().Version() || got != n+1 {
				t.Errorf("%s workers=%d: version %d, the loop's is %d", workload, workers, got, loop.Published().Version())
			}
			if got := d.obs.snapshotPublishes.Value(); got != 2 {
				t.Errorf("%s workers=%d: %d publishes, want the initial one and the warm-up's", workload, workers, got)
			}
			if !bytes.Equal(payloadBytes(t, d), want) {
				t.Errorf("%s workers=%d: payload differs from the loop's", workload, workers)
			}
			st := d.Stats()
			if st.Chunks != wantStats.Chunks || st.Evaluated != wantStats.Evaluated ||
				st.FinalError != wantStats.FinalError || st.ProactiveRuns != wantStats.ProactiveRuns ||
				st.ErrorCurve.Len() != wantStats.ErrorCurve.Len() || st.CostCurve.Len() != wantStats.CostCurve.Len() {
				t.Errorf("%s workers=%d: stats %+v, the loop's %+v", workload, workers, st, wantStats)
			}
			if !slices.Equal(store.RawIDs(), loopStore.RawIDs()) {
				t.Errorf("%s workers=%d: stored %v, the loop stored %v", workload, workers, store.RawIDs(), loopStore.RawIDs())
			}
		}
	}
}

// The generator runs outside d.mu — on a one-worker engine it shares the
// training goroutine, so taking the lock from inside it proves that — and
// between two ticks of a warm-up the optimizer is ahead of the published
// snapshot: nothing can be checkpointed there, so nothing is.
func TestWarmGeneratesOutsideTheWriterLock(t *testing.T) {
	dir := t.TempDir()
	cfg, s := v1Fixture("url")
	cfg.AutoCheckpoint = &CheckpointPolicy{Dir: dir, EveryTicks: 1}
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Warm(6, func(i int) [][]byte {
		// Not before chunk 0: that would complete the initial snapshot, rightly,
		// and every later call would be handed it without taking the lock.
		if i > 0 {
			if _, err := d.resumePoint(d.obs.resumeOnDemand, nil); !errors.Is(err, ErrResumeUnavailable) {
				t.Errorf("resume point between ticks %d and %d: err = %v", i-1, i, err)
			}
		}
		return s.Chunk(i)
	}); err != nil {
		t.Fatal(err)
	}
	d.Shutdown() // drains the checkpoint writer
	files, err := snapstream.List(dir)
	if err != nil || len(files) != 1 || files[0].Version != 7 {
		t.Fatalf("checkpoints after a 6-chunk warm-up at a cadence of 1: %v (err %v), want one, at version 7", files, err)
	}
}

// A tick that fails ends the warm-up where Ingest would have failed, and a
// Shutdown ends it between ticks; either way nothing is published, and the
// version stays the number of publishes, not of chunks tried.
func TestWarmStopsAtTheFirstFailureAndPublishesNothing(t *testing.T) {
	cfg, s := v1Fixture("taxi")
	cfg.Engine = engine.New(2)
	cfg.Store = data.NewStore(&failingBackend{Backend: data.NewMemoryBackend(), failAfter: 9})
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	if _, err := d.Warm(12, s.Chunk); err == nil || d.Published().Version() != 1 {
		t.Fatalf("warm-up over a store that fails at its tenth write: err = %v, version %d", err, d.Published().Version())
	}
	if _, err := d.Current().Frame(); !errors.Is(err, ErrResumeUnavailable) {
		t.Fatalf("frame after a failed warm-up: err = %v, want ErrResumeUnavailable", err)
	}

	cfg, s = v1Fixture("taxi")
	if d, err = NewDeployer(cfg); err != nil {
		t.Fatal(err)
	}
	_, err = d.Warm(12, func(i int) [][]byte {
		if i == 5 {
			d.Shutdown()
		}
		return s.Chunk(i)
	})
	if !errors.Is(err, context.Canceled) || d.Published().Version() != 1 {
		t.Fatalf("warm-up shut down at chunk 5: err = %v, version %d", err, d.Published().Version())
	}
}

package core

import (
	"bytes"
	"sync"
	"testing"

	"cdml/internal/data"
	"cdml/internal/engine"
	"cdml/internal/snapstream"
)

// TestStatsAfterRun: Run is a batch of the tick Ingest runs, so what it
// returns is what Stats() — and /stats — answer afterwards, at the version as
// many Ingest calls would have reached.
func TestStatsAfterRun(t *testing.T) {
	d, err := NewDeployer(baseConfig(ModeContinuous))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	res, err := d.Run(smallStream)
	if err != nil {
		t.Fatal(err)
	}
	ticks := smallStream.chunks - 5 // baseConfig's InitialChunks
	st := d.Stats()
	if res.Evaluated == 0 || res.ProactiveRuns == 0 || res.Chunks != int64(ticks) || res.ErrorCurve.Len() != ticks {
		t.Fatalf("Run returned %+v after %d ticks", res, ticks)
	}
	if st.Evaluated != res.Evaluated || st.ProactiveRuns != res.ProactiveRuns || st.Chunks != res.Chunks ||
		st.ErrorCurve.Len() != res.ErrorCurve.Len() || st.CostCurve.Len() != res.CostCurve.Len() ||
		st.AvgError != res.AvgError || st.FinalError != res.FinalError {
		t.Fatalf("Stats() after Run = %+v, Run returned %+v", st, res)
	}
	if got := d.Published().Version(); got != uint64(1+ticks) {
		t.Fatalf("version %d after %d ticks, want %d", got, ticks, 1+ticks)
	}
}

// TestRunHoldsTheWriterLock: Run is a writer like Ingest, so a checkpoint or a
// Current() from another goroutine beside it is no data race (this test is
// for the race detector), and every payload such a call gets is a state the
// deployment was in — one per version, and it restores.
func TestRunHoldsTheWriterLock(t *testing.T) {
	d, err := NewDeployer(baseConfig(ModePeriodical))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	var (
		wg     sync.WaitGroup
		done   = make(chan struct{})
		frames = map[uint64]snapstream.Frame{}
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			f, _, err := d.FrameSince(0)
			if err != nil {
				t.Errorf("frame beside Run: %v", err)
				return
			}
			if seen, ok := frames[f.Version]; ok && !bytes.Equal(seen.Payload, f.Payload) {
				t.Errorf("two frames of version %d differ", f.Version)
				return
			}
			frames[f.Version] = f
			_ = d.Current().Version()
		}
	}()
	_, err = d.Run(smallStream)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	last, _, err := d.FrameSince(0)
	if err != nil {
		t.Fatalf("checkpoint after Run: %v", err)
	}
	frames[last.Version] = last
	for v, f := range frames {
		fresh, err := NewDeployer(baseConfig(ModePeriodical))
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.SnapshotSink().Apply(f); err != nil {
			t.Fatalf("the payload of version %d taken beside Run does not restore: %v", v, err)
		}
		fresh.Shutdown()
	}
}

// TestRunIsInitialTrainingPlusIngest: Run(s) leaves what the initial training
// followed by one Ingest per remaining chunk leaves — payload bytes (model,
// optimizer, pipeline statistics), version and counts — in every mode, at any
// engine size. Its chunks are sized so that the initial, proactive and
// retraining batches (5 chunks and more) exceed DefaultGradShardRows, and the
// shard counters show that some steps ran on several shards.
func TestRunIsInitialTrainingPlusIngest(t *testing.T) {
	s := driftStream{chunks: 50, rows: 60, drift: 2.5, seed: 23}
	for _, mode := range []Mode{ModeOnline, ModePeriodical, ModeContinuous, ModeThreshold} {
		build := func(workers int) *Deployer {
			cfg := baseConfig(mode)
			cfg.RetrainThreshold = 0.05
			cfg.Engine = engine.New(workers)
			d, err := NewDeployer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(d.Shutdown)
			return d
		}
		loop := build(1)
		loop.mu.Lock()
		err := loop.initialTrain(s)
		loop.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		ingestChunks(t, loop, s, loop.cfg.InitialChunks, s.chunks)
		want, wantStats := payloadBytes(t, loop), loop.Stats()
		if mode != ModeOnline && wantStats.ProactiveRuns+wantStats.Retrains == 0 {
			t.Fatalf("%v: the reference never trained beyond the online step", mode)
		}
		for _, workers := range []int{1, 2, 4} {
			d := build(workers)
			res, err := d.Run(s)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", mode, workers, err)
			}
			if shards, steps := d.obs.gradShards.Value(), d.obs.gradUpdates.Value(); shards <= steps {
				t.Errorf("%v workers=%d: %d shards over %d steps, no step ran on several", mode, workers, shards, steps)
			}
			if got := d.Published().Version(); got != loop.Published().Version() {
				t.Errorf("%v workers=%d: version %d, the loop's is %d", mode, workers, got, loop.Published().Version())
			}
			if !bytes.Equal(payloadBytes(t, d), want) {
				t.Errorf("%v workers=%d: payload differs from the loop's", mode, workers)
			}
			if res.Chunks != wantStats.Chunks || res.Evaluated != wantStats.Evaluated ||
				res.FinalError != wantStats.FinalError || res.AvgError != wantStats.AvgError ||
				res.ProactiveRuns != wantStats.ProactiveRuns || res.Retrains != wantStats.Retrains ||
				res.ErrorCurve.Len() != wantStats.ErrorCurve.Len() {
				t.Errorf("%v workers=%d: Run returned %+v, the loop's stats are %+v", mode, workers, res, wantStats)
			}
		}
	}
}

// TestCurveXIsChunksTrained: the curves' x axis is chunk time. A store that
// retains a bounded number of raw chunks stops counting at its bound; the
// deployment does not.
func TestCurveXIsChunksTrained(t *testing.T) {
	cfg := liveConfig(ModeOnline)
	cfg.Store = data.NewStore(data.NewMemoryBackend(), data.WithRawCapacity(8))
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	ingestChunks(t, d, smallStream, 0, 20)
	st := d.Stats()
	for i, x := range st.ErrorCurve.Xs {
		if x != float64(i+1) || st.CostCurve.Xs[i] != x {
			t.Fatalf("point %d of the curves is at x = %v / %v, want %d (store retains %d raw chunks)",
				i, x, st.CostCurve.Xs[i], i+1, cfg.Store.NumRaw())
		}
	}
	if st.ErrorCurve.Len() != 20 {
		t.Fatalf("%d points after 20 ticks", st.ErrorCurve.Len())
	}
}

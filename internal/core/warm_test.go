package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"cdml/internal/data"
	"cdml/internal/dataset"
	"cdml/internal/engine"
	"cdml/internal/opt"
	"cdml/internal/pipeline"
	"cdml/internal/snapstream"
)

// TestWarmIsTheIngestLoop: the batch is the loop. Warm(n, chunk) leaves what
// n × Ingest(chunk(i)) leaves — version, payload bytes (model, optimizer and
// pipeline statistics), statistics and stored chunks — for both benchmark
// pipelines under Adam with proactive training on a chunk-count schedule, at
// any engine size; it gets there on one publish. In periodical mode a cold
// retraining replaces the deployed pipeline twice inside the warm-up, and
// the chunks the producers parsed with the pipeline the warm-up started on
// train the replacement exactly as its own parse would have.
func TestWarmIsTheIngestLoop(t *testing.T) {
	const n = 20
	for _, tc := range []struct {
		workload string
		mode     Mode
	}{{"url", ModeContinuous}, {"taxi", ModeContinuous}, {"url", ModePeriodical}} {
		workload := tc.workload + "/" + tc.mode.String()
		build := func(workers int) (*Deployer, Stream, *data.Store) {
			cfg, s := v1Fixture(tc.workload)
			cfg.NewOptimizer = func() opt.Optimizer { return opt.NewAdam(0.05) }
			cfg.Engine = engine.New(workers)
			if tc.mode == ModePeriodical {
				cfg.Mode, cfg.RetrainEvery, cfg.WarmStart = ModePeriodical, 7, false
			}
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
		if tc.mode == ModeContinuous && wantStats.ProactiveRuns == 0 {
			t.Fatalf("%s: the reference never trained proactively", workload)
		}
		if tc.mode == ModePeriodical && wantStats.Retrains != 2 {
			t.Fatalf("%s: the reference retrained %d times, want 2", workload, wantStats.Retrains)
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
				st.FinalError != wantStats.FinalError || st.ProactiveRuns != wantStats.ProactiveRuns || st.Retrains != wantStats.Retrains ||
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
// between two ticks of a warm-up nothing is published: an encoder there gets
// version 1's frame, and the cadence writes only the warm-up's one publish.
func TestWarmGeneratesOutsideTheWriterLock(t *testing.T) {
	dir := t.TempDir()
	cfg, s := v1Fixture("url")
	cfg.AutoCheckpoint = &CheckpointPolicy{Dir: dir, EveryTicks: 1}
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	initial := frameOf(t, d)
	if _, err := d.Warm(6, func(i int) [][]byte {
		d.mu.Lock()
		d.mu.Unlock()
		if f, err := d.Current().Frame(); err != nil || f.Version != 1 || !bytes.Equal(f.Payload, initial.Payload) {
			t.Errorf("frame before warm-up chunk %d: version %d (err %v), want version 1's", i, f.Version, err)
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

// A tick that fails ends the warm-up where Ingest would have failed — its
// store write, or the parse a producer ran for it — and a Shutdown ends it
// between ticks; either way nothing is published, and the version stays the
// number of publishes, not of chunks tried.
func TestWarmStopsAtTheFirstFailureAndPublishesNothing(t *testing.T) {
	cfg, s := v1Fixture("taxi")
	cfg.Engine = engine.New(2)
	cfg.Store = data.NewStore(&failingBackend{Backend: data.NewMemoryBackend(), failAfter: 9})
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	initial := frameOf(t, d)
	if _, err := d.Warm(12, s.Chunk); err == nil || d.Published().Version() != 1 {
		t.Fatalf("warm-up over a store that fails at its tenth write: err = %v, version %d", err, d.Published().Version())
	}
	if f := frameOf(t, d); f.Version != 1 || !bytes.Equal(f.Payload, initial.Payload) {
		t.Fatalf("frame after a failed warm-up: version %d, want version 1's frame", f.Version)
	}

	const k = 7
	cfg, s = v1Fixture("taxi")
	cfg.Engine = engine.New(2)
	cfg.NewPipeline = func() *pipeline.Pipeline {
		p := dataset.NewTaxiPipeline()
		p.Parser = poisonParser{p.Parser}
		return p
	}
	if d, err = NewDeployer(cfg); err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	_, err = d.Warm(12, func(i int) [][]byte {
		if i == k {
			return [][]byte{[]byte("poison")}
		}
		return s.Chunk(i)
	})
	if !errors.Is(err, errPoisoned) || !strings.Contains(err.Error(), fmt.Sprintf("warm-up chunk %d:", k)) || d.Published().Version() != 1 {
		t.Fatalf("warm-up whose chunk %d fails to parse: err = %v, version %d", k, err, d.Published().Version())
	}
	if f := frameOf(t, d); f.Version != 1 || !bytes.Equal(f.Payload, initial.Payload) {
		t.Fatalf("frame after a failed parse: version %d, want version 1's frame", f.Version)
	}
	if ids := cfg.Store.RawIDs(); len(ids) != k {
		t.Fatalf("stored %d chunks before the one that failed to parse, want %d", len(ids), k)
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

// poisonParser fails a chunk whose first record is "poison" and parses every
// other one as the parser it wraps.
type poisonParser struct{ pipeline.Parser }

var errPoisoned = errors.New("poisoned chunk")

func (p poisonParser) Parse(records [][]byte) (*data.Frame, error) {
	if len(records) > 0 && string(records[0]) == "poison" {
		return nil, errPoisoned
	}
	return p.Parser.Parse(records)
}

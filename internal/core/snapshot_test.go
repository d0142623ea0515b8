package core

import (
	"fmt"
	"sync"
	"testing"

	"cdml/internal/data"
)

// TestPredictDuringRetrain hammers the lock-free read path from several
// goroutines while the serialized writer runs retrain-heavy Ingest ticks.
// Under -race this is the tentpole guarantee of the snapshot split: Predict
// acquires no lock shared with Ingest and always observes a fully published
// deployment, even mid-retrain.
func TestPredictDuringRetrain(t *testing.T) {
	cfg := baseConfig(ModePeriodical)
	cfg.RetrainEvery = 2 // retrain on every other tick: writer is busy
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := smallStream

	const readers = 4
	stop := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				preds, err := d.Predict(s.Chunk((g*7 + i) % s.chunks))
				if err != nil {
					errs <- err
					return
				}
				for _, p := range preds {
					if p != 1 && p != -1 {
						errs <- fmt.Errorf("prediction %v is not a class label", p)
						return
					}
				}
				// Stats must also be safe concurrently with the writer.
				if st := d.Stats(); st.Evaluated < 0 {
					panic("unreachable")
				}
			}
		}(g)
	}

	const chunks = 30
	for i := 0; i < chunks; i++ {
		if err := d.Ingest(s.Chunk(i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if d.Stats().Retrains == 0 {
		t.Fatal("config did not trigger retrains; test exercises nothing")
	}
	// One publish at construction plus one per successful Ingest tick.
	if v := d.Current().Version(); v != uint64(1+chunks) {
		t.Fatalf("snapshot version = %d, want %d", v, 1+chunks)
	}
}

// TestSnapshotIsolation pins the copy-on-write contract: a snapshot (and
// the Stats result served from it) is immutable after publication, no
// matter how much the writer trains afterwards.
func TestSnapshotIsolation(t *testing.T) {
	d, err := NewDeployer(baseConfig(ModeContinuous))
	if err != nil {
		t.Fatal(err)
	}
	s := smallStream
	for i := 0; i < 10; i++ {
		if err := d.Ingest(s.Chunk(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := d.Current()
	st := d.Stats()
	curveLen := st.ErrorCurve.Len()
	finalErr := st.FinalError

	for i := 10; i < 20; i++ {
		if err := d.Ingest(s.Chunk(i)); err != nil {
			t.Fatal(err)
		}
	}

	if st.ErrorCurve.Len() != curveLen {
		t.Fatalf("published curve grew from %d to %d points after later Ingests", curveLen, st.ErrorCurve.Len())
	}
	if st.FinalError != finalErr {
		t.Fatal("published Stats mutated by later Ingests")
	}
	if snap.Version() == d.Current().Version() {
		t.Fatal("writer did not publish new snapshots")
	}
	if d.Stats().ErrorCurve.Len() != curveLen+10 {
		t.Fatalf("fresh Stats curve = %d points, want %d", d.Stats().ErrorCurve.Len(), curveLen+10)
	}
}

// TestShutdownIdempotentConcurrent calls Shutdown many times from many
// goroutines, before and after deployment activity. sync.Once must make
// every call safe, and the lock-free read path must keep answering after
// shutdown (only new engine work stops).
func TestShutdownIdempotentConcurrent(t *testing.T) {
	d, err := NewDeployer(baseConfig(ModeContinuous))
	if err != nil {
		t.Fatal(err)
	}
	s := smallStream
	for i := 0; i < 6; i++ {
		if err := d.Ingest(s.Chunk(i)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.Shutdown()
			d.Shutdown() // second call on the same goroutine too
		}()
	}
	wg.Wait()
	d.Shutdown() // and once more after the race

	preds, err := d.Predict(s.Chunk(7))
	if err != nil {
		t.Fatalf("Predict after Shutdown: %v", err)
	}
	if len(preds) != s.rows {
		t.Fatalf("predictions = %d, want %d", len(preds), s.rows)
	}
}

// TestRestoreRacingPredict restores a checkpoint while reader goroutines
// hammer Predict and Stats. Restore swaps the whole snapshot atomically, so
// under -race no reader may ever observe a half-restored pipeline/model
// pair — every answer comes from the full pre- or post-restore state.
func TestRestoreRacingPredict(t *testing.T) {
	cfg := baseConfig(ModeContinuous)
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := smallStream
	for i := 0; i < 12; i++ {
		if err := d.Ingest(s.Chunk(i)); err != nil {
			t.Fatal(err)
		}
	}
	ckpt := frameOf(t, d)
	preRestore := d.Current().Version()

	const readers = 4
	stop := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := d.Predict(s.Chunk((g + i) % s.chunks)); err != nil {
					errs <- err
					return
				}
				_ = d.Stats()
			}
		}(g)
	}

	// Interleave restores with further training while readers run.
	for round := 0; round < 5; round++ {
		if err := d.SnapshotSink().Apply(ckpt); err != nil {
			t.Fatal(err)
		}
		if err := d.Ingest(s.Chunk(12 + round)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Each restore and each Ingest published: 5 restores + 5 ticks. The
	// frame is never newer than the published snapshot, so every restore
	// takes the next version.
	if v := d.Current().Version(); v != preRestore+10 {
		t.Fatalf("snapshot version = %d, want %d", v, preRestore+10)
	}
}

// TestFailedIngestPublishesNothing: when a tick fails, readers must keep
// serving the last good snapshot — the version must not advance.
func TestFailedIngestPublishesNothing(t *testing.T) {
	cfg := baseConfig(ModeContinuous)
	cfg.Store = data.NewStore(&failingBackend{
		Backend:   data.NewMemoryBackend(),
		failAfter: 12, // several ticks succeed, then storage starts failing
	})
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := smallStream
	var failures int
	for i := 0; i < 30; i++ {
		before := d.Current().Version()
		if err := d.Ingest(s.Chunk(i)); err != nil {
			failures++
			if v := d.Current().Version(); v != before {
				t.Fatalf("failed tick advanced snapshot version %d -> %d", before, v)
			}
		} else if v := d.Current().Version(); v != before+1 {
			t.Fatalf("successful tick published version %d, want %d", v, before+1)
		}
	}
	if failures == 0 {
		t.Fatal("no tick failed; test exercises nothing")
	}
	if _, err := d.Predict(s.Chunk(0)); err != nil {
		t.Fatalf("Predict after failed ticks: %v", err)
	}
}

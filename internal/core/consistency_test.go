package core

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cdml/internal/dataset"
	"cdml/internal/eval"
	"cdml/internal/model"
	"cdml/internal/pipeline"
	"cdml/internal/snapstream"
)

// The consistency oracle (ROADMAP item 2): every answer a live deployment
// gives is the answer of exactly one published version — the pipeline and
// the weights of the same snapshot, never a mix — and every frame it encodes
// is that version's whole state, optimizer included, checked mechanically
// against a sequential run of the same chunks.

// oracleCase is one deployment the oracle replays: config builds a fresh
// deployment config (its own store and sampler) per call, chunk is the
// stream.
type oracleCase struct {
	name   string
	config func() Config
	chunk  func(i int) [][]byte
}

// oracleCases are the two workloads, both continuous with a count-based
// proactive cadence, so a run is a pure function of its chunks. Both answer
// with RegressionPredictor: the URL model's raw margin, where a ±1 label
// would hide a torn read.
func oracleCases() []oracleCase {
	continuous := func(cfg Config) Config {
		cfg.Mode = ModeContinuous
		cfg.InitialChunks = 0
		cfg.ProactiveEvery = 2
		cfg.Predict = RegressionPredictor
		return cfg
	}
	const urlDim = 1 << 12
	u := dataset.DefaultURLConfig()
	u.Days, u.ChunksPerDay, u.RowsPerChunk, u.Vocab, u.HashDim = 10, 10, 40, 2000, urlDim
	url := dataset.NewURL(u)
	tx := dataset.DefaultTaxiConfig()
	tx.Chunks, tx.RowsPerChunk = 100, 40
	taxi := dataset.NewTaxi(tx)
	return []oracleCase{
		{"url", func() Config {
			cfg := continuous(baseConfig(ModeContinuous))
			cfg.NewPipeline = func() *pipeline.Pipeline { return dataset.NewURLPipeline(urlDim) }
			cfg.NewModel = func() model.Model { return dataset.NewURLModel(urlDim, 1e-3) }
			return cfg
		}, url.Chunk},
		{"taxi", func() Config {
			cfg := continuous(baseConfig(ModeContinuous))
			cfg.NewPipeline = dataset.NewTaxiPipeline
			cfg.NewModel = func() model.Model { return dataset.NewTaxiModel(1e-4) }
			cfg.Metric = &eval.RMSE{}
			return cfg
		}, taxi.Chunk},
	}
}

const (
	oracleTicks   = 40
	oracleFrameAt = 8  // the frame re-applied is the state after this many ticks
	oracleApplyAt = 20 // ... and it is applied before tick oracleApplyAt
	oracleReaders = 3
)

// sameBits reports whether two float slices are equal bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestChaosPredictAnswersOneVersion runs the URL and Taxi deployments with
// checkpoints every tick and at the default cadence. Readers predict a
// fixed probe, another goroutine frames the published state, the writer
// ingests and, at a fixed tick, restores an earlier frame. A cold replica
// applies the primary's FrameSince frames while readers of its own predict.
// Every (version, answer) pair, on the primary and on the replica mid-swap,
// must be the sequential run's answer at that version, bit for bit; every
// frame taken and every cadence checkpoint file must be the sequential run's
// frame of its version, byte for byte, and answer the same way in a cold
// deployer.
func TestChaosPredictAnswersOneVersion(t *testing.T) {
	skipInShort(t)
	for _, c := range oracleCases() {
		for _, every := range []int{1, 8} {
			c, every := c, every
			t.Run(fmt.Sprintf("%s/every=%d", c.name, every), func(t *testing.T) {
				oracleRun(t, c, every)
			})
		}
	}
}

func oracleRun(t *testing.T, c oracleCase, everyTicks int) {
	probe := c.chunk(oracleTicks + 5)
	answer := func(d *Deployer) []float64 {
		t.Helper()
		out, err := d.Predict(probe)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ingest := func(d *Deployer, i int) {
		t.Helper()
		if err := d.Ingest(c.chunk(i)); err != nil {
			t.Fatalf("ingest chunk %d: %v", i, err)
		}
	}

	// Reference: the same chunks and the same restore, one step at a time.
	ref, err := NewDeployer(c.config())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Shutdown()
	want := map[uint64][]float64{}
	wantFrame := map[uint64][]byte{}
	record := func() {
		v := ref.Published().Version()
		want[v], wantFrame[v] = answer(ref), frameOf(t, ref).Payload
	}
	record()
	var refFrame snapstream.Frame
	for i := 0; i < oracleTicks; i++ {
		if i == oracleApplyAt {
			if err := ref.SnapshotSink().Apply(refFrame); err != nil {
				t.Fatal(err)
			}
			record()
		}
		ingest(ref, i)
		record()
		if i == oracleFrameAt-1 {
			refFrame = frameOf(t, ref)
		}
	}
	// isWantFrame reports whether f is the sequential run's frame of its
	// version.
	isWantFrame := func(f snapstream.Frame) bool {
		w, ok := wantFrame[f.Version]
		return ok && bytes.Equal(f.Payload, w)
	}

	cfg := c.config()
	ckptDir := t.TempDir()
	cfg.AutoCheckpoint = &CheckpointPolicy{Dir: ckptDir, EveryTicks: everyTicks, Keep: 2 * oracleTicks}
	live, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Shutdown()
	replica, err := NewDeployer(c.config())
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Shutdown()

	var (
		stop     = make(chan struct{})
		wg       sync.WaitGroup
		mu       sync.Mutex
		frames   = map[uint64]snapstream.Frame{}
		answered [2]atomic.Uint64 // per deployer, the newest version any of its readers answered at
		versions = [2]map[uint64]bool{{}, {}}
	)
	halt := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer halt()
	for i, d := range []*Deployer{live, replica} {
		for g := 0; g < oracleReaders; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				seen := map[uint64]bool{}
				defer func() {
					mu.Lock()
					for v := range seen {
						versions[i][v] = true
					}
					mu.Unlock()
				}()
				for {
					select {
					case <-stop:
						return
					default:
					}
					out, v, err := d.predict(probe)
					if err != nil {
						t.Error(err)
						return
					}
					w, ok := want[v]
					if !ok || !sameBits(out, w) {
						t.Errorf("deployer %d: version %d answered %v, the sequential run answers %v", i, v, out, w)
						return
					}
					seen[v] = true
					for {
						old := answered[i].Load()
						if v <= old || answered[i].CompareAndSwap(old, v) {
							break
						}
					}
				}
			}()
		}
	}
	// The replica feed: the primary's newest frame, applied mid-read.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			f, ok, err := live.FrameSince(last)
			if err == nil && ok {
				if !isWantFrame(f) {
					t.Errorf("the replica feed framed version %d differently from the sequential run", f.Version)
					return
				}
				err = replica.SnapshotSink().Apply(f)
				last = f.Version
			}
			if err != nil {
				t.Error(err)
				return
			}
			if !ok {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		var since uint64
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var f snapstream.Frame
			var err error
			if i%2 == 0 {
				f, err = live.Current().Frame()
			} else {
				var ok bool
				if f, ok, err = live.FrameSince(since); err == nil && !ok {
					continue
				}
			}
			if err != nil {
				t.Error(err)
				return
			}
			if !isWantFrame(f) {
				t.Errorf("version %d framed differently from the sequential run", f.Version)
				return
			}
			since = f.Version
			mu.Lock()
			frames[f.Version] = f
			mu.Unlock()
		}
	}()

	// waitAnswered holds the writer until readers of the primary and of the
	// replica have answered at the published version, so every version is
	// read on both while the next tick runs.
	waitAnswered := func() {
		deadline := time.Now().Add(10 * time.Second)
		for v := live.Published().Version(); (answered[0].Load() < v || answered[1].Load() < v) &&
			time.Now().Before(deadline) && !t.Failed(); {
			time.Sleep(50 * time.Microsecond)
		}
	}
	var liveFrame snapstream.Frame
	for i := 0; i < oracleTicks; i++ {
		if i == oracleApplyAt {
			if err := live.SnapshotSink().Apply(liveFrame); err != nil {
				t.Fatal(err)
			}
			waitAnswered()
		}
		ingest(live, i)
		waitAnswered()
		if i == oracleFrameAt-1 {
			liveFrame = frameOf(t, live)
		}
	}
	halt()
	live.Shutdown() // the checkpoint writer's last file is on disk

	if !bytes.Equal(liveFrame.Payload, refFrame.Payload) {
		t.Fatal("the frame the live run restores is not the sequential run's")
	}
	files, err := snapstream.List(ckptDir)
	if err != nil || len(files) == 0 {
		t.Fatalf("cadence checkpoints: %v (err %v)", files, err)
	}
	for _, fi := range files {
		f, err := snapstream.ReadFile(fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		if !isWantFrame(f) {
			t.Fatalf("the cadence checkpoint of version %d is not the sequential run's frame", f.Version)
		}
	}
	for i, vs := range versions {
		if len(vs) < 20 {
			t.Fatalf("deployer %d: readers answered at %d distinct versions, want at least 20", i, len(vs))
		}
	}
	for v, f := range frames {
		cold, err := NewDeployer(c.config())
		if err != nil {
			t.Fatal(err)
		}
		if err := cold.SnapshotSink().Apply(f); err != nil {
			t.Fatalf("applying the frame of version %d: %v", v, err)
		}
		if got := cold.Published().Version(); got != v {
			t.Fatalf("the frame of version %d published version %d", v, got)
		}
		if got := answer(cold); !sameBits(got, want[v]) {
			t.Fatalf("the frame of version %d answers %v, the sequential run answers %v", v, got, want[v])
		}
		cold.Shutdown()
	}
	t.Logf("%d versions answered on the primary, %d on the replica, %d frames and %d checkpoint files checked",
		len(versions[0]), len(versions[1]), len(frames), len(files))
}

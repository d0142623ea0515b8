package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"cdml/datasets"
	"cdml/internal/core"
	"cdml/internal/data"
	"cdml/internal/engine"
	"cdml/internal/eval"
	"cdml/internal/model"
	"cdml/internal/obs"
	"cdml/internal/opt"
	"cdml/internal/pipeline"
	"cdml/internal/registry"
	"cdml/internal/sample"
	"cdml/internal/serve"
	"cdml/internal/snapstream"
	"cdml/internal/wal"
)

// The per-layer bill is measured in-process: this file times calls into each
// package's public functions, one span per call, and never reaches inside a
// package. Inputs are fixed (layerSeed), so the numbers describe the code,
// not the traffic, and every allocation count repeats exactly.

const (
	layerSeed = 1
	// layerWarmChunks trains each in-process deployment before anything is
	// timed, so component statistics and model weights are populated.
	layerWarmChunks = 200
	// recoverLogged is how many logged chunks each recovery replays.
	recoverLogged = 8
	// nsBatch is how many calls share one span where a single call is
	// shorter than reading the clock.
	nsBatch = 1000
	hashDim = 1 << 15 // cdml-serve's URL feature-hashing dimension
)

// layerSizes is how many calls stand behind each kind of figure. Every
// reported number comes from fullLayers; the test shrinks them. The counts
// are fixed, not fitted to a time budget: a deployment's allocation counts
// depend on how many chunks it has seen, and they must repeat exactly.
type layerSizes struct {
	us      int // calls over one record, and calls that do not depend on the input's size
	chunk   int // calls over a 256-row batch or an 80-row chunk: up to a millisecond each, so fewer, or a traced run would not fit the time a run may take
	ms      int // millisecond-scale operations: a checkpoint write with its fsyncs, a whole-snapshot encode or apply
	recover int // crash recoveries, each restoring a checkpoint and replaying recoverLogged ticks
	allocs  int // calls an allocation count is averaged over
}

var fullLayers = layerSizes{us: 2000, chunk: 500, ms: 200, recover: 30, allocs: 100}

// layerRun accumulates one in-process measurement.
type layerRun struct {
	n     layerSizes
	rec   *spanRecorder
	out   map[string]value
	trace int
	roots []string // names of the spans that have child spans
}

// timed calls fn n times under one root span each and reports the median
// duration as name, in unit ("us", "ms" or "ns").
func (l *layerRun) timed(name, unit string, n int, fn func() error) error {
	return l.timedSetup(name, unit, n, func() (func() error, func() error, error) { return fn, nil, nil })
}

// timedSetup is timed for calls that need untimed preparation before, and
// optionally an untimed check after, each timed call.
func (l *layerRun) timedSetup(name, unit string, n int, prepare func() (call, check func() error, err error)) error {
	lat := make(latencies, 0, n)
	for i := 0; i < n; i++ {
		call, check, err := prepare()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		l.trace++
		id := l.rec.begin(name, l.trace, -1)
		err = call()
		l.rec.end(id)
		if err == nil && check != nil {
			err = check()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		lat = append(lat, l.rec.spans[id].End-l.rec.spans[id].Start)
	}
	l.put(name, unit, quantileOf(lat.sorted(), 0.5), n)
	return nil
}

// timedBatch is timed for calls too short to time singly: each span covers
// nsBatch calls and the reported figure is per call, in nanoseconds.
func (l *layerRun) timedBatch(name string, n int, fn func()) {
	_ = l.timed(name, "ns", n, func() error { // the batch cannot fail
		for j := 0; j < nsBatch; j++ {
			fn()
		}
		return nil
	})
	l.out[name] = value{v: l.out[name].v / nsBatch, unit: "ns", n: n * nsBatch}
}

// timedWithAllocs reports fn's median time over n calls as
// <layer>_us.<shape> and its exact allocation count as
// <layer>_allocs.<shape>.
func (l *layerRun) timedWithAllocs(layer, shape string, n int, fn func() error) error {
	if err := l.timed(layer+"_us."+shape, "us", n, fn); err != nil {
		return err
	}
	l.allocs(layer+"_allocs."+shape, func() { _ = fn() })
	return nil
}

// stageFunc times one stage of a hand-assembled path as a child span.
type stageFunc func(name string, fn func() error) error

// stages runs a hand-assembled path n times. Each run is one root span
// named root; every stage it executes through the stageFunc is a child span
// of that root, reported as the median under the stage's own name. The
// root's self time — its duration minus what its stages cover — is reported
// as root.self_us once every span has been recorded (see runLayers).
func (l *layerRun) stages(root string, n int, path func(i int, stage stageFunc) error) error {
	byStage := map[string]latencies{}
	l.roots = append(l.roots, root)
	for i := 0; i < n; i++ {
		l.trace++
		rid := l.rec.begin(root, l.trace, -1)
		err := path(i, func(name string, fn func() error) error {
			id := l.rec.begin(name, l.trace, rid)
			err := fn()
			l.rec.end(id)
			byStage[name] = append(byStage[name], l.rec.spans[id].End-l.rec.spans[id].Start)
			return err
		})
		l.rec.end(rid)
		if err != nil {
			return fmt.Errorf("%s: %w", root, err)
		}
	}
	for name, lat := range byStage {
		l.put(name, "us", quantileOf(lat.sorted(), 0.5), len(lat))
	}
	return nil
}

func (l *layerRun) put(name, unit string, d time.Duration, n int) {
	v := value{unit: unit, n: n}
	switch unit {
	case "us":
		v.v = us(d)
	case "ms":
		v.v = ms(d)
	default:
		v.v = float64(d)
	}
	l.out[name] = v
}

// allocs reports the exact allocation count of one call of fn. The
// collector is held off while counting: a collection empties sync.Pools,
// and the refills would make the count depend on when it happened to run.
func (l *layerRun) allocs(name string, fn func()) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	l.out[name] = value{v: testing.AllocsPerRun(l.n.allocs, fn), unit: "count", n: l.n.allocs}
}

// fixture is one pipeline's in-process deployment plus the inputs the
// layers are called with.
type fixture struct {
	name   string // "url" or "taxi"
	batch  int    // predict rows: 1 for url, 256 for taxi
	reads  int    // how many times each read-side call is made
	shape  string // "url_b1" / "taxi_b256": suffix of the read-side metrics
	cshape string // "url_c80" / "taxi_c80": suffix of the write-side metrics
	dep    *core.Deployer
	eng    *engine.Engine
	query  [][]byte   // one predict batch
	chunks [][][]byte // training chunks beyond the warm-up ones, cycled
}

// layerConfig mirrors cdml-serve's deployment of the named pipeline, with
// one difference: proactive training is scheduled by chunk count and never
// comes due, because a wall-clock scheduler would make a tick's work — and
// its allocation count — depend on when it ran. core.tick_* is therefore a
// tick without proactive training; core.proactive_train_ms_mean, taken from
// the running server, is the part left out.
func layerConfig(name string, eng *engine.Engine) core.Config {
	cfg := core.Config{
		Mode:           core.ModeContinuous,
		Store:          data.NewStore(data.NewMemoryBackend()),
		Sampler:        sample.NewTime(1),
		SampleChunks:   8,
		ProactiveEvery: 1 << 30,
		Engine:         eng,
	}
	if name == "url" {
		cfg.NewPipeline = func() *pipeline.Pipeline { return datasets.NewURLPipeline(hashDim) }
		cfg.NewModel = func() model.Model { return datasets.NewURLModel(hashDim, 1e-3) }
		cfg.NewOptimizer = func() opt.Optimizer { return opt.NewAdam(0.05) }
		cfg.Metric = &eval.Misclassification{}
		cfg.Predict = core.ClassifyPredictor
	} else {
		cfg.NewPipeline = func() *pipeline.Pipeline { return datasets.NewTaxiPipeline() }
		cfg.NewModel = func() model.Model { return datasets.NewTaxiModel(1e-4) }
		cfg.NewOptimizer = func() opt.Optimizer { return opt.NewRMSProp(0.1) }
		cfg.Metric = &eval.RMSE{}
		cfg.Predict = core.RegressionPredictor
	}
	return cfg
}

// warmDeployer builds a deployment from cfg and trains it on the first
// layerWarmChunks chunks of src.
func warmDeployer(cfg core.Config, src chunkSource) (*core.Deployer, error) {
	dep, err := core.NewDeployer(cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < layerWarmChunks; i++ {
		if err := dep.Ingest(src(i)); err != nil {
			dep.Shutdown()
			return nil, fmt.Errorf("warm-up chunk %d: %w", i, err)
		}
	}
	return dep, nil
}

func newFixture(name string, batch int, n layerSizes) (*fixture, error) {
	src, err := newChunkSource(name, layerSeed, chunkRows)
	if err != nil {
		return nil, err
	}
	wide, err := newChunkSource(name, layerSeed, max(batch, chunkRows))
	if err != nil {
		return nil, err
	}
	eng := engine.New(0)
	dep, err := warmDeployer(layerConfig(name, eng), src)
	if err != nil {
		return nil, err
	}
	f := &fixture{
		name: name, batch: batch, dep: dep, eng: eng, reads: n.us,
		shape:  fmt.Sprintf("%s_b%d", name, batch),
		cshape: fmt.Sprintf("%s_c%d", name, chunkRows),
		query:  wide(layerWarmChunks)[:batch],
	}
	if batch > 1 {
		f.reads = n.chunk
	}
	for i := 0; i < 64; i++ {
		f.chunks = append(f.chunks, src(layerWarmChunks+1+i))
	}
	return f, nil
}

func (f *fixture) chunk(i int) [][]byte { return f.chunks[i%len(f.chunks)] }

// runLayers measures every in-process layer metric, writes the spans to
// spansPath and returns the metrics by name.
func runLayers(workDir, spansPath string, n layerSizes) (map[string]value, error) {
	scratch, err := os.MkdirTemp(workDir, "layers-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	l := &layerRun{n: n, rec: newSpanRecorder(), out: map[string]value{}}
	for _, fx := range []struct {
		name  string
		batch int
	}{{"url", 1}, {"taxi", 256}} {
		f, err := newFixture(fx.name, fx.batch, n)
		if err != nil {
			return nil, err
		}
		err = l.pipelineLayers(f)
		if err == nil {
			err = l.serveAndCoreLayers(f, scratch)
		}
		f.dep.Shutdown()
		if err != nil {
			return nil, fmt.Errorf("layers %s: %w", fx.name, err)
		}
	}
	if err := l.storageLayers(scratch); err != nil {
		return nil, err
	}
	if err := l.smallLayers(); err != nil {
		return nil, err
	}
	self := selfTimeMedians(l.rec.spans)
	for _, root := range l.roots {
		l.put(root+".self_us", "us", self[root], 0)
	}
	if err := l.rec.writeFile(spansPath); err != nil {
		return nil, err
	}
	return l.out, nil
}

// pipelineLayers itemises the read path (parse → each Transform → Instances
// → score) at the predict batch size and the write path (parse → each
// Update and Transform → Instances → sharded model update) at 80 rows, as
// one span tree per call, then times the packaged entry points the server
// really uses over the same inputs.
func (l *layerRun) pipelineLayers(f *fixture) error {
	cfg := layerConfig(f.name, f.eng)
	serving := f.dep.Pipeline().Snapshot()
	mdl := f.dep.Model()

	// Read path, stage by stage, on the frozen serving pipeline.
	var ins []data.Instance
	err := l.stages("pipeline.stages."+f.shape, f.reads, func(_ int, stage stageFunc) error {
		var fr *data.Frame
		err := stage("pipeline.parse_us."+f.shape, func() (err error) {
			fr, err = serving.Parser.Parse(f.query)
			return err
		})
		for _, c := range serving.Components {
			if err != nil {
				return err
			}
			err = stage("pipeline.transform_us."+f.name+"."+c.Name(), func() (err error) {
				fr, err = c.Transform(fr)
				return err
			})
		}
		if err != nil {
			return err
		}
		if err := stage("pipeline.instances_us."+f.shape, func() (err error) {
			ins, err = serving.Instances(fr)
			return err
		}); err != nil {
			return err
		}
		return stage("model.score_us."+f.shape, func() error {
			for _, in := range ins {
				sink += cfg.Predict(mdl, in.X)
			}
			return nil
		})
	})
	if err != nil {
		return err
	}

	// Write path, stage by stage, on a pipeline of its own: Update mutates.
	online := cfg.NewPipeline()
	warm, err := newChunkSource(f.name, layerSeed, chunkRows)
	if err != nil {
		return err
	}
	for i := 0; i < layerWarmChunks; i++ {
		if _, err := online.ProcessOnline(warm(i)); err != nil {
			return err
		}
	}
	err = l.stages("pipeline.stages."+f.cshape, l.n.chunk, func(i int, stage stageFunc) error {
		var fr *data.Frame
		err := stage("pipeline.parse_us."+f.cshape, func() (err error) {
			fr, err = online.Parser.Parse(f.chunk(i))
			return err
		})
		for _, c := range online.Components {
			if err != nil {
				return err
			}
			if err = stage("pipeline.update_us."+f.name+"."+c.Name(), func() error { return c.Update(fr) }); err != nil {
				return err
			}
			err = stage("pipeline.transform_c80_us."+f.name+"."+c.Name(), func() (err error) {
				fr, err = c.Transform(fr)
				return err
			})
		}
		if err != nil {
			return err
		}
		return stage("pipeline.instances_us."+f.cshape, func() (err error) {
			ins, err = online.Instances(fr)
			return err
		})
	})
	if err != nil {
		return err
	}

	// The packaged entry points.
	serveOnce := func() error {
		_, err := serving.ProcessServe(f.query)
		return err
	}
	if err := l.timedWithAllocs("pipeline.process_serve", f.shape, f.reads, serveOnce); err != nil {
		return err
	}
	n := 0
	if err := l.timedWithAllocs("pipeline.process_online", f.cshape, l.n.chunk, func() (err error) {
		ins, err = online.ProcessOnline(f.chunk(n))
		n++
		return err
	}); err != nil {
		return err
	}
	if err := l.timed("pipeline.snapshot_us."+f.name, "us", l.n.us, func() error {
		sinkPipe = online.Snapshot()
		return nil
	}); err != nil {
		return err
	}

	// The model on its own: one sharded update (gradient shards on the
	// engine, ordered reduce, one optimizer step) per 80-row chunk, and a
	// clone, which is what every publish pays.
	trainee, optm := cfg.NewModel(), cfg.NewOptimizer()
	trainee.SetWeights(mdl.Weights())
	if err := l.timedWithAllocs("model.update", f.cshape, l.n.chunk, func() error {
		_, _, err := core.ShardedUpdate(context.Background(), f.eng, core.DefaultGradShardRows, trainee, optm, ins)
		return err
	}); err != nil {
		return err
	}
	return l.timed("model.clone_us."+f.name, "us", l.n.us, func() error {
		sinkModel = trainee.Clone()
		return nil
	})
}

// Results parked in package-level variables so the compiler cannot drop the
// calls that produce them.
var (
	sink      float64
	sinkPipe  *pipeline.Pipeline
	sinkModel model.Model
)

// quietLog formats request log lines the way cdml-serve does and throws
// them away: the handler pays for building the line, not for a terminal.
func quietLog() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// serveAndCoreLayers times the HTTP handler on a recorder, the deployment's
// Predict and Ingest, the publish ingredients, and — on url, the large
// model — checkpoint writing, recovery and the snapshot frame.
func (l *layerRun) serveAndCoreLayers(f *fixture, scratch string) error {
	body := joinRecords(f.query)
	srv := serve.New(f.dep, serve.WithSlog(quietLog()))
	defer srv.Close()
	const path = "/v1/deployments/default/predict"
	var lastBody []byte
	handle := func() error {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d: %s", rec.Code, rec.Body)
		}
		lastBody = rec.Body.Bytes()
		return nil
	}
	if err := l.timedWithAllocs("serve.handler", f.shape, f.reads, handle); err != nil {
		return err
	}
	var preds []float64
	if err := l.timedWithAllocs("core.predict", f.shape, f.reads, func() (err error) {
		preds, err = f.dep.Predict(f.query)
		return err
	}); err != nil {
		return err
	}

	var resp serve.PredictResponse
	if err := json.Unmarshal(lastBody, &resp); err != nil {
		return fmt.Errorf("decoding the handler's own answer: %w", err)
	}
	if len(resp.Predictions) != len(preds) {
		return fmt.Errorf("handler answered %d predictions, Predict %d", len(resp.Predictions), len(preds))
	}
	encodeName := fmt.Sprintf("serve.encode_us.b%d", f.batch)
	if err := l.timed(encodeName, "us", l.n.us, func() error {
		return json.NewEncoder(io.Discard).Encode(resp)
	}); err != nil {
		return err
	}
	l.out["serve.self_us."+f.shape] = value{
		v:    l.out["serve.handler_us."+f.shape].v - l.out["core.predict_us."+f.shape].v - l.out[encodeName].v,
		unit: "us",
	}

	if f.name == "url" {
		if err := l.spanOverhead(handle); err != nil {
			return err
		}
	}

	// One training tick: prequential scoring, online update, store, publish.
	n := 0
	if err := l.timedWithAllocs("core.tick", f.cshape, l.n.chunk, func() error {
		n++
		return f.dep.Ingest(f.chunk(n))
	}); err != nil {
		return err
	}
	if err := l.timed("core.publish_us."+f.name, "us", l.n.us, func() error {
		sinkPipe = f.dep.Pipeline().Snapshot()
		sinkModel = f.dep.Model().Clone()
		return nil
	}); err != nil {
		return err
	}

	if f.name == "taxi" {
		return l.ingestAckLayer(f, scratch)
	}

	ckDir := filepath.Join(scratch, "ck")
	if err := os.MkdirAll(ckDir, 0o755); err != nil {
		return err
	}
	var info core.CheckpointInfo
	if err := l.timed("core.checkpoint_write_ms.url", "ms", l.n.ms, func() (err error) {
		info, err = core.WriteCheckpointFile(ckDir, f.dep.Current())
		return err
	}); err != nil {
		return err
	}
	st, err := os.Stat(info.Path)
	if err != nil {
		return err
	}
	l.out["core.checkpoint_bytes.url"] = value{v: float64(st.Size()), unit: "bytes"}

	var frame snapstream.Frame
	if err := l.timed("snapstream.frame_encode_ms.url", "ms", l.n.ms, func() (err error) {
		if frame, err = f.dep.Current().Frame(); err == nil {
			sinkBytes = snapstream.EncodeFrame(frame)
		}
		return err
	}); err != nil {
		return err
	}
	replica, err := core.NewDeployer(layerConfig("url", f.eng))
	if err != nil {
		return err
	}
	defer replica.Shutdown()
	if err := l.timed("snapstream.apply_ms.url", "ms", l.n.ms, func() error {
		return replica.SnapshotSink().Apply(frame)
	}); err != nil {
		return err
	}
	return l.recoverLayer(f, scratch)
}

var sinkBytes []byte

// spanOverhead compares the handler loop with the recorder on and off, in
// alternating blocks so that a slow stretch of the machine lands on both
// sides, and reports the difference of the median block means.
func (l *layerRun) spanOverhead(handle func() error) error {
	blocks, perBlock := 10, max(l.n.us/10, 1)
	var on, off []float64
	for b := 0; b < 2*blocks; b++ {
		rec := l.rec
		if b%2 == 1 {
			rec = nil
		}
		start := time.Now()
		for i := 0; i < perBlock; i++ {
			id := rec.begin("trace.overhead", 0, -1)
			err := handle()
			rec.end(id)
			if err != nil {
				return err
			}
		}
		mean := us(time.Since(start)) / float64(perBlock)
		if rec != nil {
			on = append(on, mean)
		} else {
			off = append(off, mean)
		}
	}
	l.out["trace.overhead_pct"] = value{v: 100 * (median(on) - median(off)) / median(off), unit: "%", n: 2 * blocks * perBlock}
	return nil
}

// ingestAckLayer times the async-ingest handler with a synced write-ahead
// log: body read, log append with its fsync, enqueue, 202. It runs on taxi,
// whose tick is shorter than the fsync, so the queue behind the handler
// never fills while it is being timed.
func (l *layerRun) ingestAckLayer(f *fixture, scratch string) error {
	cfg := layerConfig("taxi", f.eng)
	cfg.IngestLog = &wal.Options{Dir: filepath.Join(scratch, "ack-wal")}
	src, err := newChunkSource("taxi", layerSeed, chunkRows)
	if err != nil {
		return err
	}
	dep, err := warmDeployer(cfg, src)
	if err != nil {
		return err
	}
	defer dep.Shutdown()
	srv := serve.New(dep, serve.WithSlog(quietLog()))
	defer srv.Close()
	defer func() {
		// Stop the drainer before the deployment under it shuts down.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.DrainIngest(ctx)
	}()
	// The drainer trains behind the handler; an untimed pause every
	// ackBurst chunks lets it empty the queue, as the paced open-loop
	// traffic of the end-to-end run does.
	const ackBurst = 128
	waitEmpty := func() error {
		for {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/deployments/default/status", nil))
			var st statusView
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				return err
			}
			if st.IngestQueueDepth == 0 {
				return nil
			}
			time.Sleep(time.Millisecond)
		}
	}
	n := 0
	return l.timedSetup("serve.ingest_ack_handler_us", "us", l.n.chunk, func() (func() error, func() error, error) {
		if n++; n%ackBurst == 0 {
			if err := waitEmpty(); err != nil {
				return nil, nil, err
			}
		}
		body := joinRecords(f.chunk(n))
		call := func() error {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/deployments/default/ingest", bytes.NewReader(body)))
			if rec.Code != http.StatusAccepted {
				return fmt.Errorf("status %d: %s", rec.Code, rec.Body)
			}
			return nil
		}
		return call, nil, nil
	})
}

// recoverLayer times crash recovery: restore the newest checkpoint, then
// replay the recoverLogged chunks the write-ahead log holds past it.
func (l *layerRun) recoverLayer(f *fixture, scratch string) error {
	ckDir, walDir := filepath.Join(scratch, "rec-ck"), filepath.Join(scratch, "rec-wal")
	newCfg := func() core.Config {
		cfg := layerConfig("url", f.eng)
		// The policy names the directory; its tick trigger never fires, so
		// the only checkpoint is the one written below.
		cfg.AutoCheckpoint = &core.CheckpointPolicy{Dir: ckDir, EveryTicks: 1 << 30}
		cfg.IngestLog = &wal.Options{Dir: walDir}
		return cfg
	}
	src, err := newChunkSource("url", layerSeed, chunkRows)
	if err != nil {
		return err
	}
	crashed, err := warmDeployer(newCfg(), src)
	if err != nil {
		return err
	}
	ck, err := crashed.CheckpointNow()
	if err == nil {
		for i := 0; i < recoverLogged && err == nil; i++ {
			var seq uint64
			if seq, err = crashed.AppendIngestLog(f.chunk(i)); err == nil {
				err = crashed.IngestLogged(context.Background(), f.chunk(i), time.Time{}, seq)
			}
		}
	}
	crashed.Shutdown()
	if err != nil {
		return fmt.Errorf("preparing the crashed deployment: %w", err)
	}
	return l.timedSetup("core.recover_ms", "ms", l.n.recover, func() (func() error, func() error, error) {
		dep, err := core.NewDeployer(newCfg())
		if err != nil {
			return nil, nil, err
		}
		call := func() error {
			_, err := dep.RecoverFromDir(ckDir)
			return err
		}
		check := func() error {
			defer dep.Shutdown()
			st, _ := dep.WALStats()
			if got := dep.Current().Version(); got != ck.Version+recoverLogged || st.Replayed != recoverLogged {
				return fmt.Errorf("recovered to version %d replaying %d chunks, want version %d replaying %d", got, st.Replayed, ck.Version+recoverLogged, recoverLogged)
			}
			return nil
		}
		return call, check, nil
	})
}

// storageLayers times the chunk store and the write-ahead log on their own.
func (l *layerRun) storageLayers(scratch string) error {
	src, err := newChunkSource("taxi", layerSeed, chunkRows)
	if err != nil {
		return err
	}
	records := src(layerWarmChunks)
	ins, err := datasets.NewTaxiPipeline().ProcessOnline(records)
	if err != nil {
		return err
	}
	store := data.NewStore(data.NewMemoryBackend())
	if err := l.timed("data.store_put_us.c80", "us", l.n.us, func() error {
		id, err := store.AppendRaw(records)
		if err != nil {
			return err
		}
		return store.PutFeatures(id, ins)
	}); err != nil {
		return err
	}

	synced, err := wal.Open(wal.Options{Dir: filepath.Join(scratch, "wal-sync")})
	if err != nil {
		return err
	}
	defer func() { _ = synced.Close() }() // a scratch log, about to be deleted
	var seq uint64
	if err := l.timed("wal.append_fsync_us", "us", l.n.chunk, func() (err error) {
		seq, err = synced.Append(records, 1)
		return err
	}); err != nil {
		return err
	}
	applied := seq - uint64(l.n.chunk)
	if err := l.timed("wal.mark_applied_us", "us", l.n.chunk, func() error {
		applied++
		return synced.MarkApplied(applied, applied+1)
	}); err != nil {
		return err
	}
	buffered, err := wal.Open(wal.Options{Dir: filepath.Join(scratch, "wal-nosync"), NoSync: true})
	if err != nil {
		return err
	}
	defer func() { _ = buffered.Close() }() // a scratch log, about to be deleted
	return l.timed("wal.append_nosync_us", "us", l.n.us, func() error {
		_, err := buffered.Append(records, 1)
		return err
	})
}

// smallLayers times the two calls every request makes that are shorter than
// a clock read: resolving a deployment by name and observing a histogram.
func (l *layerRun) smallLayers() error {
	reg := registry.New(registry.Options{Metrics: obs.NewRegistry()})
	defer reg.Close()
	if _, err := reg.Create("default", layerConfig("taxi", engine.New(1)), registry.Quotas{}); err != nil {
		return err
	}
	l.timedBatch("registry.lookup_ns", max(l.n.us/10, 1), func() {
		if _, ok := reg.Get("default"); !ok {
			sink++
		}
	})
	h := obs.NewHistogram()
	l.timedBatch("obs.histogram_observe_ns", max(l.n.us/10, 1), func() { h.Observe(137 * time.Microsecond) })
	return nil
}

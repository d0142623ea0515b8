// Benchmarks regenerating every table and figure of the paper's evaluation
// (one Benchmark per artifact — see DESIGN.md's experiment index), followed
// by ablation benches for the design decisions DESIGN.md calls out and
// micro-benchmarks of the hot paths.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The per-iteration custom metrics (cost ratios, error rates) are the
// reproduced quantities; ns/op measures harness runtime, not the paper's
// deployment cost.
package cdml_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"cdml"
	"cdml/internal/core"
	"cdml/internal/data"
	"cdml/internal/dataset"
	"cdml/internal/engine"
	"cdml/internal/eval"
	"cdml/internal/experiment"
	"cdml/internal/linalg"
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

// benchScale lets CI run the benchmark suite at small scale while full
// reproductions use CDML_BENCH_SCALE=medium or full.
func benchScale(b *testing.B) experiment.Scale {
	b.Helper()
	if s := os.Getenv("CDML_BENCH_SCALE"); s != "" {
		sc, err := experiment.ParseScale(s)
		if err != nil {
			b.Fatal(err)
		}
		return sc
	}
	return experiment.ScaleSmall
}

// ---------------------------------------------------------------------------
// One bench per paper artifact

// BenchmarkFig4DeploymentURL regenerates Figure 4(a)/(b): quality and cost
// of online vs periodical vs continuous deployment on the URL workload.
func BenchmarkFig4DeploymentURL(b *testing.B) {
	scale := benchScale(b)
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig4(experiment.URLWorkload(scale))
		if err != nil {
			b.Fatal(err)
		}
		per := r.Results["periodical"]
		cont := r.Results["continuous"]
		b.ReportMetric(float64(per.Cost.Work)/float64(cont.Cost.Work), "periodical/continuous-rows")
		b.ReportMetric(cont.FinalError, "continuous-error")
		b.ReportMetric(per.FinalError, "periodical-error")
	}
}

// BenchmarkFig4DeploymentTaxi regenerates Figure 4(c)/(d) on the Taxi
// workload.
func BenchmarkFig4DeploymentTaxi(b *testing.B) {
	scale := benchScale(b)
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig4(experiment.TaxiWorkload(scale))
		if err != nil {
			b.Fatal(err)
		}
		per := r.Results["periodical"]
		cont := r.Results["continuous"]
		b.ReportMetric(float64(per.Cost.Work)/float64(cont.Cost.Work), "periodical/continuous-rows")
		b.ReportMetric(cont.FinalError, "continuous-rmsle")
	}
}

// BenchmarkTable3HyperparameterGrid regenerates Table 3: the adaptation ×
// regularization grid on initial training (URL workload).
func BenchmarkTable3HyperparameterGrid(b *testing.B) {
	scale := benchScale(b)
	for i := 0; i < b.N; i++ {
		r, err := experiment.Table3(experiment.URLWorkload(scale))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.BestOverall().Error, "best-grid-error")
	}
}

// BenchmarkFig5AdaptationDeployment regenerates Figure 5: deployed quality
// per learning-rate adaptation technique (URL workload).
func BenchmarkFig5AdaptationDeployment(b *testing.B) {
	scale := benchScale(b)
	for i := 0; i < b.N; i++ {
		w := experiment.URLWorkload(scale)
		grid, err := experiment.Table3(w)
		if err != nil {
			b.Fatal(err)
		}
		r, err := experiment.Fig5(w, grid)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range r.Curves {
			b.ReportMetric(c.AvgError, c.Adaptation+"-error")
		}
	}
}

// BenchmarkFig6SamplingQuality regenerates Figure 6: deployed quality per
// sampling strategy on the drifting URL workload.
func BenchmarkFig6SamplingQuality(b *testing.B) {
	scale := benchScale(b)
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig6(experiment.URLWorkload(scale))
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range r.Curves {
			b.ReportMetric(c.AvgError, c.Strategy+"-error")
		}
	}
}

// BenchmarkTable4MaterializationUtilization regenerates Table 4 at the
// paper's own size: empirical vs analytical μ per strategy and
// materialization rate.
func BenchmarkTable4MaterializationUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Table4(12000, 50, 6000)
		for _, row := range r.Rows {
			if row.HasTheory {
				b.ReportMetric(row.Empirical-row.Theory, fmt.Sprintf("%s-%.1f-gap", row.Strategy, row.Rate))
			}
		}
	}
}

// BenchmarkFig7OptimizationCost regenerates Figure 7: deployment cost per
// sampling strategy and materialization rate, plus NoOptimization (URL
// workload).
func BenchmarkFig7OptimizationCost(b *testing.B) {
	scale := benchScale(b)
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig7(experiment.URLWorkload(scale))
		if err != nil {
			b.Fatal(err)
		}
		c0, _ := r.CostAt("time", 0.0)
		c1, _ := r.CostAt("time", 1.0)
		b.ReportMetric(float64(r.NoOptCost.Work)/float64(c1.Work), "noopt/optimized-rows")
		b.ReportMetric(float64(c0.Work)/float64(c1.Work), "rate0/rate1-rows")
	}
}

// BenchmarkFig8QualityCostTradeoff regenerates Figure 8: average quality vs
// total cost of the three approaches (Taxi workload).
func BenchmarkFig8QualityCostTradeoff(b *testing.B) {
	scale := benchScale(b)
	for i := 0; i < b.N; i++ {
		f4, err := experiment.Fig4(experiment.TaxiWorkload(scale))
		if err != nil {
			b.Fatal(err)
		}
		f8 := experiment.Fig8(f4)
		for _, p := range f8.Points {
			b.ReportMetric(p.AvgError, p.Mode+"-error")
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5)

// BenchmarkAblationSparseVsDenseGradient measures the lazy-sparse update
// the high-dimensional URL model depends on: one Adam step with a sparse
// gradient touching 100 of 2^18 coordinates vs the equivalent dense
// gradient.
func BenchmarkAblationSparseVsDenseGradient(b *testing.B) {
	const dim = 1 << 18
	const nnz = 100
	idx := make([]int32, nnz)
	val := make([]float64, nnz)
	for i := range idx {
		idx[i] = int32(i * (dim / nnz))
		val[i] = 1
	}
	sparse := linalg.NewSparse(dim, idx, val)
	dense := sparse.ToDense()
	b.Run("sparse", func(b *testing.B) {
		o := opt.NewAdam(0.01)
		w := make([]float64, dim)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o.Step(w, sparse)
		}
	})
	b.Run("dense", func(b *testing.B) {
		o := opt.NewAdam(0.01)
		w := make([]float64, dim)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o.Step(w, dense)
		}
	})
}

// BenchmarkAblationWarmStart compares periodical retraining with and
// without TFX-style warm starting (the cold start must recompute pipeline
// statistics over the whole history).
func BenchmarkAblationWarmStart(b *testing.B) {
	for _, warm := range []bool{true, false} {
		name := "cold"
		if warm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := experiment.URLWorkload(experiment.ScaleSmall)
				cfg := w.BaseConfig(core.ModePeriodical, 1)
				cfg.WarmStart = warm
				d, err := core.NewDeployer(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := d.Run(w.Stream)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Cost.Total().Seconds(), "deploy-cost-s")
			}
		})
	}
}

// BenchmarkAblationMaterializationHitVsMiss measures dynamic
// materialization's payoff: fetching a materialized feature chunk vs
// re-materializing it through the deployed pipeline.
func BenchmarkAblationMaterializationHitVsMiss(b *testing.B) {
	cfg := dataset.DefaultURLConfig()
	cfg.Days, cfg.ChunksPerDay, cfg.RowsPerChunk, cfg.Vocab = 2, 2, 200, 2000
	cfg.HashDim = 1 << 14
	gen := dataset.NewURL(cfg)
	pipe := dataset.NewURLPipeline(cfg.HashDim)
	records := gen.Chunk(0)
	ins, err := pipe.ProcessOnline(records)
	if err != nil {
		b.Fatal(err)
	}
	store := data.NewStore(data.NewMemoryBackend())
	id, err := store.AppendRaw(records)
	if err != nil {
		b.Fatal(err)
	}
	if err := store.PutFeatures(id, ins); err != nil {
		b.Fatal(err)
	}
	b.Run("hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok, err := store.Features(id); err != nil || !ok {
				b.Fatal("expected materialized chunk")
			}
		}
	})
	b.Run("miss-rematerialize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			raw, err := store.Raw(id)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pipe.ProcessServe(raw.Records); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationDiskVsMemoryBackend prices the storage tiers behind
// dynamic materialization.
func BenchmarkAblationDiskVsMemoryBackend(b *testing.B) {
	mkInstances := func() []data.Instance {
		out := make([]data.Instance, 200)
		for i := range out {
			out[i] = data.Instance{X: linalg.NewSparse(1<<14, []int32{1, 100, 1000}, []float64{1, 2, 3}), Y: 1}
		}
		return out
	}
	run := func(b *testing.B, backend data.Backend) {
		ins := mkInstances()
		fc := data.FeatureChunk{ID: 1, RawID: 1, Instances: ins}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := backend.PutFeatures(fc); err != nil {
				b.Fatal(err)
			}
			if _, err := backend.GetFeatures(1); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("memory", func(b *testing.B) { run(b, data.NewMemoryBackend()) })
	b.Run("disk", func(b *testing.B) {
		disk, err := data.NewDiskBackend(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		run(b, disk)
	})
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the hot paths

// BenchmarkObsCounterInc measures the per-event cost of the observability
// counters on the serving hot path; it must be a single atomic add with zero
// allocations.
func BenchmarkObsCounterInc(b *testing.B) {
	c := obs.NewRegistry().Counter("bench_events_total", "bench counter")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkObsHistogramObserve measures recording one latency sample into a
// log-bucketed histogram; bucket selection plus three atomic adds, zero
// allocations.
func BenchmarkObsHistogramObserve(b *testing.B) {
	h := obs.NewRegistry().Histogram("bench_latency_seconds", "bench histogram")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i%1000) * time.Microsecond)
	}
}

// BenchmarkSparseDot measures the inner product driving every prediction on
// the URL workload.
func BenchmarkSparseDot(b *testing.B) {
	const dim = 1 << 18
	idx := make([]int32, 200)
	val := make([]float64, 200)
	for i := range idx {
		idx[i] = int32(i * (dim / 200))
		val[i] = float64(i)
	}
	x := linalg.NewSparse(dim, idx, val)
	w := make([]float64, dim)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += x.Dot(w)
	}
	_ = sink
}

// BenchmarkPipelineProcessOnline measures one online Update+Transform pass
// of the URL pipeline over a 200-record chunk.
func BenchmarkPipelineProcessOnline(b *testing.B) {
	cfg := dataset.DefaultURLConfig()
	cfg.Days, cfg.ChunksPerDay, cfg.RowsPerChunk, cfg.Vocab = 2, 2, 200, 2000
	cfg.HashDim = 1 << 14
	gen := dataset.NewURL(cfg)
	pipe := dataset.NewURLPipeline(cfg.HashDim)
	records := gen.Chunk(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipe.ProcessOnline(records); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineProcessServeTaxi256 measures the transform-only path of a
// trained Taxi pipeline over a 256-record query — the pipeline's share of a
// batch predict. Allocations are O(columns): the count does not depend on
// the batch size.
func BenchmarkPipelineProcessServeTaxi256(b *testing.B) {
	pipe, query := trainedTaxiPipeline(b, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipe.ProcessServe(query); err != nil {
			b.Fatal(err)
		}
	}
}

// taxiBenchStream is the stream the batch-predict benches share: 20 training
// chunks, then chunk 20 as the query, rows records each.
func taxiBenchStream(rows int) *dataset.Taxi {
	cfg := dataset.DefaultTaxiConfig()
	cfg.Chunks, cfg.RowsPerChunk = 21, rows
	return dataset.NewTaxi(cfg)
}

// trainedTaxiPipeline returns a Taxi pipeline whose statistics have seen 20
// chunks, and a query of the given size.
func trainedTaxiPipeline(b *testing.B, rows int) (*pipeline.Pipeline, [][]byte) {
	b.Helper()
	gen := taxiBenchStream(rows)
	pipe := dataset.NewTaxiPipeline()
	for i := 0; i < 20; i++ {
		if _, err := pipe.ProcessOnline(gen.Chunk(i)); err != nil {
			b.Fatal(err)
		}
	}
	return pipe, gen.Chunk(20)
}

// BenchmarkProactiveTrainingIteration measures one mini-batch SGD iteration
// over a proactive-training sample (8 chunks × 200 rows, sparse SVM): the
// one core.Step proactive training takes.
func BenchmarkProactiveTrainingIteration(b *testing.B) {
	cfg := dataset.DefaultURLConfig()
	cfg.Days, cfg.ChunksPerDay, cfg.RowsPerChunk, cfg.Vocab = 4, 2, 200, 2000
	cfg.HashDim = 1 << 14
	gen := dataset.NewURL(cfg)
	pipe := dataset.NewURLPipeline(cfg.HashDim)
	var batch []data.Instance
	for i := 0; i < 8; i++ {
		ins, err := pipe.ProcessOnline(gen.Chunk(i))
		if err != nil {
			b.Fatal(err)
		}
		batch = append(batch, ins...)
	}
	m := model.NewSVM(cfg.HashDim, 1e-3)
	benchUpdates(b, m, opt.NewAdam(0.05), batch)
}

// benchUpdates times b.N training steps of m over batch as a deployment
// takes them.
func benchUpdates(b *testing.B, m model.Model, o opt.Optimizer, batch []data.Instance) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Step(context.Background(), m, o, batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictDuringTraining measures the lock-free read path's
// serving latency while the serialized writer runs retrain-heavy Ingest
// ticks in the background. The "idle" sub-run is the baseline; the
// "training" sub-run should show Predict latency (including its p99)
// independent of training-tick duration — Predict reads an immutable
// published snapshot and acquires no lock shared with Ingest. On a
// single-CPU machine the remaining gap measures CPU sharing with the
// training goroutine (there is only one core to compute on), not lock
// contention; on multi-core machines the sub-runs converge.
//
// The "training+checkpointing" sub-run adds per-tick auto-checkpointing —
// the background manager encodes and fsyncs every published snapshot. It
// shares no lock with either Predict or Ingest, so on multi-core machines
// it matches the "training" sub-run; on one core the checkpoint encoder's
// CPU time shows up the same way the trainer's does.
func BenchmarkPredictDuringTraining(b *testing.B) {
	cfg := dataset.DefaultURLConfig()
	cfg.Days, cfg.ChunksPerDay, cfg.RowsPerChunk, cfg.Vocab = 20, 5, 100, 2000
	cfg.HashDim = 1 << 14
	gen := dataset.NewURL(cfg)
	newDep := func(b *testing.B, ckpt bool) *cdml.Deployer {
		deployCfg := cdml.Config{
			Mode:         cdml.ModePeriodical,
			NewPipeline:  func() *cdml.Pipeline { return dataset.NewURLPipeline(cfg.HashDim) },
			NewModel:     func() cdml.Model { return dataset.NewURLModel(cfg.HashDim, 1e-3) },
			NewOptimizer: func() cdml.Optimizer { return cdml.NewAdam(0.05) },
			Store:        cdml.NewStore(cdml.NewMemoryBackend()),
			Sampler:      cdml.NewTimeSampler(1),
			SampleChunks: 5,
			RetrainEvery: 3, // writer retrains on every third tick
			WarmStart:    true,
			Seed:         7,
			Metric:       &cdml.Misclassification{},
			Predict:      cdml.ClassifyPredictor,
		}
		if ckpt {
			// Checkpoint after every tick — the most aggressive durability
			// setting, so any writer-loop stall it caused would be visible.
			deployCfg.AutoCheckpoint = &cdml.CheckpointPolicy{Dir: b.TempDir(), EveryTicks: 1, Keep: 2}
		}
		d, err := cdml.NewDeployer(deployCfg)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if err := d.Ingest(gen.Chunk(i)); err != nil {
				b.Fatal(err)
			}
		}
		return d
	}
	query := gen.Chunk(11)

	for _, bc := range []struct {
		name           string
		training, ckpt bool
	}{
		{"idle", false, false},
		{"training", true, false},
		// Auto-checkpointing rides the background manager goroutine; the
		// read path's latency must match the plain "training" sub-run.
		{"training+checkpointing", true, true},
	} {
		training := bc.training
		b.Run(bc.name, func(b *testing.B) {
			d := newDep(b, bc.ckpt)
			defer d.Shutdown()
			stop := make(chan struct{})
			done := make(chan struct{})
			if training {
				go func() {
					defer close(done)
					for i := 10; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						if err := d.Ingest(gen.Chunk(i % gen.NumChunks())); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			} else {
				close(done)
			}
			lat := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				if _, err := d.Predict(query); err != nil {
					b.Fatal(err)
				}
				lat = append(lat, time.Since(start))
			}
			b.StopTimer()
			close(stop)
			<-done
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			b.ReportMetric(float64(lat[len(lat)*99/100])/1e6, "p99-ms")
		})
	}
}

// BenchmarkSamplers measures the three sampling strategies over the paper's
// 12,000-chunk id space.
func BenchmarkSamplers(b *testing.B) {
	ids := make([]data.Timestamp, 12000)
	for i := range ids {
		ids[i] = data.Timestamp(i)
	}
	for _, mk := range []struct {
		name string
		s    sample.Strategy
	}{
		{"uniform", sample.NewUniform(1)},
		{"window", sample.NewWindow(6000, 1)},
		{"time", sample.NewTime(1)},
	} {
		b.Run(mk.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mk.s.Sample(ids, 50)
			}
		})
	}
}

// BenchmarkEndToEndContinuousDeployment measures a complete small
// continuous deployment through the public API.
func BenchmarkEndToEndContinuousDeployment(b *testing.B) {
	cfg := dataset.DefaultURLConfig()
	cfg.Days, cfg.ChunksPerDay, cfg.RowsPerChunk, cfg.Vocab = 20, 5, 50, 2000
	cfg.HashDim = 1 << 14
	for i := 0; i < b.N; i++ {
		gen := dataset.NewURL(cfg)
		deployCfg := cdml.Config{
			Mode:           cdml.ModeContinuous,
			NewPipeline:    func() *cdml.Pipeline { return dataset.NewURLPipeline(cfg.HashDim) },
			NewModel:       func() cdml.Model { return dataset.NewURLModel(cfg.HashDim, 1e-3) },
			NewOptimizer:   func() cdml.Optimizer { return cdml.NewAdam(0.05) },
			Store:          cdml.NewStore(cdml.NewMemoryBackend()),
			Sampler:        cdml.NewTimeSampler(1),
			SampleChunks:   5,
			ProactiveEvery: 5,
			InitialChunks:  5,
			Metric:         &cdml.Misclassification{},
			Predict:        cdml.ClassifyPredictor,
		}
		d, err := cdml.NewDeployer(deployCfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := d.Run(gen)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FinalError, "final-error")
	}
}

// ---------------------------------------------------------------------------
// Extension benches (beyond the paper's evaluation; DESIGN.md extensions)

// BenchmarkExtDriftAlleviation runs the drift detection/alleviation
// comparison: schedule-only vs DDM vs Page-Hinkley on a flipping stream.
func BenchmarkExtDriftAlleviation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.ExtDrift()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			b.ReportMetric(row.FinalError, row.Variant+"-error")
		}
	}
}

// BenchmarkExtRecsysDeployment runs the matrix factorization recommender
// comparison (online vs continuous on drifting preferences).
func BenchmarkExtRecsysDeployment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.ExtRecsys()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.OnlineRMSE, "online-rmse")
		b.ReportMetric(r.ContinuousRMSE, "continuous-rmse")
	}
}

// BenchmarkMFUpdate measures one mini-batch SGD iteration of the matrix
// factorization model.
func BenchmarkMFUpdate(b *testing.B) {
	const users, items = 500, 1000
	m := model.NewMF(users, items, 8, 1e-3, 1)
	o := opt.NewAdam(0.05)
	batch := make([]data.Instance, 256)
	for k := range batch {
		batch[k] = data.Instance{
			X: model.EncodePair(users, items, k%users, (k*7)%items),
			Y: 3.5,
		}
	}
	benchUpdates(b, m, o, batch)
}

// BenchmarkKMeansUpdate measures one mini-batch k-means iteration.
func BenchmarkKMeansUpdate(b *testing.B) {
	m := model.NewKMeans(16, 32)
	o := opt.NewSGD(0.05)
	batch := make([]data.Instance, 256)
	for k := range batch {
		x := make(linalg.Dense, 32)
		for j := range x {
			x[j] = float64((k*j)%17) / 17
		}
		batch[k] = data.Instance{X: x}
	}
	m.Init(batch)
	benchUpdates(b, m, o, batch)
}

// BenchmarkStorePutGet is what the data manager does with one 80-row URL
// chunk on the memory backend: AppendRaw and PutFeatures copy it into its
// packed form, Features rebuilds the row headers over it. B/op and
// allocs/op are the packed arrays plus those headers — nothing per row.
func BenchmarkStorePutGet(b *testing.B) {
	const hashDim = 1 << 15
	cfg := dataset.DefaultURLConfig()
	cfg.Days, cfg.ChunksPerDay, cfg.RowsPerChunk, cfg.Vocab = 2, 1, 80, 5000
	records := dataset.NewURL(cfg).Chunk(0)
	ins, err := dataset.NewURLPipeline(hashDim).ProcessOnline(records)
	if err != nil {
		b.Fatal(err)
	}
	store := data.NewStore(data.NewMemoryBackend(), data.WithRawCapacity(1024)) // a 30 MB heap: the collector is not what is timed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := store.AppendRaw(records)
		if err != nil {
			b.Fatal(err)
		}
		if err := store.PutFeatures(id, ins); err != nil {
			b.Fatal(err)
		}
		if _, ok, err := store.Features(id); err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}

// BenchmarkDriftDetectorObserve measures the per-prediction overhead of
// running a drift detector inside the serving loop.
func BenchmarkDriftDetectorObserve(b *testing.B) {
	for _, det := range []cdml.DriftDetector{cdml.NewDDM(), cdml.NewPageHinkley()} {
		b.Run(det.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				det.Observe(float64(i % 2))
			}
		})
	}
}

// BenchmarkExtVeloxBaseline runs the Velox-style threshold-retraining
// comparison against continuous deployment.
func BenchmarkExtVeloxBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.ExtVelox()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			b.ReportMetric(row.FinalError, row.Strategy+"-error")
			b.ReportMetric(float64(row.Cost.Work), row.Strategy+"-cost-rows")
		}
	}
}

// ---------------------------------------------------------------------------
// Serving-route micro-benchmarks

// benchRecordParser parses "label,x0,x1" for the serving-route benches.
type benchRecordParser struct{}

func (benchRecordParser) Name() string { return "bench-record-parser" }

func (benchRecordParser) Parse(records [][]byte) (*data.Frame, error) {
	var ys, x0s, x1s []float64
	for _, rec := range records {
		parts := strings.Split(string(rec), ",")
		if len(parts) != 3 {
			continue
		}
		y, e1 := strconv.ParseFloat(parts[0], 64)
		x0, e2 := strconv.ParseFloat(parts[1], 64)
		x1, e3 := strconv.ParseFloat(parts[2], 64)
		if e1 != nil || e2 != nil || e3 != nil {
			continue
		}
		ys = append(ys, y)
		x0s = append(x0s, x0)
		x1s = append(x1s, x1)
	}
	f := data.NewFrame(len(ys))
	f.SetFloat("label", ys)
	f.SetFloat("x0", x0s)
	f.SetFloat("x1", x1s)
	return f, nil
}

// newServeBenchServer builds an HTTP server over a single small deployment,
// the shape all the predict-route benches share.
func newServeBenchServer(b *testing.B, opts ...serve.Option) *serve.Server {
	b.Helper()
	cfg := core.Config{
		Mode: core.ModeOnline,
		NewPipeline: func() *pipeline.Pipeline {
			return pipeline.New(benchRecordParser{},
				pipeline.NewStandardScaler([]string{"x0", "x1"}),
				pipeline.NewAssembler([]string{"x0", "x1"}, nil, "features"),
			)
		},
		NewModel:     func() model.Model { return model.NewSVM(2, 1e-4) },
		NewOptimizer: func() opt.Optimizer { return opt.NewAdam(0.05) },
		Store:        data.NewStore(data.NewMemoryBackend()),
		Metric:       &eval.Misclassification{},
		Predict:      core.ClassifyPredictor,
	}
	dep, err := core.NewDeployer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(dep.Shutdown)
	return serve.New(dep, append([]serve.Option{serve.WithSlog(nil)}, opts...)...)
}

// BenchmarkServePredictRouted drives the predict route end to end through
// Server.ServeHTTP (mux routing, middleware, handler, JSON encode) without
// a network socket. Predict is routed by the mux like every other route;
// its {name} wildcard match costs one allocation (16 B) per request.
func BenchmarkServePredictRouted(b *testing.B) {
	s := newServeBenchServer(b)
	body := []byte("0,0.5,0.5\n")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/deployments/default/predict", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkServePredictTaxiBatch256 drives the real predict handler on a
// recorder with a Taxi deployment and a 256-record body: body read, record
// split, parse, five transforms, scoring and the appended JSON answer.
func BenchmarkServePredictTaxiBatch256(b *testing.B) {
	gen := taxiBenchStream(256)
	dep, err := core.NewDeployer(core.Config{
		Mode:         core.ModeOnline,
		NewPipeline:  dataset.NewTaxiPipeline,
		NewModel:     func() model.Model { return dataset.NewTaxiModel(1e-4) },
		NewOptimizer: func() opt.Optimizer { return opt.NewRMSProp(0.1) },
		Store:        data.NewStore(data.NewMemoryBackend()),
		Metric:       &eval.RMSE{},
		Predict:      core.RegressionPredictor,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(dep.Shutdown)
	for i := 0; i < 20; i++ {
		if err := dep.Ingest(gen.Chunk(i)); err != nil {
			b.Fatal(err)
		}
	}
	s := serve.New(dep, serve.WithSlog(nil))
	body := bytes.Join(gen.Chunk(20), []byte("\n"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/deployments/default/predict", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkReplicaPredict measures the predict route on a replica-mode
// server whose poller idles on 304s against a live primary. The replica
// read path is the same lock-free snapshot load as the primary's, so
// allocs/op must match BenchmarkServePredictRouted exactly — replication
// adds zero allocations to serving.
func BenchmarkReplicaPredict(b *testing.B) {
	primary := newServeBenchServer(b)
	pts := httptest.NewServer(primary)
	b.Cleanup(pts.Close)
	rep := newServeBenchServer(b, serve.WithReplicaOf(pts.URL, 50*time.Millisecond))
	b.Cleanup(rep.Close)
	// Wait for the first snapshot sync so the bench measures the synced
	// replica, not a cold one.
	deadline := time.Now().Add(5 * time.Second)
	for {
		req := httptest.NewRequest(http.MethodGet, "/v1/deployments/default/status", nil)
		rec := httptest.NewRecorder()
		rep.ServeHTTP(rec, req)
		if strings.Contains(rec.Body.String(), `"applies":1`) || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	body := []byte("0,0.5,0.5\n")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/deployments/default/predict", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		rep.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

// benchIngestTick measures one whole live tick — Deployer.Ingest of an
// 80-row chunk: prequential scoring, online statistics and transform,
// store, one gradient step, snapshot publish — on a deployment warmed with
// benchWarmChunks chunks and no checkpoint policy (the shape of the system benchmark's
// in-process core.tick_us). B/op is the number that matters: everything a
// tick allocates beyond its chunk's own columns is garbage the collector
// pays for beside the readers. The tick's stages are reported beside it, in
// µs per tick (tickStages).
func benchIngestTick(b *testing.B, cfg core.Config, chunk func(i int) [][]byte) {
	const fresh = 64
	dep := warmDeployer(b, cfg, chunk)
	chunks := make([][][]byte, fresh)
	for i := range chunks {
		chunks[i] = chunk(benchWarmChunks + i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dep.Ingest(chunks[i%fresh]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportTickStages(b, dep.Tracer().Last(b.N))
}

// tickStages are the stages of an ingest tick that Deployer.timed clocks, in
// tick order.
var tickStages = []string{"parse", "serve", "preprocess", "online-update", "materialize", "publish"}

// reportTickStages reports each of tickStages as "<stage>-us/op": its mean
// over the tick span trees given (the tracer keeps the newest 64, so a
// long run reports its last 64 ticks). Reading the trees after the loop
// leaves the measured ticks and their allocations untouched.
func reportTickStages(b *testing.B, spans []*obs.Span) {
	sums := make(map[string]time.Duration, len(tickStages))
	ticks := 0
	for _, sp := range spans {
		if sp.Name != "tick" {
			continue
		}
		ticks++
		for _, c := range sp.Children {
			sums[c.Name] += c.Duration()
		}
	}
	if ticks == 0 {
		return
	}
	for _, stage := range tickStages {
		b.ReportMetric(float64(sums[stage].Nanoseconds())/1e3/float64(ticks), stage+"-us/op")
	}
}

// benchWarmChunks is how many chunks a tick or snapshot benchmark trains its
// deployment on before it measures.
const benchWarmChunks = 200

// benchDeployer builds cfg as a continuous deployment with no checkpoint
// policy and no proactive training in reach.
func benchDeployer(b *testing.B, cfg core.Config) *core.Deployer {
	cfg.Mode = core.ModeContinuous
	cfg.Store = data.NewStore(data.NewMemoryBackend())
	cfg.Sampler = sample.NewTime(1)
	cfg.SampleChunks = 8
	cfg.ProactiveEvery = 1 << 30
	dep, err := core.NewDeployer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(dep.Shutdown)
	return dep
}

// warmDeployer is benchDeployer after a warm-up of benchWarmChunks chunks.
func warmDeployer(b *testing.B, cfg core.Config, chunk func(i int) [][]byte) *core.Deployer {
	dep := benchDeployer(b, cfg)
	if _, err := dep.Warm(benchWarmChunks, chunk); err != nil {
		b.Fatal(err)
	}
	return dep
}

// urlBenchDeployment is the URL pipeline at cdml-serve's hashing dimension
// (2^15 weights, Adam) and its 80-row chunk stream.
func urlBenchDeployment() (core.Config, func(i int) [][]byte) {
	const hashDim = 1 << 15
	cfg := dataset.DefaultURLConfig()
	cfg.Days, cfg.ChunksPerDay, cfg.RowsPerChunk, cfg.Vocab = 300, 1, 80, 5000
	return core.Config{
		NewPipeline:  func() *pipeline.Pipeline { return dataset.NewURLPipeline(hashDim) },
		NewModel:     func() model.Model { return dataset.NewURLModel(hashDim, 1e-3) },
		NewOptimizer: func() opt.Optimizer { return opt.NewAdam(0.05) },
		Metric:       &eval.Misclassification{},
		Predict:      core.ClassifyPredictor,
	}, dataset.NewURL(cfg).Chunk
}

// BenchmarkIngestTickURL is the live tick of the URL pipeline at
// cdml-serve's hashing dimension (2^15 weights, Adam): the workload whose
// tick used to allocate several model-sized vectors.
func BenchmarkIngestTickURL(b *testing.B) {
	cfg, chunk := urlBenchDeployment()
	benchIngestTick(b, cfg, chunk)
}

// BenchmarkSnapshotFrameURL encodes the URL deployment's published snapshot
// — 32 768 weights and two Adam slots, ~85 % of them exact zeros, plus the
// pipeline statistics — into a frame: what every cadence checkpoint, GET
// .../snapshot and replica poll of a new version pays. It allocates the
// payload (the frame-B metric) and the optimizer section appended to it, each
// at exactly its size; the scan bitmaps are recycled.
func BenchmarkSnapshotFrameURL(b *testing.B) {
	cfg, chunk := urlBenchDeployment()
	snap := warmDeployer(b, cfg, chunk).Current()
	var f snapstream.Frame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if f, err = snap.Frame(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(f.Payload)), "frame-B")
}

// BenchmarkSnapshotApplyURL decodes, validates and swaps that frame into a
// second deployment: a replica's apply, a restore, a recovery.
func BenchmarkSnapshotApplyURL(b *testing.B) {
	cfg, chunk := urlBenchDeployment()
	f, err := warmDeployer(b, cfg, chunk).Current().Frame()
	if err != nil {
		b.Fatal(err)
	}
	sink := benchDeployer(b, cfg).SnapshotSink()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sink.Apply(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointURL is one cadence checkpoint of the URL deployment:
// encode takes the published snapshot and frames it; write is the whole
// checkpoint file into a temp dir, fsyncs included.
func BenchmarkCheckpointURL(b *testing.B) {
	cfg, chunk := urlBenchDeployment()
	dep := warmDeployer(b, cfg, chunk)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dep.Current().Frame(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("write", func(b *testing.B) {
		dir := b.TempDir()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.WriteCheckpointFile(dir, dep.Current()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// taxiBenchDeployment is the Taxi pipeline (12 weights, RMSProp) and its
// 80-row chunk stream.
func taxiBenchDeployment() (core.Config, func(i int) [][]byte) {
	cfg := dataset.DefaultTaxiConfig()
	cfg.Chunks, cfg.RowsPerChunk = 300, 80
	return core.Config{
		NewPipeline:  dataset.NewTaxiPipeline,
		NewModel:     func() model.Model { return dataset.NewTaxiModel(1e-4) },
		NewOptimizer: func() opt.Optimizer { return opt.NewRMSProp(0.1) },
		Metric:       &eval.RMSE{},
		Predict:      core.RegressionPredictor,
	}, dataset.NewTaxi(cfg).Chunk
}

// BenchmarkIngestTickTaxi is the same tick on the Taxi pipeline, where
// nothing scales with the model.
func BenchmarkIngestTickTaxi(b *testing.B) {
	cfg, chunk := taxiBenchDeployment()
	benchIngestTick(b, cfg, chunk)
}

// benchWarmup measures a cold boot's warm-up (DESIGN.md §5p): registry.
// CreateWarm of benchWarmChunks generated chunks on a NumCPU engine into an
// empty checkpoint directory, end-of-warm-up checkpoint included — what
// cdml-serve's setup time is made of. The publishes metric counts snapshots
// published by the warm-up itself (the deployer's initial one left out); a
// warm-up is one batch, so it must read 1. generate-wait-ms and train-ms are
// the boot's own split of it (registry.Boot): the training goroutine waiting
// for the look-ahead, and the ticks.
func benchWarmup(b *testing.B, build func() (core.Config, func(i int) [][]byte)) {
	workers := engine.New(0)
	publishes := 0.0
	var wait, train time.Duration
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg, chunk := build()
		cfg.Mode = core.ModeContinuous
		cfg.Store = data.NewStore(data.NewMemoryBackend())
		cfg.Sampler, cfg.SampleChunks, cfg.ProactiveEvery = sample.NewTime(1), 8, 16
		reg := registry.New(registry.Options{Engine: workers, CheckpointRoot: b.TempDir()})
		b.StartTimer()
		d, boot, err := reg.CreateWarm("bench", cfg, registry.Quotas{}, benchWarmChunks, chunk)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		wait, train = wait+boot.GenerateWait, train+boot.Train
		if v := d.Serving().Published().Version(); v != benchWarmChunks+1 {
			b.Fatalf("warmed up to version %d, want %d", v, benchWarmChunks+1)
		}
		// gen 1: the first deployer a registry builds.
		publishes = float64(d.Serving().Metrics().Counter("cdml_snapshot_publishes_total", "",
			obs.L("deployment", "bench"), obs.L("gen", "1")).Value() - 1)
		reg.Close()
		b.StartTimer()
	}
	b.ReportMetric(publishes, "publishes")
	b.ReportMetric(float64(wait.Microseconds())/1e3/float64(b.N), "generate-wait-ms")
	b.ReportMetric(float64(train.Microseconds())/1e3/float64(b.N), "train-ms")
}

func BenchmarkWarmupURL(b *testing.B)  { benchWarmup(b, urlBenchDeployment) }
func BenchmarkWarmupTaxi(b *testing.B) { benchWarmup(b, taxiBenchDeployment) }

// BenchmarkGenerateURL and BenchmarkGenerateTaxi are one chunk of cdml-serve's
// warm-up stream at its defaults (-warmup 1000, -rows 80): what a cold boot's
// look-ahead produces beside each tick (DESIGN.md §5p).
func BenchmarkGenerateURL(b *testing.B) {
	cfg := dataset.DefaultURLConfig()
	cfg.Days, cfg.RowsPerChunk, cfg.Vocab, cfg.HashDim = 1000/cfg.ChunksPerDay+1, 80, 5000, 1<<15
	benchGenerate(b, dataset.NewURL(cfg))
}

func BenchmarkGenerateTaxi(b *testing.B) {
	cfg := dataset.DefaultTaxiConfig()
	cfg.Chunks, cfg.RowsPerChunk = 1000, 80
	benchGenerate(b, dataset.NewTaxi(cfg))
}

// benchGenerate generates the stream's chunks in turn.
func benchGenerate(b *testing.B, s interface {
	Chunk(i int) [][]byte
	NumChunks() int
}) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Chunk(i % s.NumChunks())
	}
}

// walBenchChunk builds one ingest-sized chunk (30 records of ~40 bytes —
// the shape the async ingest handler appends before every 202 ack).
func walBenchChunk() [][]byte {
	records := make([][]byte, 30)
	for i := range records {
		records[i] = []byte(fmt.Sprintf("%d,0.123456,0.654321,0.111111,0.999999", i%2))
	}
	return records
}

// BenchmarkIngestAppend measures the durable 202-ack tax of the
// write-ahead ingest log: one fsynced chunk append per iteration, exactly
// what handleIngest pays between accepting a chunk and answering 202.
// ns/op here is fsync-dominated and varies with the filesystem; allocs/op
// is the gated number — appends must stay off the allocator's hot path.
func BenchmarkIngestAppend(b *testing.B) {
	l, err := wal.Open(wal.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	records := walBenchChunk()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(records, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestAppendNoSync isolates the encode+write cost of an append
// from the fsync: the gap to BenchmarkIngestAppend is pure disk flush.
func BenchmarkIngestAppendNoSync(b *testing.B) {
	l, err := wal.Open(wal.Options{Dir: b.TempDir(), NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	records := walBenchChunk()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(records, 1); err != nil {
			b.Fatal(err)
		}
	}
}

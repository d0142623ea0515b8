// Command cdml runs one deployment scenario from the command line: pick a
// workload, a deployment mode, a sampling strategy, and a materialization
// budget, and it prints the prequential error, the cost breakdown, and the
// materialization accounting.
//
//	cdml -workload url  -mode continuous -sampler time   -chunks 200
//	cdml -workload taxi -mode periodical -retrain-every 60
//	cdml -workload url  -mode continuous -mat-rate 0.2 -store disk
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"cdml"
	"cdml/datasets"
	"cdml/internal/experiment"
)

func main() {
	workload := flag.String("workload", "url", "workload: url|taxi|ratings")
	mode := flag.String("mode", "continuous", "deployment mode: online|periodical|continuous")
	samplerName := flag.String("sampler", "time", "sampling strategy: uniform|window|time")
	chunks := flag.Int("chunks", 200, "stream length in chunks")
	rows := flag.Int("rows", 80, "records per chunk")
	proactiveEvery := flag.Int("proactive-every", 5, "chunks between proactive trainings")
	retrainEvery := flag.Int("retrain-every", 50, "chunks between periodical retrainings")
	sampleChunks := flag.Int("sample-chunks", 8, "chunks per proactive sample")
	matRate := flag.Float64("mat-rate", 1.0, "materialization rate m/n in [0,1]")
	storeKind := flag.String("store", "memory", "chunk store backend: memory|disk")
	noOpt := flag.Bool("no-opt", false, "disable online statistics + dynamic materialization")
	driftName := flag.String("drift-detector", "", "drift detector: ddm|page-hinkley (empty = off)")
	showMetrics := flag.Bool("metrics", false, "print the deployment's Prometheus metrics after the run")
	seed := flag.Int64("seed", 1, "run seed")
	flag.Parse()

	// stream, the workload's share of the config (pipeline, model,
	// optimizer, metric, predictor) and its initial-training chunk count.
	var (
		stream  cdml.Stream
		cfg     cdml.Config
		initial int
	)
	switch *workload {
	case "url":
		dcfg := datasets.DefaultURLConfig()
		dcfg.ChunksPerDay = 5
		dcfg.Days = (*chunks + dcfg.ChunksPerDay - 1) / dcfg.ChunksPerDay
		dcfg.RowsPerChunk = *rows
		dcfg.Vocab = 5000
		dcfg.HashDim = 1 << 15
		w := experiment.NewURLWorkload(dcfg)
		stream, cfg, initial = w.Stream, w.Deployment(), w.InitialChunks
	case "taxi":
		dcfg := datasets.DefaultTaxiConfig()
		dcfg.Chunks = *chunks
		dcfg.HoursPerChunk = max(1, 13128 / *chunks)
		dcfg.RowsPerChunk = *rows
		w := experiment.NewTaxiWorkload(dcfg)
		stream, cfg, initial = w.Stream, w.Deployment(), w.InitialChunks
	case "ratings":
		dcfg := datasets.DefaultRatingsConfig()
		dcfg.Users, dcfg.Items = 100, 200 // keep learnable at short stream lengths
		dcfg.Chunks = *chunks
		dcfg.RowsPerChunk = *rows
		stream, initial = datasets.NewRatings(dcfg), max(4, *chunks/15)
		cfg = cdml.Config{
			NewPipeline:  func() *cdml.Pipeline { return datasets.NewRatingsPipeline(dcfg.Users, dcfg.Items) },
			NewModel:     func() cdml.Model { return datasets.NewRatingsModel(dcfg, 1e-3) },
			NewOptimizer: func() cdml.Optimizer { return cdml.NewAdam(0.05) },
			Metric:       &cdml.RMSE{},
			Predict:      cdml.RegressionPredictor,
		}
	default:
		log.Fatalf("cdml: unknown workload %q", *workload)
	}

	var m cdml.Mode
	switch *mode {
	case "online":
		m = cdml.ModeOnline
	case "periodical":
		m = cdml.ModePeriodical
	case "continuous":
		m = cdml.ModeContinuous
	default:
		log.Fatalf("cdml: unknown mode %q", *mode)
	}

	var backend cdml.Backend
	switch *storeKind {
	case "memory":
		backend = cdml.NewMemoryBackend()
	case "disk":
		dir, err := os.MkdirTemp("", "cdml-store-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		fmt.Printf("disk store: %s\n", dir)
		backend, err = cdml.NewDiskBackend(dir)
		if err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("cdml: unknown store %q", *storeKind)
	}
	capacity := int(*matRate * float64(*chunks))
	store := cdml.NewStore(backend, cdml.WithCapacity(capacity))

	var detector cdml.DriftDetector
	switch *driftName {
	case "":
	case "ddm":
		detector = cdml.NewDDM()
	case "page-hinkley":
		detector = cdml.NewPageHinkley()
	default:
		log.Fatalf("cdml: unknown drift detector %q", *driftName)
	}

	sampler, err := cdml.NewSampler(*samplerName, max(1, *chunks/2), *seed)
	if err != nil {
		log.Fatal(err)
	}

	cfg.Mode = m
	cfg.Store = store
	cfg.Sampler = sampler
	cfg.SampleChunks = *sampleChunks
	cfg.ProactiveEvery = *proactiveEvery
	cfg.RetrainEvery = *retrainEvery
	cfg.WarmStart = true
	cfg.NoOptimization = *noOpt
	cfg.DriftDetector = detector
	cfg.InitialChunks = initial
	cfg.Seed = *seed
	d, err := cdml.NewDeployer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	res, err := d.Run(stream)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload=%s mode=%s sampler=%s chunks=%d mat-rate=%.2f\n",
		*workload, *mode, *samplerName, *chunks, *matRate)
	fmt.Printf("evaluated:            %d records\n", res.Evaluated)
	fmt.Printf("final error:          %.4f\n", res.FinalError)
	fmt.Printf("average error:        %.4f\n", res.AvgError)
	fmt.Printf("deployment cost:      %v (%s)\n", res.Cost.Total().Round(time.Millisecond), res.Cost.Breakdown())
	fmt.Printf("proactive trainings:  %d (avg %v)\n", res.ProactiveRuns, res.AvgProactive().Round(time.Microsecond))
	fmt.Printf("retrainings:          %d\n", res.Retrains)
	fmt.Printf("materialization:      μ=%.2f hits=%d misses=%d evictions=%d\n",
		res.MatStats.Mu(), res.MatStats.Hits, res.MatStats.Misses, res.MatStats.Evictions)
	fmt.Printf("wall clock:           %v\n", time.Since(start).Round(time.Millisecond))
	if *showMetrics {
		fmt.Println("--- metrics (Prometheus text) ---")
		if err := d.Metrics().WriteText(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}

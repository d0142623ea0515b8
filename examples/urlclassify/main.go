// Command urlclassify deploys the paper's URL scenario: a malicious-URL
// classifier (token hasher → imputer → standard scaler → a second hasher
// folding the scaled numerics into the hashed tokens → SVM) over a sparse,
// high-dimensional, gradually drifting stream. It runs the same
// stream under the online, periodical, and continuous deployment
// approaches and prints the quality/cost comparison of the paper's
// Experiment 1 (Figure 4a/4b) at laptop scale.
//
// Run with:
//
//	go run ./examples/urlclassify [-days 40] [-chunks-per-day 5] [-rows 80]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"cdml"
	"cdml/datasets"
)

func main() {
	days := flag.Int("days", 40, "deployment days (day 0 trains the initial model)")
	chunksPerDay := flag.Int("chunks-per-day", 5, "chunks per day")
	rows := flag.Int("rows", 80, "records per chunk")
	flag.Parse()

	cfg := datasets.DefaultURLConfig()
	cfg.Days = *days
	cfg.ChunksPerDay = *chunksPerDay
	cfg.RowsPerChunk = *rows
	cfg.Vocab = 5000
	cfg.HashDim = 1 << 15
	stream := datasets.NewURL(cfg)

	fmt.Printf("URL stream: %d chunks (%d days), hash dim %d\n",
		stream.NumChunks(), cfg.Days, cfg.HashDim)
	fmt.Printf("%-12s %14s %14s %12s %9s\n", "approach", "final-error", "avg-error", "cost", "trainings")

	type row struct {
		mode cdml.Mode
		cost time.Duration
	}
	var costs []row
	for _, mode := range []cdml.Mode{cdml.ModeOnline, cdml.ModePeriodical, cdml.ModeContinuous} {
		deployCfg := cdml.Config{
			Mode:           mode,
			NewPipeline:    func() *cdml.Pipeline { return datasets.NewURLPipeline(cfg.HashDim) },
			NewModel:       func() cdml.Model { return datasets.NewURLModel(cfg.HashDim, 1e-3) },
			NewOptimizer:   func() cdml.Optimizer { return cdml.NewAdam(0.05) },
			Store:          cdml.NewStore(cdml.NewMemoryBackend()),
			Sampler:        cdml.NewTimeSampler(1),
			SampleChunks:   8,
			ProactiveEvery: 5,                     // every "5 minutes" of stream time
			RetrainEvery:   10 * cfg.ChunksPerDay, // every 10 days, as in the paper
			WarmStart:      true,
			InitialChunks:  cfg.ChunksPerDay, // day 0
			Metric:         &cdml.Misclassification{},
			Predict:        cdml.ClassifyPredictor,
		}
		d, err := cdml.NewDeployer(deployCfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := d.Run(stream)
		if err != nil {
			log.Fatal(err)
		}
		trainings := res.ProactiveRuns + res.Retrains
		fmt.Printf("%-12s %14.4f %14.4f %12v %9d\n",
			mode, res.FinalError, res.AvgError, res.Cost.Total().Round(time.Millisecond), trainings)
		costs = append(costs, row{mode, res.Cost.Total()})
	}
	if len(costs) == 3 && costs[2].cost > 0 {
		fmt.Printf("\nperiodical/continuous cost ratio: %.1fx (paper reports 15x at full scale)\n",
			float64(costs[1].cost)/float64(costs[2].cost))
	}
}

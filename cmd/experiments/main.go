// Command experiments regenerates the paper's tables and figures over the
// synthetic workloads.
//
//	experiments -exp all   -scale small     # everything, quick
//	experiments -exp fig4  -scale medium    # Experiment 1 at default size
//	experiments -exp table4                 # pure simulation, paper-sized
//	experiments -exp ext                    # beyond-the-paper extensions
//	experiments -exp all -scale small -json > EXPERIMENTS.json
//
// Experiments: fig4, table3, fig5, fig6, table4, fig7, fig8, ext, all.
// Workloads: url, taxi, both (default). -json prints every number but the
// wall-clock ones; the committed EXPERIMENTS.json is its small-scale run,
// and a test in internal/experiment fails when it is stale.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"cdml/internal/experiment"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig4|table3|fig5|fig6|table4|fig7|fig8|ext|all")
	scaleFlag := flag.String("scale", "small", "workload scale: small|medium|full")
	workloadFlag := flag.String("workload", "both", "workload: url|taxi|both")
	jsonOut := flag.Bool("json", false, "emit results as JSON instead of rendered text")
	flag.Parse()

	scale, err := experiment.ParseScale(*scaleFlag)
	if err != nil {
		log.Fatal(err)
	}
	var workloads []*experiment.Workload
	switch *workloadFlag {
	case "url":
		workloads = []*experiment.Workload{experiment.URLWorkload(scale)}
	case "taxi":
		workloads = []*experiment.Workload{experiment.TaxiWorkload(scale)}
	case "both":
		workloads = []*experiment.Workload{experiment.URLWorkload(scale), experiment.TaxiWorkload(scale)}
	default:
		log.Fatalf("unknown workload %q", *workloadFlag)
	}

	start := time.Now()
	r, err := experiment.Run(*exp, workloads)
	if err != nil {
		log.Fatal(err)
	}
	if *jsonOut {
		b, err := r.JSON()
		if err != nil {
			log.Fatal(err)
		}
		if _, err := os.Stdout.Write(b); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Print(r.Render())
	fmt.Printf("completed in %v (scale %s)\n", time.Since(start).Round(time.Millisecond), scale)
}

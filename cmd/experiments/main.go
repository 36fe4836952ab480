// Command experiments regenerates the tables and figures of the paper's
// evaluation (Section 5). Every experiment that samples runs through the
// same core pipeline the CLI and the server use; a failing experiment
// prints its error and exits 1. Run with no flags for the full suite, or
// select one experiment; -sample-workers fans the sampling of the accuracy
// figures out across goroutines, for both strategies:
//
//	experiments -exp fig8 -sample-workers 8
//	experiments -list
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (see -list) or 'all'")
	list := flag.Bool("list", false, "list experiment ids and exit")
	sampleWorkers := flag.Int("sample-workers", 0, "sampling goroutines of the accuracy figures, naive and AGS (0/1 = sequential)")
	flag.Parse()
	if err := core.ValidateSampleWorkers(*sampleWorkers); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	experiments.SampleWorkers = *sampleWorkers

	if *list {
		ids := make([]string, 0, len(experiments.Registry))
		for id := range experiments.Registry {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Println(id)
		}
		return
	}
	run := experiments.All
	if *exp != "all" {
		var ok bool
		if run, ok = experiments.Registry[*exp]; !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown id %q (use -list)\n", *exp)
			os.Exit(2)
		}
	}
	if err := run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) on synthetic stand-ins for the nine public
// datasets of Table 1. Each experiment prints the same rows/series the
// paper reports; EXPERIMENTS.md records paper-vs-measured shape
// comparisons.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Dataset is a named synthetic stand-in for one of the paper's graphs.
type Dataset struct {
	Name string
	// Regime documents which Table 1 dataset(s) this workload stands for
	// and why.
	Regime string
	// MaxK is the largest k exercised on this dataset (mirrors Table 1's
	// "k" column, scaled to laptop budgets).
	MaxK int
	Gen  func() *graph.Graph
}

// Catalog returns the dataset catalog — our Table 1.
func Catalog() []Dataset {
	return []Dataset{
		{
			Name:   "facebook-s",
			Regime: "Facebook: small social graph, heavy tail",
			MaxK:   7,
			Gen:    func() *graph.Graph { return gen.BarabasiAlbert(8000, 6, 101) },
		},
		{
			Name:   "dblp-s",
			Regime: "Dblp/Amazon: sparse, flat degree and graphlet distributions",
			MaxK:   7,
			Gen:    func() *graph.Graph { return gen.ErdosRenyi(15000, 45000, 103) },
		},
		{
			Name:   "amazon-s",
			Regime: "Amazon: larger sparse flat graph",
			MaxK:   6,
			Gen:    func() *graph.Graph { return gen.ErdosRenyi(20000, 50000, 105) },
		},
		{
			Name:   "orkut-s",
			Regime: "Orkut: dense, strong hubs",
			MaxK:   6,
			Gen:    func() *graph.Graph { return gen.BarabasiAlbert(4000, 25, 107) },
		},
		{
			Name:   "berkstan-s",
			Regime: "BerkStan: few giant-degree nodes (buffering showcase)",
			MaxK:   6,
			Gen:    func() *graph.Graph { return gen.StarHeavy(3, 15000, 8000, 109) },
		},
		{
			Name:   "yelp-s",
			Regime: "Yelp: star-dominated, extreme graphlet skew (AGS showcase)",
			MaxK:   6,
			Gen:    func() *graph.Graph { return gen.StarHeavy(1, 20000, 400, 111) },
		},
		{
			Name:   "livejournal-s",
			Regime: "LiveJournal: mid-size heavy tail",
			MaxK:   6,
			Gen:    func() *graph.Graph { return gen.BarabasiAlbert(30000, 5, 113) },
		},
		{
			Name:   "friendster-s",
			Regime: "Twitter/Friendster: the large instance (biased coloring target)",
			MaxK:   5,
			Gen:    func() *graph.Graph { return gen.BarabasiAlbert(60000, 7, 115) },
		},
	}
}

// ByName returns the catalog dataset with the given name.
func ByName(name string) (Dataset, bool) {
	for _, d := range Catalog() {
		if d.Name == name {
			return d, true
		}
	}
	return Dataset{}, false
}

// Small accuracy datasets where exact ESU ground truth is affordable.
func accuracySets() []Dataset {
	return []Dataset{
		{
			Name:   "er-xs",
			Regime: "flat regime with exact ground truth",
			MaxK:   5,
			Gen:    func() *graph.Graph { return gen.ErdosRenyi(1500, 4000, 201) },
		},
		{
			Name:   "ba-xs",
			Regime: "heavy-tail regime with exact ground truth",
			MaxK:   5,
			Gen:    func() *graph.Graph { return gen.BarabasiAlbert(1200, 3, 203) },
		},
		{
			Name:   "star-xs",
			Regime: "star-dominated (Yelp-like) regime with exact ground truth",
			MaxK:   5,
			Gen:    func() *graph.Graph { return gen.StarHeavy(1, 80, 60, 205) },
		},
	}
}

// DatasetsTable prints the catalog — the Table 1 analogue.
func DatasetsTable(w io.Writer) error {
	fmt.Fprintf(w, "== datasets (Table 1 stand-ins) ==\n")
	fmt.Fprintf(w, "%-15s %9s %10s %8s %5s  %s\n", "graph", "nodes", "edges", "maxdeg", "k", "regime")
	for _, d := range Catalog() {
		g := d.Gen()
		fmt.Fprintf(w, "%-15s %9d %10d %8d %5d  %s\n",
			d.Name, g.NumNodes(), g.NumEdges(), g.MaxDegree(), d.MaxK, d.Regime)
	}
	return nil
}

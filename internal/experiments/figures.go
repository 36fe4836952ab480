package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/build"
	"repro/internal/ccbaseline"
	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/graphlet"
	"repro/internal/treelet"
)

// Fig2CheckMerge reproduces Figure 2: time spent in check-and-merge
// operations, CC's pointer treelets vs motivo's succinct treelets
// (single-threaded). The paper reports close to a 2x average speedup.
func Fig2CheckMerge(w io.Writer) error {
	fmt.Fprintf(w, "== Figure 2: check-and-merge cost, pointer (CC) vs succinct (motivo), single-threaded ==\n")
	fmt.Fprintf(w, "%-15s %3s %14s %12s %12s %12s %9s\n",
		"graph", "k", "ops", "CC total", "motivo total", "ns/op CC", "ns/op mo")
	runs := []struct {
		ds string
		k  int
	}{
		{"facebook-s", 4}, {"facebook-s", 5},
		{"dblp-s", 4}, {"dblp-s", 5},
		{"orkut-s", 4},
	}
	for _, r := range runs {
		d, _ := ByName(r.ds)
		g := d.Gen()
		col := coloring.Uniform(g.NumNodes(), r.k, 301)
		cat := treelet.NewCatalog(r.k)

		_, ccStats, err := ccbaseline.Build(g, col, r.k)
		if err != nil {
			return err
		}
		opts := build.DefaultOptions()
		opts.ZeroRooted = false // match CC's work exactly
		opts.Workers = 1
		_, moStats, err := build.Run(context.Background(), g, col, r.k, cat, opts)
		if err != nil {
			return err
		}
		ccNs := float64(ccStats.Duration.Nanoseconds()) / float64(ccStats.CheckMergeOps)
		moNs := float64(moStats.Duration.Nanoseconds()) / float64(moStats.CheckMergeOps)
		fmt.Fprintf(w, "%-15s %3d %14d %12v %12v %12.1f %9.1f   (%.1fx)\n",
			r.ds, r.k, moStats.CheckMergeOps,
			ccStats.Duration.Round(time.Millisecond), moStats.Duration.Round(time.Millisecond),
			ccNs, moNs, ccNs/moNs)
	}
	return nil
}

// Fig3BuildMemory reproduces Figure 3: build time and table footprint of
// the CC port vs motivo with succinct treelets + compact count table +
// greedy flushing (0-rooting disabled on both sides, as in the figure).
func Fig3BuildMemory(w io.Writer) error {
	fmt.Fprintf(w, "== Figure 3: build time and memory, original (CC) vs succinct+compact+flush ==\n")
	fmt.Fprintf(w, "%-15s %3s %12s %12s %8s %12s %12s %8s\n",
		"graph", "k", "CC time", "motivo time", "speedup", "CC bytes", "motivo bytes", "ratio")
	runs := []struct {
		ds string
		k  int
	}{
		{"facebook-s", 4}, {"facebook-s", 5},
		{"dblp-s", 4}, {"dblp-s", 5},
		{"orkut-s", 4},
	}
	for _, r := range runs {
		d, _ := ByName(r.ds)
		g := d.Gen()
		col := coloring.Uniform(g.NumNodes(), r.k, 307)
		cat := treelet.NewCatalog(r.k)
		_, ccStats, err := ccbaseline.Build(g, col, r.k)
		if err != nil {
			return err
		}
		opts := build.DefaultOptions()
		opts.ZeroRooted = false
		opts.Spill = true
		_, moStats, err := build.Run(context.Background(), g, col, r.k, cat, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-15s %3d %12v %12v %7.1fx %12d %12d %7.1fx\n",
			r.ds, r.k,
			ccStats.Duration.Round(time.Millisecond), moStats.Duration.Round(time.Millisecond),
			float64(ccStats.Duration)/float64(moStats.Duration),
			ccStats.BytesEstimate, moStats.TableBytes,
			float64(ccStats.BytesEstimate)/float64(moStats.TableBytes))
	}
	return nil
}

// Fig4ZeroRooting reproduces Figure 4: the build-time cut from 0-rooting
// (paper: 30–40% time, ~10% space).
func Fig4ZeroRooting(w io.Writer) error {
	fmt.Fprintf(w, "== Figure 4: impact of 0-rooting ==\n")
	fmt.Fprintf(w, "%-15s %3s %12s %12s %9s %10s\n", "graph", "k", "without", "with", "time cut", "space cut")
	runs := []struct {
		ds string
		k  int
	}{
		{"facebook-s", 5}, {"facebook-s", 6},
		{"dblp-s", 5}, {"amazon-s", 5},
		{"orkut-s", 4},
	}
	for _, r := range runs {
		d, _ := ByName(r.ds)
		g := d.Gen()
		col := coloring.Uniform(g.NumNodes(), r.k, 311)
		cat := treelet.NewCatalog(r.k)
		optsOff := build.DefaultOptions()
		optsOff.ZeroRooted = false
		_, off, err := build.Run(context.Background(), g, col, r.k, cat, optsOff)
		if err != nil {
			return err
		}
		_, on, err := build.Run(context.Background(), g, col, r.k, cat, build.DefaultOptions())
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-15s %3d %12v %12v %8.0f%% %9.0f%%\n",
			r.ds, r.k,
			off.Duration.Round(time.Millisecond), on.Duration.Round(time.Millisecond),
			100*(1-float64(on.Duration)/float64(off.Duration)),
			100*(1-float64(on.TableBytes)/float64(off.TableBytes)))
	}
	return nil
}

// Fig5NeighborBuffering reproduces Figure 5: sampling rates with and
// without neighbor buffering on hub-dominated graphs (paper: ~20–40x on
// Orkut/BerkStan).
func Fig5NeighborBuffering(w io.Writer) error {
	fmt.Fprintf(w, "== Figure 5: impact of neighbor buffering (samples/s) ==\n")
	fmt.Fprintf(w, "%-15s %3s %12s %12s %9s\n", "graph", "k", "original", "buffered", "speedup")
	runs := []struct {
		ds string
		k  int
	}{
		{"berkstan-s", 5},
		{"orkut-s", 5},
		{"yelp-s", 5},
		{"facebook-s", 5},
	}
	const S = 30000
	for _, r := range runs {
		d, _ := ByName(r.ds)
		g := d.Gen()
		off, err := sampleRate(g, r.k, S, 313, 1<<30)
		if err != nil {
			return err
		}
		on, err := sampleRate(g, r.k, S, 313, 1000)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-15s %3d %12.0f %12.0f %8.1fx\n", r.ds, r.k, off, on, on/off)
	}
	return nil
}

// sampleRate is the naive samples/s of one sequential served query at the
// given neighbor-buffering threshold: the first query on a freshly built
// engine, so the urn starts as cold as a new sampling session does.
func sampleRate(g *graph.Graph, k, samples int, seed int64, bufferThreshold int) (float64, error) {
	res, err := core.Count(g, core.Config{
		K: k, Colorings: 1, SamplesPerColoring: samples, Seed: seed, BufferThreshold: bufferThreshold,
	})
	if err != nil {
		return 0, err
	}
	return float64(res.Samples) / res.SampleTime.Seconds(), nil
}

// Fig6BiasedColoring reproduces Figure 6: the graphlet count error
// distribution under uniform vs biased coloring (k=5 and a second k), plus
// the table-size saving biased coloring buys.
func Fig6BiasedColoring(w io.Writer) error {
	fmt.Fprintf(w, "== Figure 6: error distribution, uniform vs biased coloring ==\n")
	for _, k := range []int{4, 5} {
		d := accuracySets()[0] // er-xs: exact ground truth available
		g := d.Gen()
		truth, err := exact.Count(g, k)
		if err != nil {
			return err
		}
		lambda := 0.6 / float64(k)
		for _, mode := range []struct {
			name   string
			lambda float64
		}{{"uniform", 0}, {fmt.Sprintf("biased λ=%.2f", lambda), lambda}} {
			res, err := core.Count(g, core.Config{
				K: k, Colorings: 4, SamplesPerColoring: 40000, BiasedLambda: mode.lambda,
				Seed: 331, SampleWorkers: SampleWorkers,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "k=%d %-16s table pairs %8d | err histogram: %s\n",
				k, mode.name, res.BuildStats[len(res.BuildStats)-1].Pairs, errHistogram(res.Counts, truth))
		}
	}
	return nil
}

// errHistogram renders the per-graphlet errors of est against truth.
func errHistogram(est, truth estimate.Counts) string {
	var errs []float64
	for _, e := range estimate.ErrH(est, truth) {
		errs = append(errs, e)
	}
	return histogram(errs)
}

// histogram renders errors in the Figure 6/8 style: buckets over [-1, +1].
func histogram(errs []float64) string {
	edges := []float64{-1, -0.75, -0.5, -0.25, -0.05, 0.05, 0.25, 0.5, 0.75, 1}
	counts := make([]int, len(edges)+1)
	for _, e := range errs {
		i := 0
		for i < len(edges) && e > edges[i] {
			i++
		}
		counts[i]++
	}
	s := ""
	for i, c := range counts {
		switch {
		case i == 0:
			s += fmt.Sprintf("[≤-1]:%d ", c)
		case i == len(edges):
			s += fmt.Sprintf("[>1]:%d", c)
		default:
			s += fmt.Sprintf("(%.2g,%.2g]:%d ", edges[i-1], edges[i], c)
		}
	}
	return s
}

// Fig7Scaling reproduces Figure 7: build time per million edges and table
// bits per node as k grows — motivo's predictability claim.
func Fig7Scaling(w io.Writer) error {
	fmt.Fprintf(w, "== Figure 7: build seconds per 1M edges and table bits per node, k=4..7 ==\n")
	fmt.Fprintf(w, "%-15s %3s %14s %14s\n", "graph", "k", "s per Medge", "bits per node")
	for _, name := range []string{"facebook-s", "dblp-s", "livejournal-s"} {
		d, _ := ByName(name)
		g := d.Gen()
		for k := 4; k <= min(7, d.MaxK); k++ {
			_, _, stats, err := core.Build(context.Background(), g, core.Config{K: k, Seed: 401})
			if err != nil {
				return err
			}
			perMedge := stats.Duration.Seconds() / (float64(g.NumEdges()) / 1e6)
			bitsPerNode := float64(stats.TableBytes) * 8 / float64(g.NumNodes())
			fmt.Fprintf(w, "%-15s %3d %14.2f %14.0f\n", name, k, perMedge, bitsPerNode)
		}
	}
	return nil
}

// SampleWorkers fans the sampling of the accuracy reproductions (Figures
// 6 and 8–10 and the §5.2 ℓ1 table) out across this many goroutines, for
// both strategies. 0 keeps the sequential reference behavior. The single
// injection point for cmd/experiments's -sample-workers flag, set once
// before any experiment runs (the Registry signature leaves no room to
// pass it per call).
var SampleWorkers int

// average is the estimate the Figure 8 and 9 and ℓ1 experiments read: a
// served one-shot run of strategy averaged over γ=4 colorings, with
// c̄=500 for AGS.
func average(g *graph.Graph, k int, strategy core.Strategy, budget int) (estimate.Counts, error) {
	res, err := core.Count(g, core.Config{
		K: k, Colorings: 4, SamplesPerColoring: budget, Strategy: strategy,
		CoverThreshold: 500, Seed: 500, SampleWorkers: SampleWorkers,
	})
	if err != nil {
		return nil, err
	}
	return res.Counts, nil
}

// Fig8ErrorDistributions reproduces Figure 8: the distribution of the
// per-graphlet count error for naive sampling (top) vs AGS (bottom).
func Fig8ErrorDistributions(w io.Writer) error {
	fmt.Fprintf(w, "== Figure 8: graphlet count error distribution, naive vs AGS ==\n")
	for _, dcase := range []struct {
		ds Dataset
		k  int
	}{
		{accuracySets()[0], 4},
		{accuracySets()[0], 5},
		{accuracySets()[1], 5},
		{accuracySets()[2], 5},
	} {
		g := dcase.ds.Gen()
		truth, err := exact.Count(g, dcase.k)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s k=%d (%d graphlets in truth)\n", dcase.ds.Name, dcase.k, len(truth))
		for _, arm := range []struct {
			label    string
			strategy core.Strategy
		}{{"naive:", core.Naive}, {"AGS:  ", core.AGS}} {
			est, err := average(g, dcase.k, arm.strategy, 60000)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %s %s\n", arm.label, errHistogram(est, truth))
		}
	}
	return nil
}

// Fig9AccurateGraphlets reproduces Figure 9: how many graphlets are
// estimated within ±50%, absolute and as a fraction of the ground-truth
// support, for naive sampling vs AGS.
func Fig9AccurateGraphlets(w io.Writer) error {
	fmt.Fprintf(w, "== Figure 9: graphlets within ±50%% of ground truth ==\n")
	fmt.Fprintf(w, "%-10s %3s %8s | %14s %14s\n", "graph", "k", "truth", "naive", "AGS")
	for _, dcase := range []struct {
		ds Dataset
		k  int
	}{
		{accuracySets()[0], 4},
		{accuracySets()[0], 5},
		{accuracySets()[1], 4},
		{accuracySets()[1], 5},
		{accuracySets()[2], 5},
	} {
		g := dcase.ds.Gen()
		truth, err := exact.Count(g, dcase.k)
		if err != nil {
			return err
		}
		nv, err := average(g, dcase.k, core.Naive, 60000)
		if err != nil {
			return err
		}
		av, err := average(g, dcase.k, core.AGS, 60000)
		if err != nil {
			return err
		}
		nw, total := estimate.AccurateWithin(nv, truth, 0.5)
		aw, _ := estimate.AccurateWithin(av, truth, 0.5)
		fmt.Fprintf(w, "%-10s %3d %8d | %6d (%4.0f%%) %6d (%4.0f%%)\n",
			dcase.ds.Name, dcase.k, total,
			nw, 100*float64(nw)/float64(total),
			aw, 100*float64(aw)/float64(total))
	}
	return nil
}

// Fig10RarestGraphlet reproduces Figure 10: the frequency of the rarest
// graphlet appearing in ≥10 samples, naive vs AGS, on the star-dominated
// graph (the paper's Yelp: naive only ever sees the star at frequency
// ~0.999996 while AGS reaches below 1e-21).
func Fig10RarestGraphlet(w io.Writer) error {
	fmt.Fprintf(w, "== Figure 10: frequency of the rarest graphlet seen in ≥10 samples ==\n")
	fmt.Fprintf(w, "%-10s %3s %14s %14s\n", "graph", "k", "naive", "AGS")
	d, _ := ByName("yelp-s")
	g := d.Gen()
	for _, k := range []int{5, 6} {
		cfg := core.Config{
			K: k, Colorings: 1, SamplesPerColoring: 60000, Strategy: core.AGS,
			CoverThreshold: 1000, Seed: 601, SampleWorkers: SampleWorkers,
		}
		// Reference frequencies: AGS's own estimates (the paper likewise
		// reads frequencies off its estimates for graphs without ground
		// truth).
		ref, err := core.Count(g, cfg)
		if err != nil {
			return err
		}
		// Each strategy's tallies come from a signatures run, whose result
		// carries them; one filtered node keeps its vectors trivial.
		cfg.Strategy = core.Naive
		naive, err := core.Signatures(g, cfg, []int32{0})
		if err != nil {
			return err
		}
		cfg.Strategy = core.AGS
		adaptive, err := core.Signatures(g, cfg, []int32{0})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s %3d %14s %14s   (AGS covered %d)\n", "yelp-s", k,
			rarest(naive.Tallies, ref.Counts), rarest(adaptive.Tallies, ref.Counts), adaptive.Covered)
	}
	return nil
}

// rarest renders one Figure 10 cell: the smallest reference frequency
// among graphlets tallied at least 10 times, or "-" when none was.
func rarest(tallies map[graphlet.Code]int64, ref estimate.Counts) string {
	if freq, ok := estimate.RarestFound(tallies, ref, 10); ok {
		return fmt.Sprintf("%.3g", freq)
	}
	return "-"
}

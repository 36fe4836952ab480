// Command motivo is the command-line interface to the library: generate
// synthetic graphs, inspect the build-up phase, count graphlets with naive
// or adaptive sampling, serve a persisted table over HTTP, and compute
// exact counts on small inputs.
//
// Usage:
//
//	motivo gen     -type ba -n 10000 -m 5 -seed 1 -o graph.txt
//	motivo convert -i graph.txt -o graph.mvg
//	motivo build   -i graph.mvg -k 5 -mem-budget 2147483648 -o graph.tbl
//	motivo count   -i graph.txt -k 5 -samples 100000 -strategy ags -cover-threshold 1000 -sample-workers 8
//	motivo count   -i graph.mvg -k 5 -table graph.tbl -samples 100000
//	motivo serve   -i graph.txt -table graph.tbl -addr :8080
//	motivo serve   -graph er=er.txt:er.tbl -graph ba=ba.txt:ba.tbl -mem-budget 268435456 -cache-size 1024 -max-inflight 64
//	motivo exact   -i graph.txt -k 4
//
// Graph inputs are opened by content, not extension: text edge lists
// stream through a two-pass reader that never buffers the edge list in
// RAM, and MvG1 binary CSR files (written by `convert`) are memory-mapped
// — O(ms) open with the adjacency served from the page cache
// (`-map-graph auto|off|require` pins the path). `build -mem-budget`
// bounds the build's transient memory: levels are computed in vertex-range
// shards streamed through spill files and externally merged, producing a
// bit-identical table.
//
// `build -o` persists the count table; `count -table` opens it and skips
// the build — build once, query many. Persisted MvT4 tables are
// memory-mapped by default (`-map auto|off|require` on count and serve;
// older MvT3 and MvT2 files still open through the heap loader). `serve`
// keeps a registry of named engines open and answers versioned JSON count
// queries over HTTP (`/v1/graphs/{name}/count`, `/v1/batch`, `/v1/graphs`,
// `/metrics`; see internal/serve for the API). `-graph` is repeatable; the
// first named graph is the default that the legacy `/count` alias serves.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	motivo "repro"
	"repro/internal/atomicfile"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/table"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	case "build":
		err = cmdBuild(os.Args[2:])
	case "count":
		err = cmdCount(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "exact":
		err = cmdExact(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "motivo: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "motivo: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: motivo <command> [flags]

commands:
  gen      generate a synthetic graph (-type ba|er|star|lollipop)
  convert  convert a graph to the mappable MvG1 binary format
  build    run only the build-up phase and report statistics
  count    estimate graphlet counts (naive or AGS sampling)
  serve    serve JSON count queries over HTTP from a persisted table
  exact    exact counts by exhaustive enumeration (small graphs)`)
}

// mapGraphFlag registers the shared -map-graph flag; loadGraph parses it.
func mapGraphFlag(fs *flag.FlagSet) *string {
	return fs.String("map-graph", "auto",
		"how the input graph is opened: auto (mmap MvG1, heap otherwise), off (heap), require (mmap or fail)")
}

// loadGraph opens a graph input by content: MvG1 binary files map (or
// heap-load under -map-graph off), text edge lists stream through the
// two-pass reader.
func loadGraph(path, mapMode string) (*motivo.Graph, error) {
	mode, err := graph.ParseOpenMode(mapMode)
	if err != nil {
		return nil, err
	}
	return motivo.OpenGraph(path, mode)
}

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ContinueOnError)
	in := fs.String("i", "", "input graph file, text edge list or MvG1 (required)")
	out := fs.String("o", "", "output MvG1 binary graph file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("convert: -i and -o are required")
	}
	// Heap-open the input: a conversion reads every byte once, so mapping
	// buys nothing, and off also lets MvG1 inputs round-trip (re-validate
	// and rewrite a file in place of a copy).
	g, err := loadGraph(*in, "off")
	if err != nil {
		return err
	}
	err = atomicfile.Write(*out, func(f io.Writer) error {
		w := bufio.NewWriterSize(f, 1<<20)
		if err := g.WriteBinary(w); err != nil {
			return err
		}
		return w.Flush()
	})
	if err != nil {
		return err
	}
	st, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "converted %s: %d nodes, %d edges, %.1f MiB — builds can now map it (`motivo build -i %s ...`)\n",
		*out, g.NumNodes(), g.NumEdges(), float64(st.Size())/(1<<20), *out)
	return nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	typ := fs.String("type", "ba", "generator: ba, er, star, lollipop")
	n := fs.Int("n", 10000, "number of nodes (er/ba) or leaves (star) or clique size (lollipop)")
	m := fs.Int("m", 5, "edges per node (ba), total edges (er), extra edges (star), tail length (lollipop)")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("o", "", "output edge-list file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var g *motivo.Graph
	switch *typ {
	case "ba":
		g = motivo.BarabasiAlbert(*n, *m, *seed)
	case "er":
		g = motivo.ErdosRenyi(*n, *m, *seed)
	case "star":
		g = motivo.StarHeavy(1, *n, *m, *seed)
	case "lollipop":
		g = motivo.Lollipop(*n, *m)
	default:
		return fmt.Errorf("unknown generator %q", *typ)
	}
	var err error
	if *out == "" {
		err = g.WriteEdgeList(os.Stdout)
	} else {
		err = atomicfile.Write(*out, g.WriteEdgeList)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "generated %s graph: %d nodes, %d edges\n", *typ, g.NumNodes(), g.NumEdges())
	return nil
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ContinueOnError)
	in := fs.String("i", "", "input edge-list file (required)")
	k := fs.Int("k", 5, "treelet size")
	seed := fs.Int64("seed", 1, "coloring seed")
	lambda := fs.Float64("lambda", 0, "biased-coloring λ (0 = uniform)")
	spill := fs.Bool("spill", false, "greedy flushing through temp files")
	memBudget := fs.Int64("mem-budget", 0, "bounded-memory build: target transient bytes; levels shard, spill and externally merge (0 = unbounded)")
	smartStars := fs.Bool("smart-stars", true, "synthesize star-family records from colored degrees instead of storing them")
	out := fs.String("o", "", "persist the count table (arena + index + coloring) to this file")
	mapGraph := mapGraphFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("build: -i is required")
	}
	if *memBudget < 0 {
		return fmt.Errorf("build: -mem-budget must be ≥ 0, got %d", *memBudget)
	}
	g, err := loadGraph(*in, *mapGraph)
	if err != nil {
		return err
	}
	tab, col, stats, err := core.Build(context.Background(), g, core.Config{
		K: *k, Seed: *seed, BiasedLambda: *lambda,
		Spill: *spill, MemBudget: *memBudget, MaterializeStars: !*smartStars,
	})
	if err != nil {
		return err
	}
	fmt.Printf("graph:            %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())
	fmt.Printf("build time:       %v\n", stats.Duration.Round(1e6))
	fmt.Printf("check-and-merge:  %d ops\n", stats.CheckMergeOps)
	if *memBudget > 0 {
		fmt.Printf("mem budget:       %.1f MiB (sharded bounded-memory build, %.1f MiB streamed through spill)\n",
			float64(*memBudget)/(1<<20), float64(stats.SpillBytes)/(1<<20))
	}
	mode := "smart stars (star records synthesized)"
	if !*smartStars {
		mode = "materialized (all records stored)"
	}
	fmt.Printf("table:            %d stored pairs, %.1f MiB (%.2f bytes/pair), %s\n",
		stats.Pairs, float64(stats.TableBytes)/(1<<20),
		float64(stats.TableBytes)/float64(max(stats.Pairs, 1)), mode)
	fmt.Printf("colorful k-trees: %v\n", tab.TotalK())
	for h := 2; h <= *k; h++ {
		fmt.Printf("  level %d: %v\n", h, stats.LevelTime[h].Round(1e6))
	}
	if *out != "" {
		n, err := table.SaveFile(*out, tab, col)
		if err != nil {
			return err
		}
		fmt.Printf("saved:            %s (%.1f MiB) — query it with `motivo count -i %s -table %s -k %d -seed %d`\n",
			*out, float64(n)/(1<<20), *in, *out, *k, *seed)
	}
	return nil
}

func cmdCount(args []string) error {
	fs := flag.NewFlagSet("count", flag.ContinueOnError)
	in := fs.String("i", "", "input edge-list file (required)")
	k := fs.Int("k", 5, "graphlet size")
	samples := fs.Int("samples", 100000, "per-coloring sampling budget")
	colorings := fs.Int("colorings", 1, "independent colorings to average")
	strategy := fs.String("strategy", "naive", "sampling strategy: naive or ags")
	cover := fs.Int("cover-threshold", 1000, "AGS covering threshold c̄")
	sampleWorkers := fs.Int("sample-workers", 0, "sampling-phase goroutines (0/1 = sequential)")
	lambda := fs.Float64("lambda", 0, "biased-coloring λ (0 = uniform)")
	spill := fs.Bool("spill", false, "greedy flushing through temp files")
	smartStars := fs.Bool("smart-stars", true, "synthesize star-family records from colored degrees instead of storing them")
	tablePath := fs.String("table", "", "open a persisted count table (`motivo build -o`) instead of building")
	mapMode := fs.String("map", "auto", "how -table is opened: auto (mmap, heap fallback), off (heap), require (mmap or fail)")
	mapGraph := mapGraphFlag(fs)
	seed := fs.Int64("seed", 1, "run seed")
	top := fs.Int("top", 20, "how many graphlets to print")
	eps := fs.Float64("eps", 0, "run-to-precision: sample until estimates are certified within this relative error (AGS; mutually exclusive with -samples)")
	delta := fs.Float64("delta", 0.05, "run-to-precision confidence parameter δ (the certificate holds with probability 1-δ)")
	target := fs.String("target", "", "run-to-precision: certify only this canonical motif code (e.g. g3b); empty certifies every tallied motif")
	maxSamples := fs.Int("max-samples", 0, "run-to-precision sample cap (0 = engine default)")
	signatures := fs.Int("signatures", 0, "compute per-node graphlet signatures instead of global counts and print the N highest-incidence nodes")
	verbose := fs.Bool("v", false, "print phase timing detail (open vs build vs sampling, AGS coverage)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("count: -i is required")
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *eps == 0 {
		for _, name := range []string{"delta", "target", "max-samples"} {
			if set[name] {
				return fmt.Errorf("count: -%s is a run-to-precision flag; it needs -eps", name)
			}
		}
	} else {
		if set["samples"] {
			return fmt.Errorf("count: -samples and -eps are mutually exclusive (a precision run sizes its own budget; cap it with -max-samples)")
		}
		if !set["strategy"] {
			// Run-to-precision is an AGS guarantee; default the strategy.
			*strategy = "ags"
		}
	}
	strat, err := core.ParseStrategy(*strategy)
	if err != nil {
		return fmt.Errorf("count: %w", err)
	}
	if err := core.ValidateCoverThreshold(*cover); err != nil {
		return fmt.Errorf("count: %w", err)
	}
	if err := core.ValidateSampleWorkers(*sampleWorkers); err != nil {
		return fmt.Errorf("count: %w", err)
	}
	mmode, err := core.ParseMapMode(*mapMode)
	if err != nil {
		return fmt.Errorf("count: %w", err)
	}
	if *tablePath != "" {
		if *colorings > 1 {
			return fmt.Errorf("count: -table serves one saved coloring; -colorings %d is incompatible", *colorings)
		}
		if *lambda > 0 {
			return fmt.Errorf("count: -lambda has no effect with -table (the saved coloring is used)")
		}
		if *spill {
			return fmt.Errorf("count: -spill is a build-phase option; it has no effect with -table")
		}
		if !*smartStars {
			return fmt.Errorf("count: -smart-stars is a build-phase option; whether a persisted table is smart was decided by `motivo build`")
		}
	}
	g, err := loadGraph(*in, *mapGraph)
	if err != nil {
		return err
	}
	opts := motivo.Options{
		K: *k, Samples: *samples, Colorings: *colorings,
		Strategy: strat, CoverThreshold: *cover,
		SampleWorkers: *sampleWorkers,
		Lambda:        *lambda, Spill: *spill, Seed: *seed,
		MaterializeStars: !*smartStars,
		TablePath:        *tablePath,
		MapTable:         mmode,
	}
	if *eps > 0 {
		opts.Samples = 0
		opts.Epsilon = *eps
		opts.Delta = *delta
		opts.MaxSamples = *maxSamples
		if *target != "" {
			code, err := motivo.ParseCode(*target)
			if err != nil {
				return fmt.Errorf("count: %w", err)
			}
			opts.TargetMotif = code
		}
	}
	if *signatures > 0 {
		return runSignatures(g, opts, *signatures, *tablePath)
	}
	res, err := motivo.Count(g, opts)
	if err != nil {
		return err
	}
	phase, phaseTime := "build", res.BuildTime
	if *tablePath != "" {
		// A persisted table is opened, not built: OpenTime is the honest
		// cost of this phase (BuildTime stays zero).
		phase, phaseTime = "table open", res.OpenTime
	}
	fmt.Printf("%s %v, sampling %v, %d samples, table %.1f MiB, %d distinct graphlets\n",
		phase, phaseTime.Round(1e6), res.SampleTime.Round(1e6), res.Samples,
		float64(res.TableBytes)/(1<<20), len(res.Counts))
	printCertificate(res.Achieved)
	if *verbose {
		fmt.Printf("  open time:   %v\n", res.OpenTime.Round(1e3))
		fmt.Printf("  build time:  %v\n", res.BuildTime.Round(1e3))
		fmt.Printf("  sample time: %v\n", res.SampleTime.Round(1e3))
		if strat == core.AGS {
			fmt.Printf("  covered:     %d graphlets reached c̄=%d\n", res.Covered, *cover)
		}
	}
	for i, e := range res.Top(*top) {
		fmt.Printf("%3d. %-30s %14.4g  (%8.5f%%)\n",
			i+1, motivo.Describe(*k, e.Code), e.Count, 100*e.Frequency)
	}
	return nil
}

// printCertificate renders a run-to-precision certificate (no-op for
// fixed-budget runs).
func printCertificate(a *motivo.Certificate) {
	if a == nil {
		return
	}
	status := "target met"
	if !a.Met {
		status = "target NOT met within the sample cap"
	}
	if math.IsInf(a.Eps, 1) {
		fmt.Printf("precision:  nothing certifiable after %d samples (%s)\n", a.Samples, status)
		return
	}
	fmt.Printf("precision:  certified ε=%.4g at confidence %.4g after %d samples (%s)\n",
		a.Eps, 1-a.Delta, a.Samples, status)
}

// runSignatures serves `count -signatures N`: the same sampling run, but
// streaming per-draw vertex incidence into per-node graphlet degree
// vectors, printed for the N highest-incidence nodes.
func runSignatures(g *motivo.Graph, opts motivo.Options, topNodes int, tablePath string) error {
	res, err := motivo.Signatures(g, opts, nil)
	if err != nil {
		return err
	}
	phase, phaseTime := "build", res.BuildTime
	if tablePath != "" {
		phase, phaseTime = "table open", res.OpenTime
	}
	fmt.Printf("%s %v, sampling %v, %d samples, %d motifs, %d nodes touched\n",
		phase, phaseTime.Round(1e6), res.SampleTime.Round(1e6), res.Samples,
		len(res.Motifs), len(res.Nodes))
	printCertificate(res.Achieved)
	nodes := core.RankedNodes(res.Nodes)
	if topNodes < len(nodes) {
		nodes = nodes[:topNodes]
	}
	for i, n := range nodes {
		// Per node, show the three motifs it participates in most — the
		// full vector is the API's job, not a terminal's.
		type ent struct {
			code  motivo.Code
			count int64
		}
		ents := make([]ent, 0, len(res.Motifs))
		for j, c := range res.Motifs {
			if n.Counts[j] > 0 {
				ents = append(ents, ent{c, n.Counts[j]})
			}
		}
		sort.Slice(ents, func(a, b int) bool {
			if ents[a].count != ents[b].count {
				return ents[a].count > ents[b].count
			}
			return ents[a].code.Less(ents[b].code)
		})
		if len(ents) > 3 {
			ents = ents[:3]
		}
		parts := make([]string, len(ents))
		for j, e := range ents {
			parts[j] = fmt.Sprintf("%s ×%d", motivo.Describe(opts.K, e.code), e.count)
		}
		fmt.Printf("%3d. node %-10d total %-10d %s\n", i+1, n.Node, n.Total, strings.Join(parts, ", "))
	}
	return nil
}

// graphSpec is one `-graph name=graph.txt:table.tbl` serving assignment.
type graphSpec struct {
	name, graphPath, tablePath string
}

// graphFlags collects repeated -graph flags.
type graphFlags []graphSpec

func (f *graphFlags) String() string {
	parts := make([]string, len(*f))
	for i, s := range *f {
		parts[i] = fmt.Sprintf("%s=%s:%s", s.name, s.graphPath, s.tablePath)
	}
	return strings.Join(parts, ",")
}

func (f *graphFlags) Set(v string) error {
	name, rest, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=graph.txt:table.tbl, got %q", v)
	}
	// Split on the LAST colon so graph paths containing colons still parse.
	i := strings.LastIndex(rest, ":")
	if i <= 0 || i == len(rest)-1 {
		return fmt.Errorf("want name=graph.txt:table.tbl, got %q", v)
	}
	for _, s := range *f {
		if s.name == name {
			return fmt.Errorf("duplicate graph name %q", name)
		}
	}
	*f = append(*f, graphSpec{name: name, graphPath: rest[:i], tablePath: rest[i+1:]})
	return nil
}

// cmdServe opens a registry of long-lived engines over persisted tables
// and serves JSON count queries until SIGINT/SIGTERM — the build-once /
// query-many workflow as a multi-tenant network service. Each table is
// opened once at startup; engines beyond -mem-budget are LRU-evicted and
// transparently reopened, repeated explicitly-seeded queries come from
// the result cache, and -max-inflight bounds concurrent sampling work.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var graphs graphFlags
	fs.Var(&graphs, "graph", "serve a named graph: name=graph.txt:table.tbl (repeatable; first is the default)")
	in := fs.String("i", "", "input edge-list file (single-graph shorthand for -graph default=...)")
	tablePath := fs.String("table", "", "persisted count table (single-graph shorthand, from `motivo build -o`)")
	addr := fs.String("addr", ":8080", "listen address")
	memBudget := fs.Int64("mem-budget", 0, "resident table-bytes budget; engines beyond it are LRU-evicted (0 = unlimited)")
	cacheSize := fs.Int("cache-size", 1024, "seeded-result cache capacity in entries (0 disables)")
	maxInflight := fs.Int("max-inflight", 0, "max concurrent sampling requests; beyond it answer 429 (0 = unlimited)")
	mapMode := fs.String("map", "auto", "how tables are opened: auto (mmap, heap fallback), off (heap), require (mmap or fail)")
	mapGraph := mapGraphFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	mmode, err := core.ParseMapMode(*mapMode)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if (*in == "") != (*tablePath == "") {
		return fmt.Errorf("serve: -i and -table are required together")
	}
	if *in != "" {
		legacy := graphFlags{{name: "default", graphPath: *in, tablePath: *tablePath}}
		graphs = append(legacy, graphs...)
	}
	if len(graphs) == 0 {
		return fmt.Errorf("serve: -i and -table are required, or pass -graph name=graph.txt:table.tbl (repeatable)")
	}
	if *cacheSize < 0 || *memBudget < 0 || *maxInflight < 0 {
		return fmt.Errorf("serve: -cache-size, -mem-budget and -max-inflight must be ≥ 0")
	}
	reg := registry.New(registry.Config{MemBudget: *memBudget, CacheSize: *cacheSize, MapTable: mmode})
	for _, spec := range graphs {
		g, err := loadGraph(spec.graphPath, *mapGraph)
		if err != nil {
			return fmt.Errorf("serve: graph %q: %w", spec.name, err)
		}
		eng, err := reg.Open(spec.name, g, spec.tablePath)
		if err != nil {
			return fmt.Errorf("serve: graph %q: %w", spec.name, err)
		}
		st := eng.Stats()
		residency := "heap"
		if st.MappedBytes > 0 {
			residency = fmt.Sprintf("mapped %.1f MiB", float64(st.MappedBytes)/(1<<20))
		}
		fmt.Fprintf(os.Stderr, "motivo: graph %q: opened %s in %v (k=%d, %.1f MiB, %s)\n",
			spec.name, spec.tablePath, st.OpenTime.Round(1e6), st.K,
			float64(st.TableBytes)/(1<<20), residency)
	}
	fmt.Fprintf(os.Stderr, "motivo: serving %d graph(s) on %s (default %q, mem-budget %d, cache %d, max-inflight %d)\n",
		len(graphs), *addr, graphs[0].name, *memBudget, *cacheSize, *maxInflight)

	srv := &http.Server{
		Addr: *addr,
		Handler: serve.New(serve.Config{
			Registry:     reg,
			DefaultGraph: graphs[0].name,
			MaxInflight:  *maxInflight,
		}),
		// Bound how long a connection may dribble its headers/body in, so
		// slow or hostile clients can't pin goroutines and descriptors
		// forever. No WriteTimeout: big sampling queries legitimately take
		// a while to answer, and their lifetime is the request context's.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		// Restore default signal handling first: a second SIGINT/SIGTERM
		// force-kills instead of being swallowed while we drain.
		stop()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx) //nolint:errcheck // exiting either way
	}()
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-drained // let in-flight queries finish (bounded by the timeout above)
	fmt.Fprintln(os.Stderr, "motivo: serve shut down")
	return nil
}

func cmdExact(args []string) error {
	fs := flag.NewFlagSet("exact", flag.ContinueOnError)
	in := fs.String("i", "", "input edge-list file (required)")
	k := fs.Int("k", 4, "graphlet size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("exact: -i is required")
	}
	g, err := loadGraph(*in, "auto")
	if err != nil {
		return err
	}
	counts, err := motivo.ExactCount(g, *k)
	if err != nil {
		return err
	}
	type row struct {
		code  motivo.Code
		count float64
	}
	var rows []row
	var total float64
	for c, n := range counts {
		rows = append(rows, row{c, n})
		total += n
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].count > rows[j].count })
	fmt.Printf("%d distinct %d-graphlets, %.0f occurrences total\n", len(rows), *k, total)
	for i, r := range rows {
		fmt.Printf("%3d. %-30s %14.0f  (%8.5f%%)\n",
			i+1, motivo.Describe(*k, r.code), r.count, 100*r.count/total)
	}
	return nil
}

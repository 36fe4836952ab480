// Package motivo is a Go implementation of Motivo (Bressan, Leucci,
// Panconesi — "Motivo: fast motif counting via succinct color coding and
// adaptive sampling", VLDB 2019): approximate counting of the induced
// occurrences of every connected k-node graphlet in a host graph, with
// multiplicative accuracy even for extremely rare graphlets.
//
// The pipeline is the paper's: a color-coding build-up phase fills a
// succinct treelet count table; a sampling phase treats the table as an
// urn of colorful k-treelet copies and converts treelet draws into
// graphlet occurrences; the adaptive strategy (AGS) progressively
// "deletes" already-covered graphlets from the urn by switching the
// spanning-tree shape it samples.
//
// Quick start:
//
//	g := motivo.BarabasiAlbert(10000, 5, 1)
//	res, err := motivo.Count(g, motivo.Options{K: 5, Samples: 100000})
//	if err != nil { ... }
//	for _, e := range res.Top(10) {
//		fmt.Printf("%s  %.3g occurrences (%.2f%%)\n",
//			motivo.Describe(5, e.Code), e.Count, 100*e.Frequency)
//	}
package motivo

import (
	"context"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphlet"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/treelet"
)

// MaxK is the largest supported graphlet size.
const MaxK = treelet.MaxK

// Graph is an immutable undirected simple host graph in CSR layout.
type Graph = graph.Graph

// Edge is an undirected edge for NewGraph.
type Edge = graph.Edge

// Code is the canonical code of a graphlet (packed adjacency matrix).
type Code = graphlet.Code

// Counts maps canonical graphlet codes to occurrence counts (exact or
// estimated).
type Counts = estimate.Counts

// NewGraph builds a graph on n vertices from an edge list; self-loops and
// duplicates are dropped.
func NewGraph(n int, edges []Edge) (*Graph, error) { return graph.Build(n, edges) }

// ReadEdgeList parses a whitespace-separated edge list with '#'/'%'
// comments; sparse vertex ids are compacted.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// ReadBinary reads the compact binary graph format written by
// (*Graph).WriteBinary.
func ReadBinary(r io.Reader) (*Graph, error) { return graph.ReadBinary(r) }

// GraphOpenMode selects how OpenGraph loads a graph file: memory-mapped
// MvG1 (zero-copy, O(ms) open, out-of-core adjacency) or heap-loaded.
type GraphOpenMode = graph.OpenMode

const (
	// GraphOpenAuto (the default) maps MvG1 binary files and falls back to
	// the heap readers for text edge lists or platforms without mmap.
	GraphOpenAuto = graph.OpenAuto
	// GraphOpenHeap always loads onto the heap.
	GraphOpenHeap = graph.OpenHeap
	// GraphOpenMapRequire maps or fails — no silent fallback to heap
	// residency (text edge lists are an error in this mode).
	GraphOpenMapRequire = graph.OpenMapRequire
)

// OpenGraph opens a graph file by content sniffing: MvG1 binary CSR files
// (written by (*Graph).WriteBinary, or `motivo convert`) open
// memory-mapped under GraphOpenAuto — O(ms) regardless of size, with the
// adjacency served from the page cache — and text edge lists stream
// through the two-pass reader. The result is identical to ReadEdgeList /
// ReadBinary on the same data.
func OpenGraph(path string, mode GraphOpenMode) (*Graph, error) { return graph.Open(path, mode) }

// Deterministic synthetic generators (see internal/gen for the regimes
// each one reproduces).
var (
	ErdosRenyi     = gen.ErdosRenyi
	BarabasiAlbert = gen.BarabasiAlbert
	StarHeavy      = gen.StarHeavy
	Lollipop       = gen.Lollipop
	Complete       = gen.Complete
	PathGraph      = gen.Path
	CycleGraph     = gen.Cycle
	StarGraph      = gen.Star
)

// Strategy selects the sampling algorithm.
type Strategy = core.Strategy

const (
	// Naive is uniform treelet sampling (the CC estimator on motivo's
	// fast urn).
	Naive = core.Naive
	// AGS is adaptive graphlet sampling: multiplicative guarantees for
	// rare graphlets too.
	AGS = core.AGS
)

// MapMode selects how persisted count tables are opened: memory-mapped
// (zero-copy arenas, O(ms) open independent of table size, page-cache
// residency — tables larger than RAM serve fine) or loaded onto the heap
// with eager validation.
type MapMode = core.MapMode

const (
	// MapAuto (the default) maps MvT4 table files and falls back to heap
	// loading where mapping is unavailable (older formats, non-unix).
	MapAuto = core.MapAuto
	// MapOff always heap-loads, validating the whole file eagerly.
	MapOff = core.MapOff
	// MapRequire maps or fails — no silent fallback to heap residency.
	MapRequire = core.MapRequire
)

// Options configures Count. The zero value is completed with sensible
// defaults: K=4, one coloring, 100k samples, naive strategy.
type Options struct {
	// K is the graphlet size (2..MaxK). Default 4.
	K int
	// Colorings is the number of independent colorings averaged (γ).
	// Default 1.
	Colorings int
	// Samples is the per-coloring sampling budget. Default 100000.
	Samples int
	// Strategy selects Naive or AGS. Default Naive.
	Strategy Strategy
	// CoverThreshold is AGS's covering threshold c̄. Default 1000.
	CoverThreshold int
	// Lambda, when > 0, enables biased coloring with this λ (trades
	// accuracy for table size on large graphs).
	Lambda float64
	// Seed makes runs reproducible. Default 1.
	Seed int64
	// Workers bounds build-phase parallelism; 0 = GOMAXPROCS.
	Workers int
	// SampleWorkers parallelizes the sampling phase across urn clones:
	// naive sampling fans the budget out, AGS samples in epochs (per-worker
	// batches merged at barriers, where cover detection and the adaptive
	// shape switch run). ≤ 1 samples sequentially. Runs are deterministic
	// for a fixed Seed and SampleWorkers value.
	SampleWorkers int
	// Spill streams the count table through temp files (greedy flushing).
	Spill bool
	// MemBudget, when > 0, runs the build-up phase in bounded-memory mode:
	// each level is computed in vertex-range shards pulled from a shared
	// work-stealing queue, completed records stream to per-shard spill
	// files, and the level is externally merged into its final arena — so
	// the transient build footprint is bounded by the budget plus the table
	// itself, instead of scaling with whole in-flight levels. The resulting
	// table is bit-identical to an unbounded build at any worker count.
	MemBudget int64
	// MaterializeStars disables smart-star synthesis (on by default):
	// star-family treelet records are computed by the DP and stored instead
	// of being synthesized on demand from colored-degree summaries.
	// Estimates and sampled draw sequences are bit-identical either way at
	// equal seed; materializing costs build time and table bytes and exists
	// for comparison and debugging.
	MaterializeStars bool
	// TablePath, when set, makes Count skip the build-up phase and open a
	// count table persisted by BuildTable (or `motivo build -o`) instead —
	// the build-once / query-many serving mode. Requires Colorings ≤ 1 and
	// K matching the saved table; Lambda must be unset (the saved coloring
	// is used). A Count at seed s over a table saved by BuildTable at seed
	// s yields bit-identical estimates to a fully in-memory run.
	TablePath string
	// MapTable selects how TablePath is opened (MapAuto, MapOff,
	// MapRequire). Estimates are bit-identical across modes; mapping
	// changes only open time and memory residency.
	MapTable MapMode

	// Epsilon and Delta, when set, switch the run into run-to-precision
	// mode: instead of a fixed budget, sampling continues until every
	// tallied motif's estimate (or TargetMotif's alone) is certified within
	// relative error Epsilon at confidence 1-Delta by the paper's Theorem 3
	// bound. Requires the AGS strategy and a single coloring; mutually
	// exclusive with Samples. The certificate comes back in
	// Result.Achieved.
	Epsilon float64
	Delta   float64
	// TargetMotif, when non-zero, is the single canonical graphlet code the
	// precision certificate must cover (rare-motif workloads certify their
	// motif of interest orders of magnitude sooner than the full
	// distribution). Zero certifies every tallied motif.
	TargetMotif Code
	// MaxSamples caps a run-to-precision run's draws (0 = the engine's
	// default cap). Result.Achieved.Met reports whether Epsilon was reached
	// within the cap.
	MaxSamples int
}

// withDefaults completes the zero fields exactly as every entry point
// serves them — Count, Signatures, BuildTable and, through Query.coreQuery,
// the engine and registry queries: K 4, one coloring, seed 1, and 100k
// samples unless a run-to-precision field sizes the budget adaptively.
func (o Options) withDefaults() Options {
	if o.K == 0 {
		o.K = 4
	}
	if o.Colorings == 0 {
		o.Colorings = 1
	}
	if o.Samples == 0 && !o.coreQuery().PrecisionMode() {
		o.Samples = 100000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// coreQuery maps the sampling fields onto the engine-layer query.
func (o Options) coreQuery() core.Query {
	return core.Query{
		Strategy:       o.Strategy,
		Samples:        o.Samples,
		CoverThreshold: o.CoverThreshold,
		Seed:           o.Seed,
		SampleWorkers:  o.SampleWorkers,
		Epsilon:        o.Epsilon,
		Delta:          o.Delta,
		TargetMotif:    o.TargetMotif,
		MaxSamples:     o.MaxSamples,
	}
}

// Estimate is one graphlet's estimated occurrence count and relative
// frequency.
type Estimate struct {
	Code      Code
	Count     float64
	Frequency float64
}

// Result is the outcome of a Count run, an Engine query or a Registry
// query — all three render the engine's query result the same way.
type Result struct {
	// K is the graphlet size counted.
	K int
	// Counts estimates induced occurrences per canonical graphlet code.
	Counts Counts
	// Samples is the total number of samples drawn.
	Samples int
	// BuildTime and SampleTime are the aggregate phase durations.
	BuildTime  time.Duration
	SampleTime time.Duration
	// OpenTime is the table open + engine construction cost of a TablePath
	// run — reported separately because opening a persisted table is not a
	// build. Zero for in-memory runs and for Engine queries (an engine
	// pays its open cost once; see Engine.Stats().OpenTime).
	OpenTime time.Duration
	// TableBytes is the compact count-table payload size.
	TableBytes int64
	// Covered is the number of AGS-covered graphlets (0 under Naive). In
	// a multi-coloring run it reports the last coloring only, not a sum.
	Covered int
	// Achieved is the precision certificate of a run-to-precision run (nil
	// for fixed-budget runs).
	Achieved *Certificate
}

// Certificate is the precision certificate returned by a run-to-precision
// run: the certified relative error Eps (possibly +Inf when nothing was
// certifiable) at confidence 1-Delta after Samples draws, and whether the
// requested epsilon was Met within the sample cap.
type Certificate = core.Certificate

// Top returns the n graphlets with the largest estimated counts (all of
// them if n ≤ 0 or exceeds the support).
func (r *Result) Top(n int) []Estimate {
	freq := estimate.Frequencies(r.Counts)
	out := make([]Estimate, 0, len(r.Counts))
	for code, c := range r.Counts {
		out = append(out, Estimate{Code: code, Count: c, Frequency: freq[code]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Code.Less(out[j].Code)
	})
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// Count estimates the induced occurrences of every connected K-node
// graphlet in g.
func Count(g *Graph, opts Options) (*Result, error) {
	return CountContext(context.Background(), g, opts)
}

// CountContext is Count honoring a context: the build-up phase and the
// sampling loops check ctx periodically, so a deadline or cancellation
// stops the run promptly with ctx.Err().
func CountContext(ctx context.Context, g *Graph, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	cres, err := core.CountContext(ctx, g, coreConfig(opts))
	if err != nil {
		return nil, err
	}
	res := resultOf(opts.K, cres.TableBytes, &cres.QueryResult)
	res.BuildTime, res.OpenTime = cres.BuildTime, cres.OpenTime
	return res, nil
}

// resultOf renders an engine query result — the one conversion behind
// Count, Engine.Count and Registry.Count.
func resultOf(k int, tableBytes int64, qres *core.QueryResult) *Result {
	return &Result{
		K:          k,
		Counts:     qres.Counts,
		Samples:    qres.Samples,
		SampleTime: qres.SampleTime,
		TableBytes: tableBytes,
		Covered:    qres.Covered,
		Achieved:   qres.Achieved,
	}
}

// coreConfig maps completed Options onto the pipeline config — one
// translation shared by Count, Signatures and BuildTable so all apply
// identical defaulting and a saved table replays exactly.
func coreConfig(opts Options) core.Config {
	return core.Config{
		K:                  opts.K,
		Colorings:          opts.Colorings,
		SamplesPerColoring: opts.Samples,
		Strategy:           opts.Strategy,
		CoverThreshold:     opts.CoverThreshold,
		BiasedLambda:       opts.Lambda,
		Seed:               opts.Seed,
		Workers:            opts.Workers,
		SampleWorkers:      opts.SampleWorkers,
		Spill:              opts.Spill,
		MemBudget:          opts.MemBudget,
		MaterializeStars:   opts.MaterializeStars,
		TablePath:          opts.TablePath,
		MapTable:           opts.MapTable,
		Epsilon:            opts.Epsilon,
		Delta:              opts.Delta,
		TargetMotif:        opts.TargetMotif,
		MaxSamples:         opts.MaxSamples,
	}
}

// TableInfo reports what BuildTable did.
type TableInfo struct {
	// BuildTime is the wall-clock time of the build-up phase.
	BuildTime time.Duration
	// TableBytes is the packed in-memory table footprint; Pairs the number
	// of (treelet, colorset, count) entries it holds.
	TableBytes int64
	Pairs      int64
	// FileBytes is the size of the persisted table file.
	FileBytes int64
}

// BuildTable runs the coloring and build-up phase once and persists the
// count table to path, so repeated Count calls with Options.TablePath can
// skip the build — the build-once / query-many workflow. Options fields
// that only affect sampling (Samples, Strategy, …) are ignored. K and Seed
// must match the later queries; Lambda applies at build time only (queries
// read the saved coloring and must leave Lambda unset).
func BuildTable(g *Graph, opts Options, path string) (*TableInfo, error) {
	return BuildTableContext(context.Background(), g, opts, path)
}

// BuildTableContext is BuildTable honoring a context: a canceled or
// expired ctx stops the build-up phase promptly.
func BuildTableContext(ctx context.Context, g *Graph, opts Options, path string) (*TableInfo, error) {
	stats, fileBytes, err := core.BuildTableContext(ctx, g, coreConfig(opts.withDefaults()), path)
	if err != nil {
		return nil, err
	}
	return &TableInfo{
		BuildTime:  stats.Duration,
		TableBytes: stats.TableBytes,
		Pairs:      stats.Pairs,
		FileBytes:  fileBytes,
	}, nil
}

// Engine is a long-lived query session over one persisted count table: the
// table is opened, validated and turned into the master sampling urn once,
// and every Count query then costs only an O(1) urn clone plus its own
// deterministic RNG stream. An Engine is safe for concurrent use — serving
// N queries from N goroutines is the intended deployment shape — and a
// query at seed s returns bit-identical estimates to a one-shot
// Count(Options{TablePath: ..., Seed: s}).
//
//	eng, err := motivo.Open(g, "graph.tbl")
//	if err != nil { ... }
//	res, err := eng.Count(ctx, motivo.Query{Strategy: motivo.AGS, Samples: 50000, Seed: 7})
type Engine struct {
	eng *core.Engine
}

// Open loads a count table persisted by BuildTable (or `motivo build -o`)
// and prepares a query engine over it. The per-query cost of the one-shot
// TablePath path — file open, validation, urn construction — is paid here
// exactly once. MvT4 files open memory-mapped (MapAuto): O(ms)
// independent of table size, with per-level validation deferred to first
// touch; use OpenMode to pin a path.
func Open(g *Graph, tablePath string) (*Engine, error) {
	return OpenMode(g, tablePath, MapAuto)
}

// OpenMode is Open with the table open path pinned: MapOff heap-loads
// with eager whole-file validation, MapRequire memory-maps or fails,
// MapAuto maps when the file and platform allow it. Estimates are
// bit-identical across modes.
func OpenMode(g *Graph, tablePath string, mode MapMode) (*Engine, error) {
	eng, err := core.OpenMode(g, tablePath, mode)
	if err != nil {
		return nil, err
	}
	return &Engine{eng: eng}, nil
}

// Query parameterizes one Engine.Count call. The zero value is completed
// with the same defaults as Options: 100k samples, naive strategy, seed 1.
type Query struct {
	// Strategy selects Naive or AGS.
	Strategy Strategy
	// Samples is the sampling budget. Default 100000.
	Samples int
	// CoverThreshold is AGS's covering threshold c̄. Default 1000.
	CoverThreshold int
	// Seed makes the query reproducible. Default 1. A Query sent through a
	// Registry is answered from the seeded-result cache only when Seed is
	// set explicitly (non-zero); Seed 0 means "default seed, don't cache".
	Seed int64
	// SampleWorkers parallelizes this query across urn clones (≤ 1 =
	// sequential).
	SampleWorkers int
	// Epsilon and Delta switch the query into run-to-precision mode:
	// sampling continues until the estimates (or TargetMotif's alone) are
	// certified within relative error Epsilon at confidence 1-Delta.
	// Requires the AGS strategy; mutually exclusive with Samples. The
	// certificate comes back in Result.Achieved.
	Epsilon float64
	Delta   float64
	// TargetMotif, when non-zero, is the single canonical code the
	// certificate must cover; zero certifies every tallied motif.
	TargetMotif Code
	// MaxSamples caps a run-to-precision query's draws (0 = the engine's
	// default cap).
	MaxSamples int
}

// coreQuery completes the query's zero fields through Options.withDefaults
// and maps it onto the engine-layer query — the single translation used by
// Engine.Count, Engine.Signatures, the Registry methods and Validate, so
// the public API cannot drift from what the engine serves.
func (q Query) coreQuery() core.Query {
	return Options{
		Strategy:       q.Strategy,
		Samples:        q.Samples,
		CoverThreshold: q.CoverThreshold,
		Seed:           q.Seed,
		SampleWorkers:  q.SampleWorkers,
		Epsilon:        q.Epsilon,
		Delta:          q.Delta,
		TargetMotif:    q.TargetMotif,
		MaxSamples:     q.MaxSamples,
	}.withDefaults().coreQuery()
}

// Validate reports whether the query (after defaulting, so the zero value
// is valid) can be served: known strategy, positive budget, bounded worker
// count, positive cover threshold. It is the one validation path shared by
// the CLI, the HTTP layer and the engine itself.
func (q Query) Validate() error { return q.coreQuery().Validate() }

// Count serves one query from the engine's table: one sampling run on an
// urn clone with the query's own RNG stream, then the estimate. It honors
// ctx — a canceled request (an HTTP client disconnect, a deadline) stops
// the sampling loop promptly — and may be called concurrently from any
// number of goroutines. The draw sequence follows SampleWorkers.
func (e *Engine) Count(ctx context.Context, q Query) (*Result, error) {
	qres, err := e.eng.Count(ctx, q.coreQuery())
	if err != nil {
		return nil, err
	}
	st := e.eng.Stats()
	return resultOf(st.K, st.TableBytes, qres), nil
}

// NodeSignature is one node's graphlet degree vector (GDV): per-motif
// counts of the sampled occurrences touching the node, aligned with
// SignaturesResult.Motifs.
type NodeSignature = core.NodeSignature

// SignaturesResult is the outcome of a per-node signatures query: the
// sorted motif list, the per-node vectors, and the run's raw tallies.
// Summing the vectors of all nodes (a nil node filter) recovers exactly
// K × tally for every motif.
type SignaturesResult = core.SignaturesResult

// Signatures serves one per-node graphlet signature query from the
// engine's table: it samples exactly like Count (same strategies, budgets
// and precision mode) but streams every draw's vertex incidence into
// per-node motif-count vectors. nodes, when non-empty, restricts the
// vectors to those vertices; empty returns every node touched by at least
// one sample.
//
// Unlike Count — whose draw sequence follows SampleWorkers — a signatures
// query decomposes into a fixed number of deterministic streams, so for a
// fixed Seed the vectors are bit-identical at any SampleWorkers count.
func (e *Engine) Signatures(ctx context.Context, q Query, nodes []int32) (*SignaturesResult, error) {
	return e.eng.Signatures(ctx, q.coreQuery(), nodes)
}

// Signatures is the one-shot form of Engine.Signatures, mirroring Count:
// build (or open) the table for opts, then serve one signatures query.
// Requires a single coloring (incidence tallies are per-coloring).
func Signatures(g *Graph, opts Options, nodes []int32) (*SignaturesResult, error) {
	return SignaturesContext(context.Background(), g, opts, nodes)
}

// SignaturesContext is Signatures honoring a context.
func SignaturesContext(ctx context.Context, g *Graph, opts Options, nodes []int32) (*SignaturesResult, error) {
	return core.SignaturesContext(ctx, g, coreConfig(opts.withDefaults()), nodes)
}

// EngineStats describes an engine in one struct: graphlet size, host graph
// shape, resident table payload, and the one-time open cost the engine
// amortizes over its queries.
type EngineStats = core.EngineStats

// Stats reports the engine's shape and cost in a single struct: graphlet
// size, graph shape, table payload and the one-time open cost.
func (e *Engine) Stats() EngineStats { return e.eng.Stats() }

// RegistryConfig bounds a Registry: the memory budget for resident
// tables, the seeded-result cache size, and how tables are opened.
type RegistryConfig = registry.Config

// Registry is a named collection of engines — the multi-tenant half of the
// build-once / query-many workflow. One process serves many graphs: each
// is registered once under a name, engines are LRU-evicted under the
// memory budget and reopened on demand (concurrent reopens of the same
// table load it once), and repeated explicitly-seeded queries are answered
// from the result cache without sampling at all. All methods are safe for
// concurrent use.
type Registry struct {
	reg *registry.Registry
}

// GraphInfo describes one registered graph (see Registry.List).
type GraphInfo = registry.Info

// RegistryStats aggregates a registry's traffic and cache counters (see
// Registry.Stats).
type RegistryStats = registry.Stats

// NewRegistry creates an empty registry under cfg's budget.
func NewRegistry(cfg RegistryConfig) *Registry {
	return &Registry{reg: registry.New(cfg)}
}

// Open registers g under name and eagerly opens its engine from the
// persisted table, so a bad table fails here rather than on the first
// query. Names must be unique.
func (r *Registry) Open(name string, g *Graph, tablePath string) error {
	_, err := r.reg.Open(name, g, tablePath)
	return err
}

// Get returns the named engine, transparently reopening it if it was
// evicted under the memory budget. Concurrent Gets of an evicted name
// share one open.
func (r *Registry) Get(ctx context.Context, name string) (*Engine, error) {
	eng, err := r.reg.Get(ctx, name)
	if err != nil {
		return nil, err
	}
	return &Engine{eng: eng}, nil
}

// Count resolves the named engine and serves one query through the
// seeded-result cache: a query with an explicit (non-zero) Seed that the
// registry has answered before returns the cached Result without sampling
// (cached reports which). Queries with Seed 0 bypass the cache.
func (r *Registry) Count(ctx context.Context, name string, q Query) (res *Result, cached bool, err error) {
	qres, hit, err := r.reg.Count(ctx, name, q.coreQuery(), q.Seed != 0)
	if err != nil {
		return nil, false, err
	}
	// Render from registry metadata: a cache hit must not pull an evicted
	// engine back into memory.
	k, tableBytes, err := r.reg.Meta(name)
	if err != nil {
		return nil, false, err
	}
	return resultOf(k, tableBytes, qres), hit, nil
}

// Signatures resolves the named engine and serves one per-node signatures
// query. Results are never cached: bodies are per-node and large, and the
// fixed stream decomposition already makes seeded runs reproducible.
func (r *Registry) Signatures(ctx context.Context, name string, q Query, nodes []int32) (*SignaturesResult, error) {
	return r.reg.Signatures(ctx, name, q.coreQuery(), nodes)
}

// Evict drops the named engine's resident state (the registration stays,
// so a later Get or Count reopens it). It reports whether an engine was
// resident.
func (r *Registry) Evict(name string) bool { return r.reg.Evict(name) }

// List describes every registered graph, sorted by name.
func (r *Registry) List() []GraphInfo { return r.reg.List() }

// Stats aggregates the registry's traffic, cache and eviction counters.
func (r *Registry) Stats() RegistryStats { return r.reg.Stats() }

// ServeConfig parameterizes NewServer.
type ServeConfig struct {
	// DefaultGraph is the registered name the legacy single-graph
	// endpoints (/count, /stats) alias onto. Empty means the first
	// registered name in List order.
	DefaultGraph string
	// MaxInflight caps concurrent sampling requests; beyond it the server
	// answers 429 with a Retry-After header. 0 means unlimited.
	MaxInflight int
}

// NewServer wraps a registry into the versioned HTTP API served by
// `motivo serve`: POST /v1/graphs/{name}/count, POST /v1/batch,
// GET /v1/graphs, GET /metrics (Prometheus text format), plus the legacy
// /count, /stats and /healthz endpoints aliased onto the default graph.
func NewServer(r *Registry, cfg ServeConfig) http.Handler {
	return serve.New(serve.Config{
		Registry:     r.reg,
		DefaultGraph: cfg.DefaultGraph,
		MaxInflight:  cfg.MaxInflight,
	})
}

// ExactCount returns the exact induced counts of every connected k-node
// graphlet via exhaustive ESU enumeration — feasible for small graphs and
// the ground truth used in the experiments.
func ExactCount(g *Graph, k int) (Counts, error) { return exact.Count(g, k) }

// NonInducedCounts converts induced counts into non-induced (subgraph)
// counts: noninduced(H) = Σ_{H'} mult(H, H')·induced(H'). support lists
// the graphlets to evaluate (EnumerateGraphlets(k) for all of them, nil
// for the keys of counts).
func NonInducedCounts(counts Counts, k int, support []Code) Counts {
	return estimate.NonInduced(counts, k, support)
}

// EnumerateGraphlets lists the canonical codes of all connected k-node
// graphlets (k ≤ 7).
func EnumerateGraphlets(k int) []Code { return graphlet.Enumerate(k) }

// NumGraphlets returns the number of distinct connected graphlets on k
// nodes (OEIS A001349).
func NumGraphlets(k int) int64 { return graphlet.NumGraphlets(k) }

// Describe renders a graphlet code as a short human-readable description:
// special names for well-known shapes, otherwise edge count and degree
// sequence.
func Describe(k int, c Code) string { return graphlet.Describe(k, c) }

// ParseCode parses the Code.String form ("g" + hex digits) back into a
// Code — how a motif is named on the CLI (-target) and over the wire.
func ParseCode(s string) (Code, error) { return graphlet.ParseCode(s) }

// L1Error returns the ℓ1 distance between the frequency vectors of an
// estimate and a ground truth.
func L1Error(est, truth Counts) float64 { return estimate.L1(est, truth) }

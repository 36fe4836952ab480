// Package core orchestrates the full motivo pipeline: coloring, build-up
// phase, sampling phase (naive or AGS), estimation, and averaging over
// independent colorings (the paper averages over γ colorings to drive the
// failure probability down exponentially, Section 2.2).
package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/build"
	"repro/internal/coloring"
	"repro/internal/estimate"
	"repro/internal/graph"
	"repro/internal/graphlet"
	"repro/internal/sample"
	"repro/internal/table"
	"repro/internal/treelet"
)

// Strategy selects the sampling algorithm.
type Strategy int

const (
	// Naive is CC-style uniform treelet sampling (Section 2.2) on top of
	// motivo's fast urn — the paper's "naive sampling" arm.
	Naive Strategy = iota
	// AGS is adaptive graphlet sampling (Section 4).
	AGS
)

func (s Strategy) String() string {
	switch s {
	case Naive:
		return "naive"
	case AGS:
		return "ags"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy converts a strategy name (as accepted by CLI flags) into a
// Strategy; it is the inverse of Strategy.String.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "naive":
		return Naive, nil
	case "ags":
		return AGS, nil
	}
	return 0, fmt.Errorf("core: unknown strategy %q (want naive or ags)", name)
}

// MapMode selects how a persisted table file is opened: memory-mapped
// (zero-copy, O(ms) open, page-cache residency) or loaded onto the heap.
type MapMode int

const (
	// MapAuto — the default — maps MvT4 files and falls back to the heap
	// loader for anything mapping cannot serve (older format versions,
	// platforms without mmap). The right choice everywhere except tests
	// that pin one path.
	MapAuto MapMode = iota
	// MapOff always loads onto the heap with eager whole-file validation.
	MapOff
	// MapRequire maps or fails — for deployments where a silent fallback
	// to heap loading (and its RAM footprint) would be an outage, not a
	// convenience.
	MapRequire
)

func (m MapMode) String() string {
	switch m {
	case MapAuto:
		return "auto"
	case MapOff:
		return "off"
	case MapRequire:
		return "require"
	}
	return fmt.Sprintf("MapMode(%d)", int(m))
}

// ParseMapMode converts a mode name (as accepted by the -map CLI flag)
// into a MapMode; it is the inverse of MapMode.String.
func ParseMapMode(name string) (MapMode, error) {
	switch name {
	case "auto":
		return MapAuto, nil
	case "off":
		return MapOff, nil
	case "require":
		return MapRequire, nil
	}
	return 0, fmt.Errorf("core: unknown map mode %q (want auto, off or require)", name)
}

// ValidateCoverThreshold checks the AGS covering threshold c̄: it must be
// ≥ 1. (Config.CoverThreshold additionally accepts 0 as "use the paper's
// default of 1000".)
func ValidateCoverThreshold(c int) error {
	if c < 1 {
		return fmt.Errorf("core: cover threshold must be ≥ 1, got %d", c)
	}
	return nil
}

// MaxSampleWorkers bounds the sampling-phase worker count; beyond a few
// hundred goroutines the epoch barrier dominates and a larger value is
// almost certainly a misparsed flag.
const MaxSampleWorkers = 1024

// ValidateSampleWorkers checks the sampling-phase worker count: 0 and 1
// both mean sequential, anything up to MaxSampleWorkers fans out.
func ValidateSampleWorkers(w int) error {
	if w < 0 || w > MaxSampleWorkers {
		return fmt.Errorf("core: sample workers must be in [0, %d], got %d", MaxSampleWorkers, w)
	}
	return nil
}

// Config parameterizes a counting run.
type Config struct {
	// K is the graphlet size (2 ≤ K ≤ treelet.MaxK).
	K int
	// Colorings is γ, the number of independent colorings to average over
	// (≥ 1).
	Colorings int
	// SamplesPerColoring is the per-coloring sampling budget.
	SamplesPerColoring int
	// Strategy selects naive sampling or AGS.
	Strategy Strategy
	// CoverThreshold is AGS's c̄ (defaults to 1000 when 0).
	CoverThreshold int
	// BiasedLambda, when > 0, enables biased coloring with this λ
	// (Section 3.4); 0 means uniform coloring.
	BiasedLambda float64
	// Seed makes the whole run reproducible.
	Seed int64
	// Workers for the build-up phase; 0 = GOMAXPROCS.
	Workers int
	// SampleWorkers parallelizes the sampling phase across urn clones
	// ("samples are by definition independent and are taken by different
	// threads", Section 3.3). ≤ 1 samples sequentially. Naive sampling
	// fans the whole budget out; AGS runs epoch-based (per-worker batches
	// merged at barriers where cover detection and the shape switch run —
	// see package ags).
	SampleWorkers int
	// Spill enables greedy flushing of the count table to temp files.
	Spill bool
	// MemBudget, when > 0, runs the build-up phase in bounded-memory mode:
	// each level is computed in vertex-range shards pulled from a shared
	// work-stealing queue, records stream to per-shard spill files as they
	// complete, and the level is externally merged into its final arena.
	// The resulting table is bit-identical to an unbounded build. See
	// build.Options.MemBudget for the exact semantics of the bound.
	MemBudget int64
	// BufferThreshold overrides the neighbor-buffering degree threshold
	// (0 keeps the paper's default of 10^4).
	BufferThreshold int
	// MaterializeStars disables smart-star synthesis (on by default):
	// star-family records are computed by the DP and stored instead of
	// being synthesized from colored-degree summaries. Estimates and draw
	// sequences are bit-identical either way; materializing costs build
	// time and table bytes and exists for comparison and debugging.
	MaterializeStars bool
	// Epsilon and Delta request run-to-precision AGS: sample until
	// Theorem 3 certifies the estimates within relative error Epsilon at
	// confidence 1−Delta, or MaxSamples is hit. Mutually exclusive with
	// SamplesPerColoring; requires Strategy == AGS and Colorings == 1.
	Epsilon float64
	Delta   float64
	// TargetMotif restricts the certificate to one canonical motif code;
	// the zero Code certifies every tallied motif.
	TargetMotif graphlet.Code
	// MaxSamples caps a precision run (0 means ags.DefaultPrecisionCap).
	MaxSamples int
	// TablePath, when set, skips the build-up phase entirely: the count
	// table (and the coloring that produced it) is opened from a file
	// written by BuildTable or `motivo build -o` — the build-once /
	// query-many serving mode. It requires Colorings == 1 (a saved table
	// captures exactly one coloring) and K equal to the table's k; a run
	// with TablePath at seed s produces bit-identical estimates to an
	// in-memory run at seed s whose table was saved by BuildTable.
	TablePath string
	// MapTable selects how TablePath is opened: the MapAuto zero value
	// memory-maps MvT4 files (zero-copy, O(ms) open) and falls back to
	// heap loading where mapping is unavailable. Estimates are
	// bit-identical across modes.
	MapTable MapMode
}

// Result aggregates the estimates of a one-shot run: the engine query
// result of each coloring, combined, plus what acquiring the engines cost.
type Result struct {
	// QueryResult holds the estimates averaged over colorings and their
	// frequencies; Samples and SampleTime sum over colorings, while Covered
	// and Achieved report the last coloring.
	QueryResult
	// BuildTime aggregates the build-up phase durations across colorings.
	BuildTime time.Duration
	// OpenTime is the table open + engine construction cost of a TablePath
	// run (zero when the table was built in-memory): opening a persisted
	// table is not a build, so it is reported separately from BuildTime.
	OpenTime time.Duration
	// BuildStats holds the per-coloring build statistics.
	BuildStats []*build.Stats
	// TableBytes is the compact count-table payload of the last coloring.
	TableBytes int64
}

// validate checks the parts of the config shared by Count and Build.
func (cfg Config) validate() error {
	if cfg.K < 2 || cfg.K > treelet.MaxK {
		return fmt.Errorf("core: K=%d out of range [2,%d]", cfg.K, treelet.MaxK)
	}
	if cfg.BiasedLambda > 0 {
		if err := coloring.ValidateLambda(cfg.K, cfg.BiasedLambda); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// validateRun checks a one-shot Count or Signatures run before any build:
// the shared config checks, then the sampling fields through the engine's
// own Query.Validate.
func (cfg Config) validateRun() error {
	if err := cfg.validate(); err != nil {
		return err
	}
	return cfg.query(cfg.Seed).Validate()
}

// buildRun colors g for coloring run `run` and runs the build-up phase
// with the config's build options — the one place a Config becomes a
// coloring and a table. Its seed schedule is shared by Count and Build, so
// a table saved by BuildTable reproduces exactly the coloring Count would
// have built in-memory at the same seed.
func buildRun(ctx context.Context, g *graph.Graph, cfg Config, run int, cat *treelet.Catalog) (*table.Table, *coloring.Coloring, *build.Stats, error) {
	seed := cfg.Seed + int64(run)*7919
	var col *coloring.Coloring
	if cfg.BiasedLambda > 0 {
		col = coloring.Biased(g.NumNodes(), cfg.K, cfg.BiasedLambda, seed)
	} else {
		col = coloring.Uniform(g.NumNodes(), cfg.K, seed)
	}
	opts := build.DefaultOptions()
	opts.Workers = cfg.Workers
	opts.Spill = cfg.Spill
	opts.MemBudget = cfg.MemBudget
	opts.SmartStars = !cfg.MaterializeStars
	if cfg.BufferThreshold > 0 {
		opts.BufferThreshold = cfg.BufferThreshold
	}
	tab, stats, err := build.Run(ctx, g, col, cfg.K, cat, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	return tab, col, stats, nil
}

// Build runs the coloring and build-up phase for run 0 of cfg and returns
// the table with the coloring that produced it. Count at the same config
// builds exactly this table for its first coloring.
func Build(ctx context.Context, g *graph.Graph, cfg Config) (*table.Table, *coloring.Coloring, *build.Stats, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, nil, err
	}
	return buildRun(ctx, g, cfg, 0, treelet.NewCatalog(cfg.K))
}

// BuildTable runs the coloring and build-up phase for run 0 of cfg and
// persists the table (arena + offset index + coloring) to path, so later
// Count calls with Config.TablePath skip the build entirely.
func BuildTable(g *graph.Graph, cfg Config, path string) (*build.Stats, int64, error) {
	return BuildTableContext(context.Background(), g, cfg, path)
}

// BuildTableContext is BuildTable honoring a context: a canceled or
// expired ctx stops the build-up phase promptly.
func BuildTableContext(ctx context.Context, g *graph.Graph, cfg Config, path string) (*build.Stats, int64, error) {
	tab, col, stats, err := Build(ctx, g, cfg)
	if err != nil {
		return nil, 0, err
	}
	fileBytes, err := table.SaveFile(path, tab, col)
	if err != nil {
		return nil, 0, err
	}
	return stats, fileBytes, nil
}

// query maps the config's sampling knobs onto an engine query at seed —
// the one translation shared by every mode, so the one-shot paths and a
// long-lived Engine cannot drift apart.
func (cfg Config) query(seed int64) Query {
	return Query{
		Strategy:        cfg.Strategy,
		Samples:         cfg.SamplesPerColoring,
		CoverThreshold:  cfg.CoverThreshold,
		Seed:            seed,
		SampleWorkers:   cfg.SampleWorkers,
		BufferThreshold: cfg.BufferThreshold,
		Epsilon:         cfg.Epsilon,
		Delta:           cfg.Delta,
		TargetMotif:     cfg.TargetMotif,
		MaxSamples:      cfg.MaxSamples,
	}
}

// engine acquires the engine a one-shot run queries: it opens TablePath,
// or colors g for coloring run and builds that coloring's table (cat and
// sig are shared across the engines of a multi-coloring run). stats is
// nil for an opened table.
func (cfg Config) engine(ctx context.Context, g *graph.Graph, run int, cat *treelet.Catalog, sig *estimate.Sigma) (*Engine, *build.Stats, error) {
	if cfg.TablePath == "" {
		tab, col, stats, err := buildRun(ctx, g, cfg, run, cat)
		if err != nil {
			return nil, nil, err
		}
		eng, err := newEngine(g, tab, col, cat, sig)
		return eng, stats, err
	}
	if cfg.Colorings > 1 {
		return nil, nil, fmt.Errorf("core: TablePath requires Colorings == 1 (a saved table captures one coloring), got %d", cfg.Colorings)
	}
	if cfg.BiasedLambda > 0 {
		return nil, nil, fmt.Errorf("core: BiasedLambda has no effect with TablePath (the saved coloring is used); unset one")
	}
	eng, err := OpenMode(g, cfg.TablePath, cfg.MapTable)
	if err != nil {
		return nil, nil, err
	}
	if eng.K() != cfg.K {
		return nil, nil, fmt.Errorf("core: table %s was built for k=%d, run wants k=%d", cfg.TablePath, eng.K(), cfg.K)
	}
	return eng, nil, nil
}

// Count runs the motivo pipeline on g.
func Count(g *graph.Graph, cfg Config) (*Result, error) {
	return CountContext(context.Background(), g, cfg)
}

// CountContext runs the motivo pipeline on g under ctx: both the build-up
// phase and the sampling loops check the context periodically, so a
// deadline or cancellation stops the run promptly.
//
// It is a thin acquire-query loop over Engine: for each coloring,
// Config.engine opens TablePath or builds that coloring's table, and
// Engine.Count serves the coloring's query; the estimates are averaged
// over colorings. A one-shot run is therefore bit-identical to the same
// query against a long-lived engine at the same seed.
func CountContext(ctx context.Context, g *graph.Graph, cfg Config) (*Result, error) {
	if err := cfg.validateRun(); err != nil {
		return nil, err
	}
	if cfg.Colorings < 1 {
		return nil, fmt.Errorf("core: Colorings must be ≥ 1, got %d", cfg.Colorings)
	}
	if cfg.query(cfg.Seed).PrecisionMode() && cfg.Colorings != 1 {
		return nil, fmt.Errorf("core: run-to-precision requires Colorings == 1 (the certificate covers one coloring), got %d", cfg.Colorings)
	}
	res := &Result{QueryResult: QueryResult{Counts: make(estimate.Counts)}}
	cat := treelet.NewCatalog(cfg.K)
	sig := estimate.NewSigma(cfg.K)
	for run := 0; run < cfg.Colorings; run++ {
		eng, stats, err := cfg.engine(ctx, g, run, cat, sig)
		if err != nil {
			return nil, err
		}
		if stats != nil {
			res.BuildTime += stats.Duration
			res.BuildStats = append(res.BuildStats, stats)
		}
		st := eng.Stats()
		res.OpenTime, res.TableBytes = st.OpenTime, st.TableBytes
		qres, err := eng.Count(ctx, cfg.query(cfg.Seed+int64(run)*7919))
		if err != nil {
			return nil, err
		}
		res.Samples += qres.Samples
		res.Covered = qres.Covered
		res.Achieved = qres.Achieved
		res.SampleTime += qres.SampleTime
		for code, v := range qres.Counts {
			res.Counts[code] += v / float64(cfg.Colorings)
		}
	}
	res.Frequencies = estimate.Frequencies(res.Counts)
	return res, nil
}

// naiveTallies draws `budget` samples across `streams` deterministic
// sampling streams (one urn clone and one derived rng per stream, seeded in
// stream order), executed on at most `workers` goroutines. Results depend
// only on (rng seed, streams), never on the physical worker count or
// goroutine scheduling: the count path passes streams == workers (the
// classic behavior, where changing SampleWorkers changes the draw
// sequence), while the signatures path pins streams so its vectors are
// bit-identical at any worker count. observe, when non-nil, receives every
// draw with its stream index and sampled vertices (scratch slice — copy to
// retain); it is never called concurrently for the same stream index. On
// cancellation the partial tallies are discarded and ctx.Err() returned.
func naiveTallies(ctx context.Context, urn *sample.Urn, budget, workers, streams int, rng *rand.Rand, observe func(stream int, code graphlet.Code, nodes []int32)) (map[graphlet.Code]int64, error) {
	if streams > budget {
		// With more streams than samples the per-stream share rounds to
		// zero, which used to leave streams 0..n-2 idle while the last one
		// drew the whole budget; clamping gives every stream ≥ 1 draw.
		streams = budget
	}
	tallies := make(map[graphlet.Code]int64)
	if streams <= 1 {
		if err := drawStream(ctx, urn, budget, 0, rng, observe, tallies); err != nil {
			return nil, err
		}
		return tallies, nil
	}
	if workers < 1 {
		workers = 1
	}
	if workers > streams {
		workers = streams
	}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	sem := make(chan struct{}, workers)
	per := budget / streams
	for w := 0; w < streams; w++ {
		n := per
		if w == streams-1 {
			n = budget - per*(streams-1)
		}
		seed := rng.Int63()
		wg.Add(1)
		go func(w, n int, seed int64) {
			defer wg.Done()
			sem <- struct{}{} // at most `workers` streams sample at once
			defer func() { <-sem }()
			// local stays on this goroutine's stack: drawStream fills the
			// caller's map instead of returning one.
			local := make(map[graphlet.Code]int64)
			if drawStream(ctx, urn.Clone(), n, w, rand.New(rand.NewSource(seed)), observe, local) != nil {
				return // canceled: ctx.Err() is reported below
			}
			mu.Lock()
			for c, v := range local {
				tallies[c] += v
			}
			mu.Unlock()
		}(w, n, seed)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return tallies, nil
}

// drawStream is the one naive draw loop: n samples from urn with rng,
// tallied per motif into tallies and passed to observe as stream
// `stream`. The context is checked before the first draw and every 1024
// draws after it; on cancellation it returns ctx.Err().
func drawStream(ctx context.Context, urn *sample.Urn, n, stream int, rng *rand.Rand, observe func(stream int, code graphlet.Code, nodes []int32), tallies map[graphlet.Code]int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	i, canceled := 0, false
	urn.SampleBatch(rng, n, func(code graphlet.Code, nodes []int32) bool {
		tallies[code]++
		if observe != nil {
			observe(stream, code, nodes)
		}
		i++
		if i&1023 == 0 && ctx.Err() != nil {
			canceled = true
			return false
		}
		return true
	})
	if canceled {
		return ctx.Err()
	}
	return nil
}

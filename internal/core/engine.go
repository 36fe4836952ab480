package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/ags"
	"repro/internal/coloring"
	"repro/internal/estimate"
	"repro/internal/graph"
	"repro/internal/graphlet"
	"repro/internal/sample"
	"repro/internal/table"
	"repro/internal/treelet"
)

// Engine is the long-lived serving half of the build-once / query-many
// workflow (paper, Section 3: the count table is expensive to build, but
// samples are cheap and independent). One Engine validates its table and
// builds the master sampling urn exactly once; every query then takes an
// O(1) Urn.Clone plus its own deterministic RNG stream, so a query at
// seed s is bit-identical to a one-shot Count at seed s while skipping the
// whole table open + urn construction cost the one-shot path pays every
// time.
//
// All fields are immutable after construction except the lazily-prepared
// AGS shape set (guarded by a sync.Once) and the σ caches (internally
// locked), so an Engine serves any number of goroutines concurrently.
type Engine struct {
	g   *graph.Graph
	tab *table.Table
	col *coloring.Coloring
	cat *treelet.Catalog
	sig *estimate.Sigma
	urn *sample.Urn

	// The AGS sample(T) machinery costs a pass over the size-k records per
	// shape; it is prepared on the first AGS query and shared (read-only)
	// by every later one.
	shapeOnce sync.Once
	shapeSet  *ags.ShapeSet
	shapeErr  error

	openTime time.Duration
}

// Open loads a count table persisted by BuildTable (or `motivo build -o`)
// and prepares an Engine over it: table validation, coloring recovery and
// master-urn construction all happen here, once, instead of on every
// query. It opens in MapAuto mode — MvT4 files are memory-mapped
// (zero-copy arenas, O(ms) open independent of table size, lazy per-level
// validation on first touch), everything else heap-loads.
func Open(g *graph.Graph, tablePath string) (*Engine, error) {
	return OpenMode(g, tablePath, MapAuto)
}

// OpenMode is Open with the table open path pinned: MapOff heap-loads
// with eager validation, MapRequire maps or fails, MapAuto maps when the
// file and platform allow it. Estimates are bit-identical across modes —
// the mapped table serves the same View interface over the same bytes.
func OpenMode(g *graph.Graph, tablePath string, mode MapMode) (*Engine, error) {
	start := time.Now()
	tab, col, err := openTable(tablePath, mode)
	if err != nil {
		return nil, err
	}
	if col == nil {
		return nil, fmt.Errorf("core: table %s carries no coloring section; rebuild it with BuildTable", tablePath)
	}
	if tab.K < 2 || tab.K > treelet.MaxK {
		return nil, fmt.Errorf("core: table %s: engine needs a table with k in [2,%d]", tablePath, treelet.MaxK)
	}
	eng, err := newEngine(g, tab, col, treelet.NewCatalog(tab.K), estimate.NewSigma(tab.K))
	if err != nil {
		return nil, fmt.Errorf("core: table %s: %w", tablePath, err)
	}
	eng.openTime = time.Since(start)
	return eng, nil
}

// openTable resolves a MapMode against one file. Only ErrNotMappable
// triggers the MapAuto fallback: a corrupt v4 file fails hard on both
// paths rather than being silently re-read onto the heap.
func openTable(path string, mode MapMode) (*table.Table, *coloring.Coloring, error) {
	switch mode {
	case MapOff:
		return table.LoadFile(path)
	case MapRequire:
		return table.OpenMapped(path)
	case MapAuto:
		tab, col, err := table.OpenMapped(path)
		if errors.Is(err, table.ErrNotMappable) {
			return table.LoadFile(path)
		}
		return tab, col, err
	}
	return nil, nil, fmt.Errorf("core: unknown map mode %d", int(mode))
}

// newEngine validates a table against its coloring and host graph and
// builds the master urn — the one constructor behind OpenMode and
// Config.engine. The catalog and σ cache come from the caller, so a
// multi-coloring Count shares one of each across its γ engines. Errors
// carry no "core:" prefix; callers add it.
func newEngine(g *graph.Graph, tab *table.Table, col *coloring.Coloring, cat *treelet.Catalog, sig *estimate.Sigma) (*Engine, error) {
	if col == nil || col.K != tab.K {
		return nil, fmt.Errorf("coloring has %d colors, table wants %d", colorK(col), tab.K)
	}
	if tab.N != g.NumNodes() {
		return nil, fmt.Errorf("table covers %d nodes, graph has %d", tab.N, g.NumNodes())
	}
	if tab.SmartStars() && !tab.GraphAttached() {
		// A loaded smart table synthesizes star records from the graph's
		// adjacency; binding verifies its degree summaries against g, so a
		// table paired with the wrong graph fails here, at open time.
		if err := tab.AttachGraph(g); err != nil {
			return nil, err
		}
	}
	urn, err := sample.NewUrn(g, col, tab, cat)
	if err != nil {
		return nil, err
	}
	return &Engine{g: g, tab: tab, col: col, cat: cat, sig: sig, urn: urn}, nil
}

func colorK(c *coloring.Coloring) int {
	if c == nil {
		return 0
	}
	return c.K
}

// K returns the graphlet size the engine's table was built for.
func (e *Engine) K() int { return e.tab.K }

// Graph returns the host graph the engine serves.
func (e *Engine) Graph() *graph.Graph { return e.g }

// EngineStats describes an engine in one struct: graphlet size, host graph
// shape, resident table payload, and the one-time open cost it amortizes.
type EngineStats struct {
	// K is the graphlet size the table was built for.
	K int
	// Nodes and Edges describe the host graph.
	Nodes int
	Edges int64
	// TableBytes is the packed count-table payload (arenas + offset
	// indexes + smart synthesis state) regardless of where it resides;
	// HeapBytes and MappedBytes split it by residency. A heap-loaded
	// table is all HeapBytes; a mapped table is mostly MappedBytes
	// (page-cache-backed, reclaimable by the kernel) plus a small heap
	// part for the decoded smart-star state.
	TableBytes  int64
	HeapBytes   int64
	MappedBytes int64
	// OpenTime is how long Open spent loading and validating the table and
	// building the master urn (zero for engines a one-shot run built).
	OpenTime time.Duration
}

// Stats reports the engine's shape and cost in a single struct — the one
// metadata call the serving layers and the one-shot runs read.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		K:           e.tab.K,
		Nodes:       e.g.NumNodes(),
		Edges:       e.g.NumEdges(),
		TableBytes:  e.tab.Bytes(),
		HeapBytes:   e.tab.HeapBytes(),
		MappedBytes: e.tab.MappedBytes(),
		OpenTime:    e.openTime,
	}
}

// shapes prepares the AGS per-shape urns on first use.
func (e *Engine) shapes() (*ags.ShapeSet, error) {
	e.shapeOnce.Do(func() {
		e.shapeSet, e.shapeErr = ags.PrepareShapes(e.urn)
	})
	return e.shapeSet, e.shapeErr
}

// Certificate is the (ε, δ) precision certificate returned by a
// run-to-precision query; see ags.Certificate for field semantics.
type Certificate = ags.Certificate

// Query parameterizes one count query against an Engine. The zero value of
// every field except Samples is usable: naive strategy, seed 0, sequential
// sampling, the paper's cover threshold. Setting any of Epsilon, Delta,
// TargetMotif or MaxSamples switches the query into run-to-precision mode,
// which is mutually exclusive with a fixed Samples budget.
//
// Query is a comparable value: the registry's seeded-result cache keys on
// the whole struct, so every field that changes what a query computes —
// including the precision fields — must stay a comparable scalar here.
type Query struct {
	// Strategy selects naive sampling or AGS.
	Strategy Strategy
	// Samples is the sampling budget (≥ 1). Must be 0 in precision mode.
	Samples int
	// CoverThreshold is AGS's c̄ (0 means the paper's default of 1000).
	CoverThreshold int
	// Seed makes the query reproducible: an Engine query at seed s is
	// bit-identical to a one-shot Count at seed s over the same table.
	Seed int64
	// SampleWorkers parallelizes this query across urn clones (≤ 1 =
	// sequential), exactly as Config.SampleWorkers does.
	SampleWorkers int
	// BufferThreshold overrides the neighbor-buffering degree threshold
	// (0 keeps the urn's default).
	BufferThreshold int
	// Epsilon and Delta request run-to-precision AGS: keep sampling until
	// Theorem 3 certifies the estimates within relative error Epsilon at
	// confidence 1−Delta (or MaxSamples is hit). Requires Strategy == AGS
	// and Samples == 0.
	Epsilon float64
	Delta   float64
	// TargetMotif restricts the certificate to one canonical motif code;
	// the zero Code certifies every tallied motif.
	TargetMotif graphlet.Code
	// MaxSamples caps a precision run (0 means ags.DefaultPrecisionCap).
	MaxSamples int
}

// PrecisionMode reports whether any run-to-precision field is set.
func (q Query) PrecisionMode() bool {
	return q.Epsilon != 0 || q.Delta != 0 || q.MaxSamples != 0 || q.TargetMotif != (graphlet.Code{})
}

// QueryError marks an error caused by the query itself — a malformed
// budget or precision request, a target motif the engine cannot sample, a
// node outside the host graph — rather than by the engine or its table.
// Serving layers answer it as a bad request; its message is the check's.
type QueryError struct{ Err error }

func (e *QueryError) Error() string { return e.Err.Error() }

func (e *QueryError) Unwrap() error { return e.Err }

func queryErrorf(format string, args ...any) error {
	return &QueryError{fmt.Errorf(format, args...)}
}

// Validate checks the query's invariants: a known strategy, a positive
// sampling budget (or a well-formed precision request), a bounded worker
// count, and a positive cover threshold (0 meaning "the paper's default" is
// allowed). It is the single validation path shared by the engine itself,
// the one-shot runs, the registry, the HTTP layer and the CLI — a query
// that passes here is servable as-is. Its errors are *QueryError.
func (q Query) Validate() error {
	if q.Strategy != Naive && q.Strategy != AGS {
		return queryErrorf("core: unknown strategy %d", int(q.Strategy))
	}
	if q.PrecisionMode() {
		if q.Strategy != AGS {
			return queryErrorf("core: run-to-precision requires the ags strategy")
		}
		if q.Samples != 0 {
			return queryErrorf("core: a fixed Samples budget and run-to-precision are mutually exclusive")
		}
		if !(q.Epsilon > 0) || math.IsInf(q.Epsilon, 1) {
			return queryErrorf("core: precision epsilon must be positive and finite, got %v", q.Epsilon)
		}
		if !(q.Delta > 0 && q.Delta < 1) {
			return queryErrorf("core: precision delta must be in (0, 1), got %v", q.Delta)
		}
		if q.MaxSamples < 0 {
			return queryErrorf("core: max samples must be ≥ 0, got %d", q.MaxSamples)
		}
	} else if q.Samples < 1 {
		return queryErrorf("core: samples must be ≥ 1, got %d", q.Samples)
	}
	if err := ValidateSampleWorkers(q.SampleWorkers); err != nil {
		return &QueryError{err}
	}
	if q.CoverThreshold != 0 {
		if err := ValidateCoverThreshold(q.CoverThreshold); err != nil {
			return &QueryError{err}
		}
	}
	return nil
}

// validateTarget checks a non-zero target motif against the engine's k: it
// must be a canonical connected k-graphlet code, or the certificate would
// quantify over a motif the sampler can never produce.
func (e *Engine) validateTarget(q Query) error {
	if q.TargetMotif == (graphlet.Code{}) {
		return nil
	}
	if !graphlet.IsConnected(e.K(), q.TargetMotif) {
		return queryErrorf("core: target motif %v is not a connected %d-graphlet", q.TargetMotif, e.K())
	}
	if graphlet.Canonical(e.K(), q.TargetMotif) != q.TargetMotif {
		return queryErrorf("core: target motif %v is not in canonical form", q.TargetMotif)
	}
	return nil
}

// QueryResult is the outcome of one Engine query.
type QueryResult struct {
	// Counts estimates the number of induced occurrences per graphlet;
	// Frequencies is Counts normalized to sum to 1.
	Counts      estimate.Counts
	Frequencies estimate.Counts
	// Samples is the number of draws made; Covered the number of
	// AGS-covered graphlets (0 under the naive strategy).
	Samples int
	Covered int
	// Achieved is the precision certificate of a run-to-precision query
	// (nil for fixed-budget queries).
	Achieved *Certificate
	// SampleTime is the wall-clock sampling duration of this query.
	SampleTime time.Duration
}

// Count serves one query: one sampling run (draw) on an urn clone with the
// query's own RNG stream, then the estimate — the naive estimator over the
// run's tallies, or the estimates AGS computed as it sampled. It honors
// ctx — cancellation or a deadline stops the sampling loops promptly — and
// is safe to call from any number of goroutines concurrently. Its draw
// sequence follows q.SampleWorkers.
func (e *Engine) Count(ctx context.Context, q Query) (*QueryResult, error) {
	res, tallies, err := e.draw(ctx, q, 0, nil)
	if err != nil {
		return nil, err
	}
	if res.Counts == nil { // naive: estimate from the tallies
		start := time.Now()
		res.Counts, err = estimate.Naive(tallies, int64(res.Samples), e.urn.Total().Float64(), e.sig, e.col.PColorful)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		res.SampleTime += time.Since(start)
	}
	res.Frequencies = estimate.Frequencies(res.Counts)
	return &res, nil
}

// draw is the one sampling run behind Count and Signatures. It validates
// q against the engine, clones the master urn, derives the query's RNG
// stream from its seed and runs the strategy, returning the run's
// samples, coverage, certificate and time, its raw per-motif tallies and,
// for AGS, its estimates in Counts (naive leaves Counts nil). streams fixes
// the naive decomposition (0 follows SampleWorkers; AGS uses it as its
// virtual worker count) and observe, when non-nil, receives every draw's
// vertices with its stream index. An empty urn draws nothing: every
// graphlet estimates to zero and a precision query certifies nothing.
func (e *Engine) draw(ctx context.Context, q Query, streams int, observe func(stream int, code graphlet.Code, nodes []int32)) (QueryResult, map[graphlet.Code]int64, error) {
	if err := q.Validate(); err != nil {
		return QueryResult{}, nil, err
	}
	if err := e.validateTarget(q); err != nil {
		return QueryResult{}, nil, err
	}
	if err := ctx.Err(); err != nil {
		return QueryResult{}, nil, err
	}
	if e.urn.Empty() {
		// An unlucky coloring of a tiny graph: every graphlet estimates to
		// zero, which is what the estimator semantics prescribe. A precision
		// query still reports a certificate — an empty urn certifies nothing.
		res := QueryResult{Counts: make(estimate.Counts)}
		if q.PrecisionMode() {
			res.Achieved = &Certificate{Eps: math.Inf(1), Delta: q.Delta}
		}
		return res, make(map[graphlet.Code]int64), nil
	}
	urn := e.urn.Clone()
	if q.BufferThreshold > 0 {
		urn.BufferThreshold = q.BufferThreshold
	}
	var (
		ss      *ags.ShapeSet
		res     QueryResult
		tallies map[graphlet.Code]int64
		err     error
	)
	// Prepare the (lazily built, engine-wide) AGS shape urns before the
	// sampling clock starts: the first AGS query must not report one-time
	// engine setup as its own sampling time.
	if q.Strategy == AGS {
		if ss, err = e.shapes(); err != nil {
			return QueryResult{}, nil, err
		}
	}
	rng := rand.New(rand.NewSource(q.Seed ^ 0x5DEECE66D))
	start := time.Now()
	switch q.Strategy {
	case Naive:
		if streams == 0 {
			streams = q.SampleWorkers
		}
		if tallies, err = naiveTallies(ctx, urn, q.Samples, q.SampleWorkers, streams, rng, observe); err != nil {
			return QueryResult{}, nil, err
		}
		res.Samples = q.Samples
	case AGS:
		aopts := ags.Options{
			CoverThreshold: q.CoverThreshold,
			Rng:            rng,
			Workers:        q.SampleWorkers,
			VirtualWorkers: streams,
			Observe:        observe,
			Shapes:         ss,
		}
		if aopts.CoverThreshold == 0 {
			aopts.CoverThreshold = 1000
		}
		if q.PrecisionMode() {
			aopts.Precision = &ags.Precision{
				Eps:        q.Epsilon,
				Delta:      q.Delta,
				Target:     q.TargetMotif,
				MaxSamples: q.MaxSamples,
			}
		} else {
			aopts.Budget = q.Samples
		}
		out, err := ags.Run(ctx, urn, aopts)
		if err != nil {
			return QueryResult{}, nil, err
		}
		tallies = out.Tallies
		res.Counts = out.Estimates
		res.Samples = out.Samples
		res.Covered = out.Covered
		res.Achieved = out.Achieved
	}
	res.SampleTime = time.Since(start)
	return res, tallies, nil
}

// Benchmarks: one testing.B target per table/figure of the paper's
// evaluation, exercising the code path that experiment measures on a
// reduced fixed workload. `go run ./cmd/experiments` regenerates the full
// tables; these benches track regressions of the underlying primitives.
package motivo

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/ags"
	"repro/internal/build"
	"repro/internal/ccbaseline"
	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphlet"
	"repro/internal/sample"
	"repro/internal/table"
	"repro/internal/treelet"
	"repro/internal/u128"
)

// benchGraph is the shared small workload: heavy-tailed, ~9k edges.
func benchGraph() *graph.Graph { return gen.BarabasiAlbert(3000, 3, 1001) }

// hubGraph triggers neighbor buffering.
func hubGraph() *graph.Graph { return gen.StarHeavy(1, 3000, 200, 1003) }

func buildFor(b *testing.B, g *graph.Graph, k int, zeroRooted bool, workers int) (*coloring.Coloring, *treelet.Catalog, *buildOut) {
	b.Helper()
	col := coloring.Uniform(g.NumNodes(), k, 1007)
	cat := treelet.NewCatalog(k)
	opts := build.DefaultOptions()
	opts.ZeroRooted = zeroRooted
	opts.Workers = workers
	tab, stats, err := build.Run(context.Background(), g, col, k, cat, opts)
	if err != nil {
		b.Fatal(err)
	}
	return col, cat, &buildOut{tab, stats}
}

type buildOut struct {
	tab   *table.Table
	stats *build.Stats
}

// --- Figure 2: check-and-merge, succinct vs pointer treelets ------------

func BenchmarkFig2CheckMergeSuccinct(b *testing.B) {
	g := benchGraph()
	col := coloring.Uniform(g.NumNodes(), 5, 1007)
	cat := treelet.NewCatalog(5)
	b.ResetTimer()
	var ops int64
	for i := 0; i < b.N; i++ {
		opts := build.DefaultOptions()
		opts.ZeroRooted = false
		opts.Workers = 1
		_, stats, err := build.Run(context.Background(), g, col, 5, cat, opts)
		if err != nil {
			b.Fatal(err)
		}
		ops += stats.CheckMergeOps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops), "ns/checkmerge")
}

func BenchmarkFig2CheckMergePointerCC(b *testing.B) {
	g := benchGraph()
	col := coloring.Uniform(g.NumNodes(), 5, 1007)
	b.ResetTimer()
	var ops int64
	for i := 0; i < b.N; i++ {
		_, stats, err := ccbaseline.Build(g, col, 5)
		if err != nil {
			b.Fatal(err)
		}
		ops += stats.CheckMergeOps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops), "ns/checkmerge")
}

// --- Figure 3 / §5.1 build table: full build, motivo vs CC --------------

func BenchmarkFig3BuildMotivo(b *testing.B) {
	g := benchGraph()
	col := coloring.Uniform(g.NumNodes(), 5, 1009)
	cat := treelet.NewCatalog(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := build.DefaultOptions()
		opts.ZeroRooted = false
		if _, _, err := build.Run(context.Background(), g, col, 5, cat, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3BuildCC(b *testing.B) {
	g := benchGraph()
	col := coloring.Uniform(g.NumNodes(), 5, 1009)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ccbaseline.Build(g, col, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3BuildMotivoSpill(b *testing.B) {
	g := benchGraph()
	col := coloring.Uniform(g.NumNodes(), 5, 1009)
	cat := treelet.NewCatalog(5)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := build.DefaultOptions()
		opts.SpillDir = dir
		if _, _, err := build.Run(context.Background(), g, col, 5, cat, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 4: 0-rooting ------------------------------------------------

func BenchmarkFig4ZeroRootingOff(b *testing.B) {
	g := benchGraph()
	col := coloring.Uniform(g.NumNodes(), 5, 1013)
	cat := treelet.NewCatalog(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := build.DefaultOptions()
		opts.ZeroRooted = false
		if _, _, err := build.Run(context.Background(), g, col, 5, cat, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4ZeroRootingOn(b *testing.B) {
	g := benchGraph()
	col := coloring.Uniform(g.NumNodes(), 5, 1013)
	cat := treelet.NewCatalog(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := build.Run(context.Background(), g, col, 5, cat, build.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 5 / §5.1 sampling table: samples/s --------------------------

func benchSampling(b *testing.B, g *graph.Graph, bufferThreshold int) {
	b.Helper()
	col, cat, out := buildFor(b, g, 5, true, 0)
	urn, err := sample.NewUrn(g, col, out.tab, cat)
	if err != nil {
		b.Fatal(err)
	}
	urn.BufferThreshold = bufferThreshold
	rng := rand.New(rand.NewSource(1017))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		urn.Sample(rng)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

func BenchmarkFig5SamplingBuffered(b *testing.B)   { benchSampling(b, hubGraph(), 1000) }
func BenchmarkFig5SamplingUnbuffered(b *testing.B) { benchSampling(b, hubGraph(), 1<<30) }

func BenchmarkTableSamplingMotivo(b *testing.B) { benchSampling(b, benchGraph(), 1000) }

func BenchmarkTableSamplingCC(b *testing.B) {
	g := benchGraph()
	col := coloring.Uniform(g.NumNodes(), 5, 1007)
	tab, _, err := ccbaseline.Build(g, col, 5)
	if err != nil {
		b.Fatal(err)
	}
	smp, err := ccbaseline.NewSampler(g.Neighbors, g.HasEdge, g.Degree, tab)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1017))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		smp.Sample(rng)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// --- Figure 6: biased coloring build ------------------------------------

func BenchmarkFig6BuildUniform(b *testing.B) {
	g := benchGraph()
	cat := treelet.NewCatalog(5)
	col := coloring.Uniform(g.NumNodes(), 5, 1019)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := build.Run(context.Background(), g, col, 5, cat, build.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6BuildBiased(b *testing.B) {
	g := benchGraph()
	cat := treelet.NewCatalog(5)
	col := coloring.Biased(g.NumNodes(), 5, 0.12, 1019)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := build.Run(context.Background(), g, col, 5, cat, build.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 7: build scaling in k ---------------------------------------

func BenchmarkFig7Scaling(b *testing.B) {
	g := benchGraph()
	for k := 4; k <= 6; k++ {
		k := k
		b.Run(string(rune('0'+k))+"k", func(b *testing.B) {
			col := coloring.Uniform(g.NumNodes(), k, 1021)
			cat := treelet.NewCatalog(k)
			b.ResetTimer()
			var bytes int64
			for i := 0; i < b.N; i++ {
				_, stats, err := build.Run(context.Background(), g, col, k, cat, build.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				bytes = stats.TableBytes
			}
			b.ReportMetric(float64(bytes)*8/float64(g.NumNodes()), "bits/node")
		})
	}
}

// --- Figures 8–10 / §5.2–5.3: estimator pipelines -----------------------

func BenchmarkFig8NaivePipeline(b *testing.B) {
	g := benchGraph()
	col, cat, out := buildFor(b, g, 5, true, 0)
	urn, err := sample.NewUrn(g, col, out.tab, cat)
	if err != nil {
		b.Fatal(err)
	}
	sig := estimate.NewSigma(5)
	rng := rand.New(rand.NewSource(1023))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tallies := make(map[graphlet.Code]int64)
		for s := 0; s < 2000; s++ {
			code, _ := urn.Sample(rng)
			tallies[code]++
		}
		if _, err := estimate.Naive(tallies, 2000, urn.Total().Float64(), sig, col.PColorful); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8AGSPipeline(b *testing.B) {
	g := hubGraph()
	col, cat, out := buildFor(b, g, 5, true, 0)
	_ = col
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		urn, err := sample.NewUrn(g, col, out.tab, cat)
		if err != nil {
			b.Fatal(err)
		}
		_, err = ags.Run(context.Background(), urn, ags.Options{
			CoverThreshold: 200,
			Budget:         2000,
			Rng:            rand.New(rand.NewSource(int64(1031 + i))),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*2000)/b.Elapsed().Seconds(), "samples/s")
}

// --- Parallel AGS: epoch-based sampling across urn clones ---------------

// benchAGS measures end-to-end AGS sampling throughput (build excluded)
// on the shared benchGraph workload; the parallel variants fan the same
// budget across per-worker shape-urn clones with epoch barriers.
func benchAGS(b *testing.B, workers int) {
	g := benchGraph()
	col, cat, out := buildFor(b, g, 5, true, 0)
	urn, err := sample.NewUrn(g, col, out.tab, cat)
	if err != nil {
		b.Fatal(err)
	}
	const budget = 20000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := ags.Run(context.Background(), urn.Clone(), ags.Options{
			CoverThreshold: 200,
			Budget:         budget,
			Workers:        workers,
			Rng:            rand.New(rand.NewSource(int64(2001 + i))),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*budget)/b.Elapsed().Seconds(), "samples/s")
}

func BenchmarkAGSSequential(b *testing.B) { benchAGS(b, 1) }

func BenchmarkAGSParallel(b *testing.B) {
	for _, w := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchAGS(b, w) })
	}
}

// --- Storage engine: packed table size and build/open -------------------

// storageGraph is the benchmark ER workload of the size acceptance test.
func storageGraph() *graph.Graph { return gen.ErdosRenyi(800, 2400, 1033) }

// BenchmarkTableBytesPerPair tracks the packed table's memory footprint:
// bytes/pair is the succinctness headline (the dense slice layout was 24)
// and totalKB the whole-table size, so BENCH_ci.json records memory
// regressions alongside time. The smartstars arm synthesizes the star
// family from degree summaries (stored pairs shrink AND total bytes drop
// ≥2x, the smart-star headline); materialized is the pre-smart layout.
func BenchmarkTableBytesPerPair(b *testing.B) {
	g := storageGraph()
	col := coloring.Uniform(g.NumNodes(), 5, 1007)
	cat := treelet.NewCatalog(5)
	for _, bm := range []struct {
		name  string
		smart bool
	}{
		{"smartstars", true},
		{"materialized", false},
	} {
		b.Run(bm.name, func(b *testing.B) {
			var bytes, pairs int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts := build.DefaultOptions()
				opts.SmartStars = bm.smart
				_, stats, err := build.Run(context.Background(), g, col, 5, cat, opts)
				if err != nil {
					b.Fatal(err)
				}
				bytes, pairs = stats.TableBytes, stats.Pairs
			}
			b.ReportMetric(float64(bytes)/float64(pairs), "bytes/pair")
			b.ReportMetric(float64(bytes)/1024, "totalKB")
		})
	}
}

// BenchmarkSmartSynthesis is the table-layer rung of smart-star synthesis
// on the k=6 storage graph (built without 0-rooting, so every node has a
// size-k record), with a fresh SynthCache per op. record walks every
// node's size-k record with View.Each — the whole-record read, which
// computes each neighbor sum of the node once; shape runs one ShapeEach
// per node, cycling through the synthesized size-k shapes — the single
// lookup, computing only the sums one shape reads. ns/record is per node
// visited.
func BenchmarkSmartSynthesis(b *testing.B) {
	g := storageGraph()
	k := 6
	col := coloring.Uniform(g.NumNodes(), k, 1007)
	cat := treelet.NewCatalog(k)
	opts := build.DefaultOptions()
	opts.ZeroRooted = false
	tab, _, err := build.Run(context.Background(), g, col, k, cat, opts)
	if err != nil {
		b.Fatal(err)
	}
	var shapes []treelet.Treelet
	for _, t := range cat.BySize[k] {
		if cat.Height(t) <= 2 {
			shapes = append(shapes, t)
		}
	}
	sink := func(treelet.Colored, u128.Uint128) bool { return true }
	for _, arm := range []struct {
		name string
		read func(vw table.View, v int)
	}{
		{"record", func(vw table.View, _ int) { vw.Each(sink) }},
		{"shape", func(vw table.View, v int) { vw.ShapeEach(shapes[v%len(shapes)], sink) }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cache := table.NewSynthCache()
				for v := 0; v < tab.N; v++ {
					arm.read(tab.Rec(k, int32(v)).WithCache(cache), v)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tab.N), "ns/record")
		})
	}
}

// BenchmarkBuildSmartStars vs BenchmarkBuildMaterializedStars track the
// build-phase half of the smart-star trade at the acceptance scenario
// (k=6 on the storage ER graph): the smart build skips the DP for every
// height-≤2 shape (check-and-merge ops drop ~2.3x) but synthesizes its DP
// inputs on read; the regression pipeline watches both arms so neither
// side of the trade silently rots.
func benchBuildStars(b *testing.B, smart bool) {
	g := storageGraph()
	k := 6
	col := coloring.Uniform(g.NumNodes(), k, 1007)
	cat := treelet.NewCatalog(k)
	var bytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := build.DefaultOptions()
		opts.SmartStars = smart
		_, stats, err := build.Run(context.Background(), g, col, k, cat, opts)
		if err != nil {
			b.Fatal(err)
		}
		bytes = stats.TableBytes
	}
	b.ReportMetric(float64(bytes)/1024, "tableKB")
}

func BenchmarkBuildSmartStars(b *testing.B)        { benchBuildStars(b, true) }
func BenchmarkBuildMaterializedStars(b *testing.B) { benchBuildStars(b, false) }

// benchBuiltTable builds the storage workload once, for the save/open
// benches.
func benchBuiltTable(b *testing.B) (*table.Table, *coloring.Coloring) {
	b.Helper()
	g := storageGraph()
	col := coloring.Uniform(g.NumNodes(), 5, 1007)
	tab, _, err := build.Run(context.Background(), g, col, 5, treelet.NewCatalog(5), build.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return tab, col
}

// BenchmarkTableSave measures persisting the arena + index to disk (the
// "build once" half of the serving workflow).
func BenchmarkTableSave(b *testing.B) {
	tab, col := benchBuiltTable(b)
	path := b.TempDir() + "/bench.tbl"
	var n int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if n, err = table.SaveFile(path, tab, col); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(n)
}

// BenchmarkTableOpen measures opening a persisted table — the cost every
// "query many" run pays instead of a build (compare BenchmarkFig3BuildMotivo).
// The heap path reads, copies and validates every level; the mapped path
// parses only the header and level directory, so it stays O(ms) no matter
// the arena size (the ISSUE 8 startup claim; this family feeds the
// regression gate).
func BenchmarkTableOpen(b *testing.B) {
	tab, col := benchBuiltTable(b)
	path := b.TempDir() + "/bench.tbl"
	n, err := table.SaveFile(path, tab, col)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("heap", func(b *testing.B) {
		b.SetBytes(n)
		for i := 0; i < b.N; i++ {
			if _, _, err := table.LoadFile(path); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mapped", func(b *testing.B) {
		if mt, _, err := table.OpenMapped(path); err != nil {
			b.Skipf("mapping unavailable here: %v", err)
		} else {
			mt.Close()
		}
		b.SetBytes(n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mt, _, err := table.OpenMapped(path)
			if err != nil {
				b.Fatal(err)
			}
			// Close per iteration: finalizers run too late to keep a tight
			// open loop under the kernel's per-process mapping limit.
			mt.Close()
		}
	})
}

// --- Batched sampling hot path: the k=6 acceptance workload --------------

// servingTable6 persists the ER storage workload's k=6 table once — the
// graph/size pair of the batching acceptance criterion (ISSUE 7): records
// are large enough that per-draw varint decode dominates an unamortized
// sampler.
func servingTable6(b *testing.B) (*graph.Graph, string) {
	b.Helper()
	g := storageGraph()
	path := b.TempDir() + "/serving6.tbl"
	if _, _, err := core.BuildTable(g, core.Config{K: 6, Seed: 1007}, path); err != nil {
		b.Fatal(err)
	}
	return g, path
}

// BenchmarkEngineQueryBatched measures end-to-end sampling throughput of
// the batched hot path at k=6: one long-lived engine, repeated queries,
// samples/s as the headline metric. This family is the floor recorded in
// BENCH_baseline.json — the benchjson -compare CI gate fails when its
// samples/s regresses, so the batching win cannot silently rot.
func BenchmarkEngineQueryBatched(b *testing.B) {
	g, path := servingTable6(b)
	eng, err := core.Open(g, path)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	const budget = 2000
	for _, bm := range []struct {
		name string
		q    core.Query
	}{
		{"naive", core.Query{Samples: budget, Seed: 1009}},
		{"ags", core.Query{Strategy: core.AGS, Samples: budget, CoverThreshold: 200, Seed: 1009}},
		{"naive-workers4", core.Query{Samples: budget, Seed: 1009, SampleWorkers: 4}},
	} {
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Count(ctx, bm.q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*budget)/b.Elapsed().Seconds(), "samples/s")
		})
	}
}

// BenchmarkEngineOpen measures core.Open on the k=6 table: table load +
// validation + master-urn construction — the alias-build tail that engine
// open parallelizes. ms/open feeds the regression gate so OpenTime cannot
// silently creep back up.
func BenchmarkEngineOpen(b *testing.B) {
	g, path := servingTable6(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Open(g, path); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, "ms/open")
}

// BenchmarkEngineReopen measures core.OpenMode on the k=6 table per map
// mode — the LRU-eviction reopen cost a multi-tenant server pays every
// time a cold graph is queried. The mapped reopen skips the level read,
// copy and validation entirely, which is what makes eviction cheap enough
// to run with a tight memory budget. ms/open feeds the regression gate.
func BenchmarkEngineReopen(b *testing.B) {
	g, path := servingTable6(b)
	for _, bm := range []struct {
		name string
		mode core.MapMode
	}{
		{"heap", core.MapOff},
		{"mapped", core.MapRequire},
	} {
		b.Run(bm.name, func(b *testing.B) {
			if _, err := core.OpenMode(g, path, bm.mode); err != nil {
				b.Skipf("open mode %v unavailable here: %v", bm.mode, err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.OpenMode(g, path, bm.mode); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, "ms/open")
		})
	}
}

// BenchmarkEnginePrepareShapes measures ags.PrepareShapes on a k=6 table:
// the per-shape alias construction that used to cost one table pass per
// shape and now runs as a single bulk (and parallel) weighting pass —
// the dominant tail of a long-lived engine's first AGS query. ms/prepare
// feeds the regression gate.
func BenchmarkEnginePrepareShapes(b *testing.B) {
	g := storageGraph()
	col, cat, out := buildFor(b, g, 6, true, 0)
	urn, err := sample.NewUrn(g, col, out.tab, cat)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ags.PrepareShapes(urn); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, "ms/prepare")
}

// --- Billion-edge ingest: streaming loaders & bounded-memory build ------

// plainReader hides Seek so ReadEdgeList takes the legacy buffered path.
type plainReader struct{ io.Reader }

// BenchmarkReadEdgeList compares the two edge-list ingest paths on the
// same serialized graph: the streaming arm reads the input twice but
// allocates only the final CSR plus the id remap, the buffered arm reads
// once into an O(m) edge buffer. MB/s is the headline; allocs/op shows
// the memory trade the streaming reader exists for.
func BenchmarkReadEdgeList(b *testing.B) {
	var buf bytes.Buffer
	if err := benchGraph().WriteEdgeList(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	for _, bm := range []struct {
		name string
		open func() io.Reader
	}{
		{"streaming", func() io.Reader { return bytes.NewReader(data) }},
		{"buffered", func() io.Reader { return plainReader{bytes.NewReader(data)} }},
	} {
		b.Run(bm.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := graph.ReadEdgeList(bm.open()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildSharded is the gated build rung, on the k=6 acceptance
// workload: both arms run the one sharded level pass, the unbounded arm
// with in-RAM shard sinks and the budget arm with per-shard spill files
// and a capped memo. The tables are bit-identical (pinned by
// TestBudgetBuildBitIdentical); what this family watches is the pass
// itself and what spilling and the merge add on top. Both arms pin two
// workers, so the shared work queue runs even when the gate measures at
// GOMAXPROCS=1.
func BenchmarkBuildSharded(b *testing.B) {
	g := storageGraph()
	k := 6
	col := coloring.Uniform(g.NumNodes(), k, 1007)
	cat := treelet.NewCatalog(k)
	dir := b.TempDir()
	for _, bm := range []struct {
		name   string
		budget int64
	}{
		{"unbounded", 0},
		{"budget", 16 << 20},
	} {
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			var spilled int64
			for i := 0; i < b.N; i++ {
				opts := build.DefaultOptions()
				opts.Workers = 2
				opts.MemBudget = bm.budget
				if bm.budget > 0 {
					// SpillDir alone would send shards to disk too; only
					// the budget arm should touch it.
					opts.SpillDir = dir
				}
				_, stats, err := build.Run(context.Background(), g, col, k, cat, opts)
				if err != nil {
					b.Fatal(err)
				}
				spilled = stats.SpillBytes
			}
			b.ReportMetric(float64(spilled)/1024, "spillKB")
		})
	}
}

// --- Ground truth (ESCAPE stand-in) -------------------------------------

func BenchmarkExactESU(b *testing.B) {
	g := gen.ErdosRenyi(800, 2400, 1033)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exact.Count(g, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the succinct primitives ------------------------

func BenchmarkTreeletMergeDecomp(b *testing.B) {
	cat := treelet.NewCatalog(8)
	ts := cat.BySize[8]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := ts[i%len(ts)]
		tpp, tp := t.Decomp()
		if treelet.Merge(tp, tpp) != t {
			b.Fatal("merge/decomp mismatch")
		}
	}
}

func BenchmarkGraphletCanonical(b *testing.B) {
	rng := rand.New(rand.NewSource(1037))
	codes := make([]graphlet.Code, 256)
	for i := range codes {
		for {
			c := graphlet.Code{Lo: rng.Uint64() & (1<<15 - 1)} // k=6
			if graphlet.IsConnected(6, c) {
				codes[i] = c
				break
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graphlet.Canonical(6, codes[i%len(codes)])
	}
}

func BenchmarkSpanningTreeShapes(b *testing.B) {
	cat := treelet.NewCatalog(6)
	c := graphlet.FromGraph(gen.Complete(6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graphlet.SpanningTreeShapes(6, c, cat)
	}
}

// --- Engine: amortized query sessions vs cold one-shot queries -----------

// servingTable persists the storage workload's table once for the serving
// benchmarks.
func servingTable(b *testing.B) (*graph.Graph, string) {
	b.Helper()
	g := storageGraph()
	path := b.TempDir() + "/serving.tbl"
	if _, _, err := core.BuildTable(g, core.Config{K: 5, Seed: 1007}, path); err != nil {
		b.Fatal(err)
	}
	return g, path
}

// servingQueryBudget is deliberately small: the point of these benchmarks
// is the per-query *setup* cost (table open + urn construction vs an O(1)
// clone), which a huge sampling budget would drown out.
const servingQueryBudget = 200

// BenchmarkColdCount is the pre-engine serving shape: every query re-opens
// the persisted table, re-validates it and rebuilds the urn's alias tables
// before sampling. Compare ns/op and allocs/op against
// BenchmarkEngineQuery — the gap is the per-query setup cost the Engine
// amortizes away.
func BenchmarkColdCount(b *testing.B) {
	g, path := servingTable(b)
	cfg := core.Config{
		K: 5, Colorings: 1, SamplesPerColoring: servingQueryBudget,
		Seed: 1009, TablePath: path,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Count(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, "ms/query")
}

// BenchmarkEngineQuery serves the same query from a long-lived engine: the
// table open and urn construction happened once in core.Open, so each
// iteration pays only an O(1) urn clone plus the sampling itself.
func BenchmarkEngineQuery(b *testing.B) {
	g, path := servingTable(b)
	eng, err := core.Open(g, path)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	q := core.Query{Samples: servingQueryBudget, Seed: 1009}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Count(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, "ms/query")
}

// BenchmarkEngineQueryAGS tracks the adaptive arm of the serving path,
// including the amortized per-shape urns (prepared once per engine, cloned
// per query).
func BenchmarkEngineQueryAGS(b *testing.B) {
	g, path := servingTable(b)
	eng, err := core.Open(g, path)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	q := core.Query{Strategy: core.AGS, Samples: servingQueryBudget, CoverThreshold: 200, Seed: 1009}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Count(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, "ms/query")
}

// BenchmarkSignatures tracks the per-node signatures path: the same AGS
// sampling as BenchmarkEngineQueryAGS plus the per-draw vertex-incidence
// streaming and the final vector assembly. Ungated: a new family has no
// committed baseline yet.
func BenchmarkSignatures(b *testing.B) {
	g, path := servingTable(b)
	eng, err := core.Open(g, path)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	q := core.Query{Strategy: core.AGS, Samples: servingQueryBudget, CoverThreshold: 200, Seed: 1009}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Signatures(ctx, q, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, "ms/query")
}

// BenchmarkRunToPrecision tracks run-to-precision AGS: epochs of drawing
// plus the periodic Theorem 3 certification check until the loose target
// certifies (or the cap stops the run). Ungated: new family, no baseline.
func BenchmarkRunToPrecision(b *testing.B) {
	g, path := servingTable(b)
	eng, err := core.Open(g, path)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	q := core.Query{
		Strategy: core.AGS, CoverThreshold: 200, Seed: 1009,
		Epsilon: 0.5, Delta: 0.1, MaxSamples: servingQueryBudget,
	}
	b.ReportAllocs()
	b.ResetTimer()
	var samples int
	for i := 0; i < b.N; i++ {
		res, err := eng.Count(ctx, q)
		if err != nil {
			b.Fatal(err)
		}
		samples = res.Samples
	}
	b.ReportMetric(float64(samples), "samples/run")
}

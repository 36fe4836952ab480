package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/ags"
	"repro/internal/build"
	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/graph"
	"repro/internal/graphlet"
	"repro/internal/registry"
	"repro/internal/sample"
	"repro/internal/table"
	"repro/internal/treelet"
)

// ladderInput is what a workload hands the per-layer ladder.
type ladderInput struct {
	// sources are the workload's graphs and tables; the graph, build,
	// table, sample and AGS probes run on the first.
	sources []*source
	mapMode core.MapMode // how the workload's engines open tables
	budget  int64        // MemBudget of the ladder's bounded build
	// perKind is how many requests of each kind are replayed, taken in
	// order from replays.
	perKind int
	// probeSamples is the budget of the probe queries the ladder adds for
	// any of naive, AGS or signatures the workload's traffic lacks.
	probeSamples int
	replays      []replay
	served       *server // the workload's server; nil when it has none
}

// ladder measures every layer on the workload's own inputs, from timed
// calls the benchmark makes into each package: probes of the graph,
// build, table, sample and AGS layers, then a replay of the run's first
// requests of each kind down the serving stack (HTTP, registry.Count,
// core.Engine.Count, ags.Run or Urn.SampleBatch plus estimate.Naive) on a
// second registry over the same files, so the served counters are left
// alone. Self times are one layer's call minus the next one down for the
// same request.
func ladder(ctx context.Context, in *ladderInput, ph *phase, tr *tracer) ([]metric, error) {
	dir, err := os.MkdirTemp("", "ladder-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	l := &ladderRun{ctx: ctx, tr: tr}
	p := in.sources[0]

	l.timed("graph", "open", 3, func(context.Context) error {
		_, err := graph.Open(p.graphPath, graph.OpenAuto)
		return err
	})

	// Build: one unbounded and one bounded-memory build of the primary.
	var ub, bb *build.Stats
	l.once("build", "unbounded", func(ctx context.Context) (err error) {
		ub, _, err = buildTable(ctx, p.g, p.k, p.seed, 0, filepath.Join(dir, "unbounded.tbl"))
		return err
	})
	l.once("build", "budget", func(ctx context.Context) (err error) {
		bb, _, err = buildTable(ctx, p.g, p.k, p.seed, in.budget, filepath.Join(dir, "budget.tbl"))
		return err
	})
	if l.err != nil {
		return nil, l.err
	}
	var upper time.Duration
	for _, d := range ub.LevelTime[min(5, len(ub.LevelTime)):] {
		upper += d
	}
	l.add("build.first_pass_s", ub.LevelTime[min(4, p.k)].Seconds(), "s")
	l.add("build.upper_passes_s", upper.Seconds(), "s")
	l.add("build.checkmerge_ns", ratio(float64(ub.Duration.Nanoseconds()), float64(ub.CheckMergeOps)), "ns")
	l.add("build.spill_mib", float64(bb.SpillBytes)/mib, "MiB")
	l.add("build.budget_overhead_s", (bb.Duration - ub.Duration).Seconds(), "s")

	// Table: open both ways, verify, save, and sample single records.
	var (
		tab *table.Table
		col *coloring.Coloring
	)
	l.timed("table", "open_heap", 3, func(context.Context) (err error) {
		tab, col, err = table.LoadFile(p.tablePath)
		return err
	})
	if l.err != nil {
		return nil, l.err
	}
	l.timed("table", "open_mapped", 3, func(context.Context) error {
		t, _, err := table.OpenMapped(p.tablePath)
		if err != nil {
			return err
		}
		return t.Close()
	})
	var verify []time.Duration
	for i := 0; i < 3 && l.err == nil; i++ {
		t, _, err := table.OpenMapped(p.tablePath)
		if err != nil {
			return nil, err
		}
		d, err := l.span("table", "verify", func(context.Context) error { return t.Verify() })
		t.Close()
		if err != nil {
			return nil, fmt.Errorf("table.verify: %w", err)
		}
		verify = append(verify, d)
	}
	l.add("table.verify_ms", median(millis(verify)), "ms")
	l.timed("table", "save", 1, func(context.Context) error {
		_, err := table.SaveFile(filepath.Join(dir, "saved.tbl"), tab, col)
		return err
	})
	if l.err != nil {
		return nil, l.err
	}
	l.add("table.stored_pairs", float64(tab.Pairs()), "count")
	l.add("table.bytes_per_pair", ratio(float64(p.size), float64(tab.Pairs())), "B")
	if err := tab.AttachGraph(p.g); err != nil {
		return nil, err
	}
	l.recordSampling(tab, p.k)

	// Sample and AGS: urn construction, draws with warm and cold caches,
	// shape preparation.
	cat := treelet.NewCatalog(p.k)
	var urn *sample.Urn
	l.timed("sample", "newurn", 3, func(context.Context) (err error) {
		urn, err = sample.NewUrn(p.g, col, tab, cat)
		return err
	})
	if l.err != nil {
		return nil, l.err
	}
	if urn.Empty() {
		return nil, errors.New("the primary table's urn is empty")
	}
	l.recordDraws(p, col, tab, cat, urn, in.probeSamples)
	l.timed("ags", "prepare_shapes", 3, func(context.Context) error {
		_, err := ags.PrepareShapes(urn)
		return err
	})
	l.timed("core", "open", 3, func(context.Context) error {
		_, err := core.OpenMode(p.g, p.tablePath, in.mapMode)
		return err
	})
	if l.err != nil {
		return nil, l.err
	}

	// The serving stack, replayed request by request.
	reg := registry.New(registry.Config{CacheSize: 1024, MapTable: in.mapMode})
	for _, s := range in.sources {
		if _, err := reg.Open(s.name, s.g, s.tablePath); err != nil {
			return nil, err
		}
	}
	srv, err := startServer(reg, 1)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	srv.tr.Store(tr)
	rp := &replayer{l: l, in: in, reg: reg, srv: srv, urns: map[string]*replayUrn{}}
	if err := rp.run(ctx, pickReplays(in)); err != nil {
		return nil, err
	}
	l.timed("registry", "reopen", 3, func(ctx context.Context) error {
		reg.Evict(p.name)
		_, err := reg.Get(ctx, p.name)
		return err
	})
	if l.err != nil {
		return nil, l.err
	}
	rp.report()

	// Counters of the served traffic (the replay server's own when the
	// workload serves nothing over HTTP).
	from := in.served
	if from == nil {
		from = srv
	}
	c, err := from.counters(ctx)
	if err != nil {
		return nil, err
	}
	hits, misses := c["motivo_result_cache_hits_total"], c["motivo_result_cache_misses_total"]
	l.add("registry.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	l.add("registry.evictions_per_kreq", ratio(1000*c["motivo_engine_evictions_total"], c["motivo_queries_total"]), "count")
	l.add("serve.rejected", c["motivo_rejected_total"], "count")
	l.add("loadgen.lag_p99_ms", percentile(millis(ph.lag), 99), "ms")
	return l.m, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ladderRun accumulates the ladder's metrics and its first error.
type ladderRun struct {
	ctx context.Context
	tr  *tracer
	m   []metric
	err error
}

func (l *ladderRun) add(name string, v float64, unit string) {
	l.m = append(l.m, metric{name, v, unit})
}

// timed calls fn reps times, each inside a root span layer.name, and
// records the median as layer.name_ms.
func (l *ladderRun) timed(layer, name string, reps int, fn func(context.Context) error) {
	var ds []time.Duration
	for i := 0; i < reps && l.err == nil; i++ {
		d, err := l.span(layer, name, fn)
		if err != nil {
			l.err = fmt.Errorf("%s.%s: %w", layer, name, err)
			return
		}
		ds = append(ds, d)
	}
	l.add(layer+"."+name+"_ms", median(millis(ds)), "ms")
}

// once calls fn once inside a root span, recording nothing itself.
func (l *ladderRun) once(layer, name string, fn func(context.Context) error) {
	if l.err != nil {
		return
	}
	if _, err := l.span(layer, name, fn); err != nil {
		l.err = fmt.Errorf("%s.%s: %w", layer, name, err)
	}
}

func (l *ladderRun) span(layer, name string, fn func(context.Context) error) (time.Duration, error) {
	ctx, s := l.tr.open(l.ctx, layer, name, 0)
	t0 := time.Now()
	err := fn(ctx)
	d := time.Since(t0)
	l.tr.close(s)
	return d, err
}

// recordSampling times single-record draws at size k: from packed
// records as stored, and from the same nodes' records once decoded.
func (l *ladderRun) recordSampling(tab *table.Table, k int) {
	var recs []table.View
	step := max(1, tab.N/4096)
	for v := 0; v < tab.N && len(recs) < 512; v += step {
		if vw := tab.Rec(k, int32(v)); vw.Packed().Len() > 0 {
			recs = append(recs, vw)
		}
	}
	const draws = 64
	rng := rand.New(rand.NewSource(1))
	t0 := time.Now()
	for _, vw := range recs {
		rec := vw.Packed()
		for i := 0; i < draws; i++ {
			rec.Sample(rng)
		}
	}
	packed := time.Since(t0)
	decoded := make([]table.Decoded, len(recs))
	for i, vw := range recs {
		vw.Decode(&decoded[i])
	}
	t0 = time.Now()
	for i := range decoded {
		for j := 0; j < draws; j++ {
			decoded[i].Sample(rng)
		}
	}
	n := float64(len(recs) * draws)
	l.add("table.packed_sample_ns", ratio(float64(packed.Nanoseconds()), n), "ns")
	l.add("table.decoded_sample_ns", ratio(float64(time.Since(t0).Nanoseconds()), n), "ns")
}

// recordDraws times Urn.SampleBatch in batches of 1024 on a warm clone of
// urn, after a warm-up, and on a fresh urn whose decode and sweep caches
// are off.
func (l *ladderRun) recordDraws(p *source, col *coloring.Coloring, tab *table.Table, cat *treelet.Catalog, urn *sample.Urn, probe int) {
	const batch = 1024
	batches := max(4, 8*probe/batch)
	sink := func(graphlet.Code, []int32) bool { return true }
	draw := func(u *sample.Urn) float64 {
		rng := rand.New(rand.NewSource(3))
		t0 := time.Now()
		for b := 0; b < batches; b++ {
			u.SampleBatch(rng, batch, sink)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(batches*batch)
	}
	warm := urn.Clone()
	warm.SampleBatch(rand.New(rand.NewSource(2)), 4*batch, sink)
	sweeps, hits := warm.Sweeps, warm.BufferHits
	l.add("sample.draw_ns_warm", draw(warm), "ns")
	perK := float64(batches*batch) / 1000
	l.add("sample.sweeps_per_kdraw", float64(warm.Sweeps-sweeps)/perK, "count")
	l.add("sample.buffer_hits_per_kdraw", float64(warm.BufferHits-hits)/perK, "count")
	cold, err := sample.NewUrn(p.g, col, tab, cat)
	if err != nil {
		l.err = err
		return
	}
	cold.SetCacheBudgets(0, 0)
	l.add("sample.draw_ns_cold", draw(cold), "ns")
}

// pickReplays takes the first perKind requests of each kind, then adds
// probe requests on the primary graph for whichever of naive counts, AGS
// counts and signatures the traffic lacks, so every layer is exercised.
func pickReplays(in *ladderInput) []replay {
	seen := map[string]int{}
	var out []replay
	var naive, agsCount, sigs bool
	for _, r := range in.replays {
		if seen[r.kind] >= in.perKind {
			continue
		}
		seen[r.kind]++
		out = append(out, r)
		switch {
		case r.signatures:
			sigs = true
		case r.q.Strategy == core.AGS:
			agsCount = true
		default:
			naive = true
		}
	}
	p := in.sources[0]
	for i := 0; i < min(in.perKind, 3); i++ {
		q := core.Query{Samples: in.probeSamples, Seed: int64(i + 1)}
		if !naive {
			out = append(out, countReplay("probe-naive", p.name, q, true))
		}
		q.Strategy = core.AGS
		if !agsCount {
			out = append(out, countReplay("probe-ags", p.name, q, true))
		}
		if !sigs {
			out = append(out, signaturesReplay("probe-signatures", p.name, q, 20))
		}
	}
	return out
}

// replayer replays requests down the serving stack.
type replayer struct {
	l    *ladderRun
	in   *ladderInput
	reg  *registry.Registry
	srv  *server
	urns map[string]*replayUrn

	rtt, wire, resp, regCount, regSelf, hit, coreCount, coreSelf, sigs []float64
	allocs, allocBytes, agsNs, estUs                                   []float64
	covered                                                            []float64
}

// replayUrn is the sampling state the bottom rungs replay on: a master
// urn over the graph's table, opened the way the workload's engines open
// it, with its prepared AGS shapes.
type replayUrn struct {
	urn    *sample.Urn
	shapes *ags.ShapeSet
	col    *coloring.Coloring
	sigma  *estimate.Sigma
}

func (rp *replayer) urnFor(name string) (*replayUrn, error) {
	if u, ok := rp.urns[name]; ok {
		return u, nil
	}
	var src *source
	for _, s := range rp.in.sources {
		if s.name == name {
			src = s
		}
	}
	if src == nil {
		return nil, fmt.Errorf("no source %q", name)
	}
	load := table.OpenMapped
	if rp.in.mapMode == core.MapOff {
		load = table.LoadFile
	}
	tab, col, err := load(src.tablePath)
	if err != nil {
		return nil, err
	}
	if err := tab.AttachGraph(src.g); err != nil {
		return nil, err
	}
	urn, err := sample.NewUrn(src.g, col, tab, treelet.NewCatalog(src.k))
	if err != nil {
		return nil, err
	}
	if urn.Empty() {
		return nil, fmt.Errorf("table of %s has an empty urn", name)
	}
	shapes, err := ags.PrepareShapes(urn)
	if err != nil {
		return nil, err
	}
	u := &replayUrn{urn: urn, shapes: shapes, col: col, sigma: estimate.NewSigma(src.k)}
	rp.urns[name] = u
	return u, nil
}

// run replays rs twice: a first pass through the registry (bypassing its
// result cache) and the sampling rung warms the replay engines' and urns'
// caches for exactly these requests, then a timed pass goes down every
// rung, so each rung meets the same warm caches and the differences
// between rungs are the layers' own time.
func (rp *replayer) run(ctx context.Context, rs []replay) error {
	for _, r := range rs {
		var err error
		if r.signatures {
			_, err = rp.reg.Signatures(ctx, r.graph, r.q, nil)
		} else {
			_, _, err = rp.reg.Count(ctx, r.graph, r.q, false)
		}
		if err != nil {
			return fmt.Errorf("warming %s on %s: %w", r.kind, r.graph, err)
		}
		if !r.signatures {
			if _, err := rp.sampleRung(ctx, nil, r); err != nil {
				return fmt.Errorf("warming %s on %s: %w", r.kind, r.graph, err)
			}
		}
	}
	tr := rp.l.tr
	for i, r := range rs {
		rctx, root := tr.open(ctx, "ladder", r.kind, int64(i)+1)
		err := rp.one(rctx, r)
		tr.close(root)
		if err != nil {
			return fmt.Errorf("replaying %s on %s: %w", r.kind, r.graph, err)
		}
	}
	return nil
}

// one replays r at every rung.
func (rp *replayer) one(ctx context.Context, r replay) error {
	tr := rp.l.tr
	hctx, hs := tr.open(ctx, "serve", "rtt", 0)
	body, err := rp.srv.do(hctx, http.MethodPost, r.path, r.body)
	hs = tr.close(hs)
	if err != nil {
		return err
	}
	rctx, rs := tr.open(ctx, "registry", "count", 0)
	if r.signatures {
		_, err = rp.reg.Signatures(rctx, r.graph, r.q, nil)
	} else {
		_, _, err = rp.reg.Count(rctx, r.graph, r.q, false)
	}
	rs = tr.close(rs)
	if err != nil {
		return err
	}
	eng, err := rp.reg.Get(ctx, r.graph)
	if err != nil {
		return err
	}
	name := "count"
	if r.signatures {
		name = "signatures"
	}
	cctx, cs := tr.open(ctx, "core", name, 0)
	o0, b0 := allocCounts()
	if r.signatures {
		_, err = eng.Signatures(cctx, r.q, nil)
	} else {
		_, err = eng.Count(cctx, r.q)
	}
	o1, b1 := allocCounts()
	cs = tr.close(cs)
	if err != nil {
		return err
	}
	rp.rtt = append(rp.rtt, ms(hs.dur()))
	rp.resp = append(rp.resp, float64(len(body))/1024)
	rp.regCount = append(rp.regCount, ms(rs.dur()))
	if r.signatures {
		rp.sigs = append(rp.sigs, ms(cs.dur()))
	} else {
		rp.coreCount = append(rp.coreCount, ms(cs.dur()))
	}
	rp.allocs = append(rp.allocs, float64(o1-o0))
	rp.allocBytes = append(rp.allocBytes, float64(b1-b0))
	rp.regSelf = append(rp.regSelf, ms(rs.dur()-cs.dur()))
	if r.signatures {
		return nil
	}
	// A cached answer: make sure the entry exists, then time a hit.
	if _, _, err := rp.reg.Count(ctx, r.graph, r.q, true); err != nil {
		return err
	}
	kctx, ks := tr.open(ctx, "registry", "hit", 0)
	_, hit, err := rp.reg.Count(kctx, r.graph, r.q, true)
	ks = tr.close(ks)
	if err != nil || !hit {
		return fmt.Errorf("cached replay missed the result cache (err %v)", err)
	}
	rp.hit = append(rp.hit, ms(ks.dur()))
	below, err := rp.sampleRung(ctx, rp.l.tr, r)
	if err != nil {
		return err
	}
	rp.coreSelf = append(rp.coreSelf, ms(cs.dur()-below))
	return nil
}

// sampleRung replays a count query's sampling without the engine: ags.Run
// on a clone of the master urn, or the naive draws through
// Urn.SampleBatch (split into the same number of streams as the query's
// workers) followed by estimate.Naive. It returns the time taken, and
// records its measurements only when tr is set.
func (rp *replayer) sampleRung(ctx context.Context, tr *tracer, r replay) (time.Duration, error) {
	u, err := rp.urnFor(r.graph)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(r.q.Seed))
	if r.q.Strategy == core.AGS {
		opts := ags.Options{CoverThreshold: 1000, Rng: rng, Workers: r.q.SampleWorkers, Shapes: u.shapes, Budget: r.q.Samples}
		if r.q.PrecisionMode() {
			opts.Budget = 0
			opts.Precision = &ags.Precision{Eps: r.q.Epsilon, Delta: r.q.Delta, Target: r.q.TargetMotif, MaxSamples: r.q.MaxSamples}
		}
		actx, as := tr.open(ctx, "ags", "run", 0)
		t0 := time.Now()
		res, err := ags.Run(actx, u.urn.Clone(), opts)
		d := time.Since(t0)
		tr.close(as)
		if err != nil || tr == nil {
			return d, err
		}
		rp.agsNs = append(rp.agsNs, ratio(float64(d.Nanoseconds()), float64(res.Samples)))
		rp.covered = append(rp.covered, float64(res.Covered))
		return d, nil
	}
	_, ss := tr.open(ctx, "sample", "draws", 0)
	t0 := time.Now()
	tallies := naiveDraws(u.urn, rng, r.q.Samples, r.q.SampleWorkers)
	t1 := time.Now()
	tr.close(ss)
	_, es := tr.open(ctx, "estimate", "naive", 0)
	_, err = estimate.Naive(tallies, int64(r.q.Samples), u.urn.Total().Float64(), u.sigma, u.col.PColorful)
	t2 := time.Now()
	tr.close(es)
	if err != nil || tr == nil {
		return t2.Sub(t0), err
	}
	rp.estUs = append(rp.estUs, float64(t2.Sub(t1).Nanoseconds())/1e3)
	return t2.Sub(t0), nil
}

// naiveDraws tallies n draws over max(workers, 1) streams, each a clone
// of urn with its own generator seeded from rng, run concurrently.
func naiveDraws(urn *sample.Urn, rng *rand.Rand, n, workers int) map[graphlet.Code]int64 {
	streams := min(max(workers, 1), n)
	tallies := make(map[graphlet.Code]int64)
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for w := 0; w < streams; w++ {
		share := n / streams
		if w == streams-1 {
			share = n - (n/streams)*(streams-1)
		}
		seed := rng.Int63()
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make(map[graphlet.Code]int64)
			urn.Clone().SampleBatch(rand.New(rand.NewSource(seed)), share, func(c graphlet.Code, _ []int32) bool {
				local[c]++
				return true
			})
			mu.Lock()
			for c, v := range local {
				tallies[c] += v
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return tallies
}

// report turns the replays' samples into metrics, together with the
// HTTP client spans' self times (round trip minus the server handler).
func (rp *replayer) report() {
	l := rp.l
	spans := l.tr.snapshot()
	kids := children(spans)
	for _, s := range spans {
		if s.Layer == "serve" && s.Name == "rtt" {
			rp.wire = append(rp.wire, ms(selfTime(s, kids[s.ID])))
		}
	}
	serveSelf := make([]float64, len(rp.rtt))
	for i := range rp.rtt {
		serveSelf[i] = rp.rtt[i] - rp.regCount[i]
	}
	l.add("serve.rtt_ms", median(rp.rtt), "ms")
	l.add("serve.self_ms", median(serveSelf), "ms")
	l.add("serve.wire_ms", median(rp.wire), "ms")
	l.add("serve.resp_kib", median(rp.resp), "KiB")
	l.add("registry.count_ms", median(rp.regCount), "ms")
	l.add("registry.hit_ms", median(rp.hit), "ms")
	l.add("registry.self_ms", median(rp.regSelf), "ms")
	l.add("core.count_ms", median(rp.coreCount), "ms")
	l.add("core.signatures_ms", median(rp.sigs), "ms")
	l.add("core.self_ms", median(rp.coreSelf), "ms")
	l.add("core.allocs_per_query", median(rp.allocs), "count")
	l.add("core.bytes_per_query", median(rp.allocBytes), "B")
	l.add("ags.ns_per_sample", median(rp.agsNs), "ns")
	l.add("ags.covered", median(rp.covered), "count")
	l.add("estimate.naive_us", median(rp.estUs), "us")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Package ags implements Adaptive Graphlet Sampling (paper, Section 4),
// the online greedy fractional-set-cover sampling strategy that breaks the
// additive 1/s approximation barrier of naive sampling.
//
// AGS samples through the per-shape urns sample(T). While a shape T_j is
// active, every graphlet H_i accrues weight σ_ij/r_j per draw — the
// probability that one sample(T_j) call spans a copy of H_i, divided by
// g_i. When a graphlet has been seen c̄ times it is "covered", and AGS
// switches to the shape T_j* minimizing the probability of hitting covered
// graphlets again (line 14 of the pseudocode):
//
//	j* = argmin_j (1/r_j) Σ_{i∈C} σ_ij · ĝ_i,  ĝ_i = c_i/w_i.
//
// The returned estimate for every graphlet — covered or not — is c_i/w_i,
// an unbiased (martingale) estimator of its colorful count g_i; Theorem 4
// gives the (1±ε) multiplicative guarantee.
//
// The weights w_i are maintained lazily: with n_j draws made while shape j
// was active, w_i = Σ_j n_j σ_ij / r_j, which equals the pseudocode's
// incremental updates but costs nothing for graphlets not yet observed.
//
// # Parallel execution
//
// With Options.Workers ≥ 2 the run is epoch-based: every worker owns one
// sample.Urn clone, so all mutable sampling state is goroutine-local, and
// draws DefaultEpochSize samples of the active shape through it from the
// shape set's immutable shape urns, which every worker shares. At the epoch
// barrier the per-worker tallies are merged, the per-shape draw counters
// n_j advance by the whole epoch, and cover detection plus the shape-switch
// argmin run once on the merged state. Because the estimator only depends
// on the counters n_j — not on which thread drew which sample — c_i/w_i is
// exactly the sequential estimator; the only semantic difference is that
// shape switches happen at epoch granularity instead of per draw.
//
// The covered mass Σ_{i∈C} σ_ij · ĝ_i consulted by the argmin is
// maintained incrementally per shape: when a graphlet is covered (or a
// covered graphlet's tally moves) only its own σ-row is folded in, instead
// of rescanning all covered graphlets against all shapes at every cover
// event. Snapshots ĝ_i are refreshed whenever the graphlet is re-drawn,
// which keeps the heuristic current for exactly the graphlets the active
// shape still hits.
package ags

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/estimate"
	"repro/internal/graphlet"
	"repro/internal/sample"
	"repro/internal/treelet"
)

// DefaultEpochSize is the number of draws each (virtual) worker makes
// between epoch barriers in parallel mode. Small enough that cover
// detection stays responsive at the paper's c̄ = 1000, large enough that
// the barrier cost is amortized over thousands of draws.
const DefaultEpochSize = 256

// DefaultPrecisionCap is the hard sample cap of a run-to-precision run when
// Precision.MaxSamples is 0: a requested (ε, δ) that Theorem 3 cannot
// certify on the graph (motif too rare, Δ too large) stops here and reports
// the precision actually achieved instead of sampling forever.
const DefaultPrecisionCap = 4 << 20

// precisionCheckEvery is how many sequential draws happen between stopping-
// rule evaluations; the parallel driver checks at its epoch barriers.
const precisionCheckEvery = 1024

// Precision asks Run to sample until Theorem 3 certifies the estimates,
// instead of spending a fixed Budget.
type Precision struct {
	// Eps is the requested relative error: stop once
	// Pr[|ĝ − g| > Eps·g] < Delta holds per Theorem 3.
	Eps float64
	// Delta is the allowed failure probability, in (0, 1).
	Delta float64
	// Target restricts certification to one canonical motif code. The zero
	// Code (no edges, never a valid connected graphlet) certifies every
	// tallied motif instead.
	Target graphlet.Code
	// MaxSamples is the hard cap; 0 means DefaultPrecisionCap.
	MaxSamples int
}

// Certificate reports the precision a run-to-precision run achieved.
type Certificate struct {
	// Eps is the certified relative error at confidence 1−Delta: the
	// smallest ε for which Theorem 3 holds after Samples draws (for the
	// target motif, or the worst over all tallied motifs). +Inf when
	// nothing could be certified, e.g. the target motif was never sampled.
	Eps float64
	// Delta is the failure probability the certificate is stated at.
	Delta float64
	// Samples is the number of draws behind the certificate.
	Samples int
	// Met reports whether the requested ε was reached before the cap.
	Met bool
}

// Options configures an AGS run.
type Options struct {
	// CoverThreshold is c̄, the number of occurrences after which a
	// graphlet counts as covered. The paper's experiments use 1000.
	CoverThreshold int
	// Budget is the total number of samples to draw. Mutually exclusive
	// with Precision.
	Budget int
	// Precision, when non-nil, replaces the fixed Budget with the
	// run-to-precision stopping rule: draw until Theorem 3 certifies the
	// target within Precision.Eps at confidence 1−Precision.Delta, or the
	// sample cap is hit. The outcome is recorded in Result.Achieved.
	Precision *Precision
	// Rng drives all sampling; required. In parallel mode it only seeds
	// the per-worker generators.
	Rng *rand.Rand
	// Workers parallelizes sampling across per-worker shape-urn clones.
	// ≤ 1 samples sequentially with per-draw cover detection; ≥ 2 samples
	// in epochs (see the package comment). Runs are deterministic for a
	// fixed seed and worker count, but changing Workers changes the draw
	// sequence — unless VirtualWorkers pins the decomposition.
	Workers int
	// VirtualWorkers, when > 0, fixes the number of deterministic sampling
	// streams independently of physical parallelism: the epoch driver keeps
	// VirtualWorkers per-stream states (urn clones, rngs, batch slices) and
	// executes them on at most Workers goroutines. Results are then
	// bit-identical for a fixed seed across any Workers count — the
	// property the signatures workload is specified to. 0 means one stream
	// per physical worker (the classic behavior, where changing Workers
	// changes the draw sequence).
	VirtualWorkers int
	// Observe, when non-nil, receives every draw: the stream (virtual
	// worker) index, the canonical code, and the k sampled vertices. The
	// nodes slice is scratch reused by the sampler — copy it to retain. In
	// parallel mode Observe is called concurrently from different streams
	// but never concurrently for the same stream index, so per-stream
	// accumulators indexed by worker need no locking. Draws of an epoch
	// that is discarded by cancellation may still have been observed;
	// callers discard the whole result on error anyway.
	Observe func(worker int, code graphlet.Code, nodes []int32)
	// Shapes, when non-nil, supplies the prepared per-shape machinery of
	// the urn's table (PrepareShapes), skipping the O(n · shapes) shape-urn
	// construction this Run would otherwise pay. The urn passed to Run must
	// be (a clone of) the urn the set was prepared from: the per-shape
	// alias state is valid only against that table. Results are
	// bit-identical with and without a prepared set.
	Shapes *ShapeSet
}

// Result carries the outcome of an AGS run.
type Result struct {
	// Estimates maps each observed graphlet to its estimated number of
	// induced occurrences in G (colorful estimate divided by p_k).
	Estimates estimate.Counts
	// Tallies is c_i, the raw occurrence counts.
	Tallies map[graphlet.Code]int64
	// Samples is the number of draws made; Switches how many times the
	// active shape changed; Covered how many graphlets reached c̄.
	Samples  int
	Switches int
	Covered  int
	// Workers is the number of sampling goroutines used (1 = sequential).
	Workers int
	// Epochs is the number of merge barriers of a parallel run (0 when
	// sequential).
	Epochs int
	// Achieved is the precision certificate of a run-to-precision run; nil
	// for fixed-budget runs.
	Achieved *Certificate
}

// engine is the merged sampling state shared by the sequential and
// epoch-parallel drivers. It is only ever touched by the coordinating
// goroutine (between epochs, or inline in sequential mode).
type engine struct {
	shapes  []treelet.Treelet
	urns    map[treelet.Treelet]*sample.ShapeUrn // shared and immutable
	rj      map[treelet.Treelet]float64
	sigma   *estimate.SigmaShapes
	nj      map[treelet.Treelet]int64
	tallies map[graphlet.Code]int64
	covered map[graphlet.Code]bool
	// ghat is the ĝ_i snapshot currently folded into mass for each
	// covered graphlet; mass[s] = Σ_{i∈C} σ_is · ghat[i].
	ghat map[graphlet.Code]float64
	mass map[treelet.Treelet]float64
	cur  treelet.Treelet
	res  *Result
	// stale holds covered graphlets re-drawn since their last ĝ snapshot;
	// the sequential driver refreshes them in bulk before the next switch
	// decision. Held on the engine (not the driver) so a chunked
	// run-to-precision run carries pending refreshes across chunks.
	stale map[graphlet.Code]bool
	// pk and maxDeg parameterize the Theorem 3 stopping rule.
	pk     float64
	maxDeg int
}

// epsFor returns the smallest ε Theorem 3 certifies for one motif at
// confidence 1−delta given the current tallies, or +Inf if the motif has no
// usable estimate yet.
func (e *engine) epsFor(code graphlet.Code, delta float64) float64 {
	c := e.tallies[code]
	if c == 0 {
		return math.Inf(1)
	}
	w := e.wi(code)
	if w == 0 {
		return math.Inf(1)
	}
	gi := float64(c) / w / e.pk // estimated copies of H_i in G
	return estimate.TheoremThreeEps(delta, e.sigma.K, e.pk, gi, e.maxDeg)
}

// achievedEps evaluates the stopping rule: the certified ε for the target
// motif, or the worst certified ε over all tallied motifs when no target is
// set. Max over an unordered map is deterministic (no float accumulation).
func (e *engine) achievedEps(p *Precision) float64 {
	if p.Target != (graphlet.Code{}) {
		return e.epsFor(p.Target, p.Delta)
	}
	if len(e.tallies) == 0 {
		return math.Inf(1)
	}
	worst := 0.0
	for code := range e.tallies {
		if eps := e.epsFor(code, p.Delta); eps > worst {
			worst = eps
		}
	}
	return worst
}

// wi computes the lazy weight w_i = Σ_j n_j σ_ij / r_j. The sum walks the
// shapes in their fixed sorted order, so the float accumulation — and with
// it every estimate — is bit-identical across runs and across engines.
func (e *engine) wi(code graphlet.Code) float64 {
	row := e.sigma.Of(code)
	var w float64
	for _, s := range e.shapes {
		n := e.nj[s]
		if n == 0 {
			continue
		}
		if sig, ok := row[s]; ok {
			w += float64(n) * float64(sig) / e.rj[s]
		}
	}
	return w
}

// refresh recomputes the covered graphlet's ĝ snapshot and folds the delta
// into the per-shape covered mass — O(|σ-row|) instead of a full
// covered×shapes rescan.
func (e *engine) refresh(code graphlet.Code) {
	w := e.wi(code)
	if w == 0 {
		return
	}
	g := float64(e.tallies[code]) / w
	d := g - e.ghat[code]
	if d == 0 {
		return
	}
	for s, sig := range e.sigma.Of(code) {
		if _, active := e.rj[s]; active {
			e.mass[s] += float64(sig) * d
		}
	}
	e.ghat[code] = g
}

// markCovered moves the graphlet into the covered set; its full σ_ij · ĝ_i
// contribution enters the mass through refresh (ghat starts at 0).
func (e *engine) markCovered(code graphlet.Code) {
	e.covered[code] = true
	e.res.Covered++
	e.refresh(code)
}

// switchShape runs the argmin of pseudocode line 14 on the maintained
// covered mass and activates the winning shape.
func (e *engine) switchShape() {
	next := e.cur
	best := 0.0
	for i, s := range e.shapes {
		score := e.mass[s] / e.rj[s]
		if i == 0 || score < best {
			best = score
			next = s
		}
	}
	if next != e.cur {
		e.res.Switches++
		e.cur = next
	}
}

// ShapeSet is the prepared, immutable sample(T) machinery of one count
// table: every unrooted k-treelet shape with colorful occurrences (in
// deterministic sorted order), its per-shape urn, the shape weights r_j,
// the initial shape of Section 4, and a shared σ_ij cache. Building one
// costs one pass over the size-k records; a long-lived engine prepares it
// once and hands it to every Run through Options.Shapes. Shape urns are
// immutable, so every run and every worker draws from the same ones
// through its own Urn clone.
type ShapeSet struct {
	shapes  []treelet.Treelet
	urns    map[treelet.Treelet]*sample.ShapeUrn
	rj      map[treelet.Treelet]float64
	initial treelet.Treelet
	sigma   *estimate.SigmaShapes
}

// PrepareShapes builds the per-shape sampling state of the urn's table.
// The returned set is read-only and safe to share across concurrent Run
// calls (each run draws through its own Urn clone). All shape
// urns are built in one bulk sample.NewShapeUrns pass — a single parallel
// walk of the size-k records instead of one table pass per shape, the
// dominant tail of engine OpenTime at k ≥ 6.
func PrepareShapes(urn *sample.Urn) (*ShapeSet, error) {
	if urn.Empty() {
		return nil, fmt.Errorf("ags: urn is empty")
	}
	cat := urn.Cat

	// Candidate shapes in deterministic order; empties are dropped after
	// the bulk weighting pass (which discovers the totals anyway).
	all := make([]treelet.Treelet, len(cat.UnrootedK))
	copy(all, cat.UnrootedK)
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	sus, err := urn.NewShapeUrns(all)
	if err != nil {
		return nil, err
	}

	ss := &ShapeSet{
		urns:  make(map[treelet.Treelet]*sample.ShapeUrn, len(all)),
		rj:    make(map[treelet.Treelet]float64, len(all)),
		sigma: estimate.NewSigmaShapes(urn.K, cat),
	}
	for i, s := range all {
		if sus[i].Empty() {
			continue
		}
		ss.shapes = append(ss.shapes, s)
		ss.urns[s] = sus[i]
		ss.rj[s] = sus[i].Total().Float64()
	}
	if len(ss.shapes) == 0 {
		return nil, fmt.Errorf("ags: no k-treelet shape has colorful occurrences")
	}
	shapes := ss.shapes

	// Initial shape: the one with the most colorful occurrences
	// (Section 4: "Initially, we choose the k-treelet T with the largest
	// number of colorful occurrences").
	ss.initial = shapes[0]
	for _, s := range shapes {
		if ss.rj[s] > ss.rj[ss.initial] {
			ss.initial = s
		}
	}
	return ss, nil
}

// Run executes AGS on the urn. The context is checked periodically in the
// draw loop (sequentially) and at every epoch barrier (in parallel), so a
// canceled query returns promptly with ctx.Err().
func Run(ctx context.Context, urn *sample.Urn, opts Options) (*Result, error) {
	if opts.Rng == nil {
		return nil, fmt.Errorf("ags: Options.Rng is required")
	}
	if opts.CoverThreshold < 1 {
		return nil, fmt.Errorf("ags: CoverThreshold must be ≥ 1, got %d", opts.CoverThreshold)
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("ags: Workers must be ≥ 0, got %d", opts.Workers)
	}
	if opts.VirtualWorkers < 0 {
		return nil, fmt.Errorf("ags: VirtualWorkers must be ≥ 0, got %d", opts.VirtualWorkers)
	}
	if p := opts.Precision; p != nil {
		if opts.Budget != 0 {
			return nil, fmt.Errorf("ags: Budget and Precision are mutually exclusive")
		}
		if !(p.Eps > 0) || math.IsInf(p.Eps, 1) {
			return nil, fmt.Errorf("ags: Precision.Eps must be positive and finite, got %v", p.Eps)
		}
		if !(p.Delta > 0 && p.Delta < 1) {
			return nil, fmt.Errorf("ags: Precision.Delta must be in (0, 1), got %v", p.Delta)
		}
		if p.MaxSamples < 0 {
			return nil, fmt.Errorf("ags: Precision.MaxSamples must be ≥ 0, got %d", p.MaxSamples)
		}
	}
	if urn.Empty() {
		return nil, fmt.Errorf("ags: urn is empty")
	}
	ss := opts.Shapes
	if ss == nil {
		var err error
		if ss, err = PrepareShapes(urn); err != nil {
			return nil, err
		}
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	// The number of deterministic sampling streams: defaults to one per
	// physical worker; VirtualWorkers pins it independently of Workers.
	streams := opts.VirtualWorkers
	if streams == 0 {
		streams = workers
	}
	e := &engine{
		shapes:  ss.shapes,
		urns:    ss.urns,
		rj:      ss.rj,
		sigma:   ss.sigma,
		nj:      make(map[treelet.Treelet]int64, len(ss.shapes)),
		tallies: make(map[graphlet.Code]int64),
		covered: make(map[graphlet.Code]bool),
		ghat:    make(map[graphlet.Code]float64),
		mass:    make(map[treelet.Treelet]float64, len(ss.shapes)),
		cur:     ss.initial,
		res:     &Result{Workers: workers},
		stale:   make(map[graphlet.Code]bool),
		pk:      urn.Col.PColorful,
		maxDeg:  urn.G.MaxDegree(),
	}
	e.res.Tallies = e.tallies

	p := opts.Precision
	budget := opts.Budget
	if p != nil {
		budget = p.MaxSamples
		if budget == 0 {
			budget = DefaultPrecisionCap
		}
	}

	var err error
	if streams == 1 {
		err = runSequential(ctx, e, urn, opts, budget)
	} else {
		err = runParallel(ctx, e, urn, opts, workers, streams, budget)
	}
	if err != nil {
		return nil, err
	}
	if p != nil {
		achieved := e.achievedEps(p)
		e.res.Achieved = &Certificate{
			Eps:     achieved,
			Delta:   p.Delta,
			Samples: e.res.Samples,
			Met:     achieved <= p.Eps,
		}
	}

	e.res.Estimates = make(estimate.Counts, len(e.tallies))
	pk := urn.Col.PColorful
	for code, c := range e.tallies {
		w := e.wi(code)
		if w == 0 {
			continue
		}
		e.res.Estimates[code] = float64(c) / w / pk
	}
	return e.res, nil
}

// runSequential keeps the classic semantics — cover detection after every
// sample, shape switches the moment a graphlet reaches c̄ — but draws
// through SampleBatch: one batch runs from the current shape until either
// the budget is spent, the active shape changes (the callback cuts the
// batch short so no draw ever comes from a stale urn), or cancellation is
// observed. Per-draw state updates are identical to the one-at-a-time
// loop, so results are bit-identical at equal seed. In precision mode the
// budget is the sample cap and the Theorem 3 stopping rule is evaluated
// every precisionCheckEvery draws.
func runSequential(ctx context.Context, e *engine, urn *sample.Urn, opts Options, budget int) error {
	for e.res.Samples < budget {
		if err := ctx.Err(); err != nil {
			return err
		}
		chunk := budget - e.res.Samples
		if opts.Precision != nil && chunk > precisionCheckEvery {
			chunk = precisionCheckEvery
		}
		if err := drawSequential(ctx, e, urn, opts, chunk); err != nil {
			return err
		}
		if opts.Precision != nil && e.achievedEps(opts.Precision) <= opts.Precision.Eps {
			return nil
		}
	}
	return nil
}

// drawSequential draws exactly n more samples (modulo cancellation) with
// per-draw cover detection.
func drawSequential(ctx context.Context, e *engine, urn *sample.Urn, opts Options, n int) error {
	step := 0
	for step < n {
		if err := ctx.Err(); err != nil {
			return err
		}
		cur := e.cur
		e.urns[cur].SampleBatch(urn, opts.Rng, n-step, func(code graphlet.Code, nodes []int32) bool {
			// The weight update precedes the draw in the pseudocode (lines
			// 7–9); folding it in here is equivalent since drawing never
			// reads n_j.
			e.nj[cur]++
			e.tallies[code]++
			e.res.Samples++
			step++
			if opts.Observe != nil {
				opts.Observe(0, code, nodes)
			}
			if e.covered[code] {
				e.stale[code] = true
			} else if e.tallies[code] >= int64(opts.CoverThreshold) {
				refreshStale(e, e.stale)
				e.markCovered(code)
				e.switchShape()
				if e.cur != cur {
					return false
				}
			}
			return step&1023 != 0 || ctx.Err() == nil
		})
	}
	return nil
}

// refreshStale folds the pending ĝ updates into the covered mass in
// deterministic (sorted-code) order, so float summation order — and with
// it the argmin on near-ties — cannot vary between identical runs.
func refreshStale(e *engine, stale map[graphlet.Code]bool) {
	if len(stale) == 0 {
		return
	}
	codes := make([]graphlet.Code, 0, len(stale))
	for c := range stale {
		codes = append(codes, c)
	}
	sort.Slice(codes, func(i, j int) bool { return codes[i].Less(codes[j]) })
	for _, c := range codes {
		e.refresh(c)
		delete(stale, c)
	}
}

// runParallel is the epoch-based driver described in the package comment,
// generalized to `streams` deterministic sampling streams executed on at
// most `workers` goroutines (streams == workers unless VirtualWorkers is
// set). Every per-draw and per-merge decision depends only on the stream
// decomposition, never on goroutine scheduling, so results are
// bit-identical for a fixed (seed, streams) pair at any physical worker
// count. Cancellation is detected at the epoch barrier (workers also bail
// out of a batch early); a canceled run returns ctx.Err() and its partial
// state is discarded by the caller. In precision mode the budget is the
// sample cap and the Theorem 3 stopping rule runs at each barrier.
func runParallel(ctx context.Context, e *engine, urn *sample.Urn, opts Options, workers, streams, budget int) error {
	type workerState struct {
		urn *sample.Urn
		rng *rand.Rand
	}
	ws := make([]*workerState, streams)
	for w := range ws {
		// Seeding draws happen in stream order so the run is reproducible
		// for a fixed (seed, streams) pair.
		ws[w] = &workerState{urn: urn.Clone(), rng: rand.New(rand.NewSource(opts.Rng.Int63()))}
	}
	if workers > streams {
		workers = streams
	}

	locals := make([]map[graphlet.Code]int64, streams)
	sem := make(chan struct{}, workers)
	for remaining := budget; remaining > 0; {
		epoch := streams * DefaultEpochSize
		if epoch > remaining {
			epoch = remaining
		}
		base, extra := epoch/streams, epoch%streams
		su := e.urns[e.cur]
		var wg sync.WaitGroup
		for w := range ws {
			n := base
			if w < extra {
				n++
			}
			locals[w] = nil
			if n == 0 {
				continue
			}
			wg.Add(1)
			go func(st *workerState, w, n int) {
				defer wg.Done()
				sem <- struct{}{} // at most `workers` streams sample at once
				defer func() { <-sem }()
				local := make(map[graphlet.Code]int64)
				i, canceled := 0, false
				su.SampleBatch(st.urn, st.rng, n, func(code graphlet.Code, nodes []int32) bool {
					local[code]++
					if opts.Observe != nil {
						opts.Observe(w, code, nodes)
					}
					i++
					if i&255 == 0 && ctx.Err() != nil {
						canceled = true // partial batch; the barrier discards the epoch
						return false
					}
					return true
				})
				if !canceled {
					locals[w] = local
				}
			}(ws[w], w, n)
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return err
		}

		// Merge at the barrier: counters first (wi must see the whole
		// epoch), then cover detection in sorted-code order so float
		// accumulation into the covered mass is deterministic.
		e.nj[e.cur] += int64(epoch)
		epochTallies := make(map[graphlet.Code]int64)
		for _, local := range locals {
			for c, n := range local {
				epochTallies[c] += n
			}
		}
		codes := make([]graphlet.Code, 0, len(epochTallies))
		for c := range epochTallies {
			codes = append(codes, c)
			e.tallies[c] += epochTallies[c]
		}
		sort.Slice(codes, func(i, j int) bool { return codes[i].Less(codes[j]) })
		newlyCovered := false
		for _, c := range codes {
			if e.covered[c] {
				e.refresh(c)
			} else if e.tallies[c] >= int64(opts.CoverThreshold) {
				e.markCovered(c)
				newlyCovered = true
			}
		}
		if newlyCovered {
			e.switchShape()
		}
		e.res.Samples += epoch
		e.res.Epochs++
		remaining -= epoch
		if opts.Precision != nil && e.achievedEps(opts.Precision) <= opts.Precision.Eps {
			return nil
		}
	}
	return nil
}

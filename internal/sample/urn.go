// Package sample implements motivo's sampling phase (paper, Sections 2.2,
// 3.2 and 4): the treelet count table acts as an abstract urn from which
// colorful k-treelet copies are drawn uniformly at random; the induced
// subgraph on the sampled nodes, canonicalized, is the graphlet occurrence.
//
// Two urn interfaces are provided, mirroring the paper:
//
//   - Urn.Sample draws a uniform colorful k-treelet copy (the CC/naive
//     primitive sample()): root node by the alias method, colored treelet
//     within the root's record, then a recursive descent that splits the
//     treelet by its canonical decomposition at every level.
//   - ShapeUrn restricts draws to one unrooted k-treelet shape T — the
//     sample(T) primitive AGS is built on (Section 4).
//
// Neighbor buffering (Section 3.2) is implemented exactly as described:
// when the child node must be chosen among the neighbors of a node with
// degree ≥ BufferThreshold, one sweep draws BufferSize i.i.d. choices and
// caches the unused ones for future requests, so high-degree nodes are
// swept only a fraction of the time.
//
// # The batched hot path
//
// Sampling revisits the same few hundred hot records millions of times, so
// per-draw varint decode and per-sweep recomputation dominate the naive
// implementation. Every urn therefore amortizes three ways, and
// SampleBatch exposes the draw loop the estimators consume:
//
//   - a decoded-record cache (table.DecodedCache) flattens hot records —
//     synthesis included — into sorted key + cumulative-count arrays, so
//     occ/count/iter/sample become binary searches instead of varint walks;
//   - a sweep cache memoizes chooseChild's candidate distribution per
//     (node, colored treelet), so repeat visits pay one Float64 and one
//     binary search instead of a full neighbor sweep;
//   - scratch buffers (sampled nodes, rooted-form cumulatives) are reused
//     across the draws of a batch instead of allocated per draw.
//
// All three are invisible to results: cached values are bit-identical to
// what recomputation would produce and RNG consumption per draw is
// unchanged, so a SampleBatch sequence equals repeated Sample calls
// draw-for-draw at equal seed — with caches on, off, or any mix. The
// determinism tests in batch_test.go pin this down.
package sample

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/alias"
	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/graphlet"
	"repro/internal/table"
	"repro/internal/treelet"
	"repro/internal/u128"
)

// DefaultDecodePairBudget caps the decoded-record cache: decoded pairs
// cost ~24 bytes each, so the default bounds the cache near 6 MB per urn
// (the cache is shared by all clones) — enough to keep every hot record of
// the paper-scale workloads resident.
const DefaultDecodePairBudget = 1 << 18

// DefaultSweepCandBudget caps the sweep cache by total cached candidates
// (~24 bytes each); see DefaultDecodePairBudget for the sizing rationale.
const DefaultSweepCandBudget = 1 << 18

// Urn draws uniform colorful k-treelet occurrences and their induced
// graphlets. It is not safe for concurrent use; create one Urn per
// goroutine over the same (read-only) table.
type Urn struct {
	G   *graph.Graph
	Col *coloring.Coloring
	Tab *table.Table
	Cat *treelet.Catalog
	K   int

	// BufferThreshold is the degree at which neighbor buffering kicks in
	// (paper: 10^4); BufferSize is how many choices one sweep produces
	// (paper: 100).
	BufferThreshold int
	BufferSize      int

	roots     []int32
	rootAlias *alias.Table
	total     u128.Uint128

	buffers    map[bufKey][]childChoice
	canonCache map[graphlet.Code]graphlet.Code
	synthCache *table.SynthCache // smart-star neighbor sums of recently read nodes

	// The amortization caches hold pure functions of the immutable table,
	// so they are concurrency-safe and shared across clones: a record is
	// decoded (and a sweep computed) once per urn lifetime, not once per
	// clone or per query.
	decode *table.DecodedCache
	sweeps *sweepCache

	nodesBuf []int32 // sampled-copy scratch, reused across draws

	// Per-urn draw statistics, read by the benchmark ladder's sample rungs.
	Sweeps     int64 // neighbor sweeps performed (sweep-cache misses)
	BufferHits int64 // child choices served from a buffer
}

type bufKey struct {
	v  int32
	tc treelet.Colored
}

type childChoice struct {
	u   int32
	cpp treelet.Colored
}

// sweepEntry is one memoized chooseChild distribution: the candidate
// (neighbor, colored first-child) pairs in sweep order with their float
// cumulative weights. Values are exactly what a fresh sweep would compute.
type sweepEntry struct {
	cands []childChoice
	cum   []float64
	total float64
}

// sweepCache memoizes sweep distributions under a total candidate budget;
// like table.DecodedCache it is concurrency-safe, frozen once the budget
// is spent, and shared across the clones of one urn. Concurrent misses may
// compute the same sweep twice; the first published entry wins (entries
// are identical, so callers cannot tell).
type sweepCache struct {
	mu     sync.RWMutex
	m      map[bufKey]*sweepEntry
	cands  int
	budget int
}

func newSweepCache(budget int) *sweepCache {
	return &sweepCache{m: make(map[bufKey]*sweepEntry), budget: budget}
}

// get returns the cached sweep of key, or nil (with ok=false reporting
// whether the cache still admits insertions).
func (c *sweepCache) get(key bufKey) (sw *sweepEntry, admits bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.m[key], c.cands < c.budget
}

func (c *sweepCache) put(key bufKey, sw *sweepEntry) *sweepEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prior, ok := c.m[key]; ok {
		return prior
	}
	if c.cands >= c.budget {
		return sw
	}
	c.m[key] = sw
	c.cands += len(sw.cands)
	return sw
}

// NewUrn prepares the urn: the alias table over root nodes weighted by
// occ(v) (built in O(n), Section 3.3) and the total treelet count t. The
// per-node totals pass — the dominant open-time cost on smart tables,
// where each total runs star synthesis — fans out over GOMAXPROCS
// goroutines; the result is identical to the sequential pass (per-node
// totals are independent, and the alias weights assemble in node order).
func NewUrn(g *graph.Graph, col *coloring.Coloring, tab *table.Table, cat *treelet.Catalog) (*Urn, error) {
	k := tab.K
	if cat.K < k {
		return nil, fmt.Errorf("sample: catalog k=%d < table k=%d", cat.K, k)
	}
	u := &Urn{
		G: g, Col: col, Tab: tab, Cat: cat, K: k,
		BufferThreshold: 10000,
		BufferSize:      100,
		buffers:         make(map[bufKey][]childChoice),
		canonCache:      make(map[graphlet.Code]graphlet.Code),
		synthCache:      table.NewSynthCache(),
		decode:          table.NewDecodedCache(DefaultDecodePairBudget),
		sweeps:          newSweepCache(DefaultSweepCandBudget),
	}
	n := g.NumNodes()
	totals := make([]u128.Uint128, n)
	workers := parallelWorkers(n)
	if workers <= 1 {
		for v := 0; v < n; v++ {
			totals[v] = tab.Rec(k, int32(v)).WithCache(u.synthCache).Total()
		}
	} else {
		var wg sync.WaitGroup
		chunk := (n + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, min((w+1)*chunk, n)
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				cache := table.NewSynthCache() // synthesis cache is goroutine-local
				for v := lo; v < hi; v++ {
					totals[v] = tab.Rec(k, int32(v)).WithCache(cache).Total()
				}
			}(lo, hi)
		}
		wg.Wait()
	}
	weights := make([]float64, 0, n)
	for v := 0; v < n; v++ {
		t := totals[v]
		if !t.IsZero() {
			u.roots = append(u.roots, int32(v))
			weights = append(weights, t.Float64())
		}
		u.total = u.total.Add(t)
	}
	u.rootAlias = alias.New(weights)
	return u, nil
}

// parallelWorkers sizes a construction fan-out: GOMAXPROCS goroutines,
// but never more than one per 256 items (tiny inputs stay sequential).
func parallelWorkers(items int) int {
	w := runtime.GOMAXPROCS(0)
	if cap := items/256 + 1; w > cap {
		w = cap
	}
	return w
}

// Total returns t, the number of colorful k-treelet copies in the urn.
// Without 0-rooting every copy is counted k times; Total corrects for that
// so it always reports distinct copies.
func (u *Urn) Total() u128.Uint128 {
	if u.Tab.ZeroRooted {
		return u.total
	}
	q, _ := u.total.QuoRem64(uint64(u.K))
	return q
}

// Empty reports whether the urn holds no colorful k-treelets (possible on
// unlucky colorings of tiny graphs).
func (u *Urn) Empty() bool { return u.rootAlias == nil }

// view returns the merged record view of (h, v) with the urn's synthesis
// memo attached — the uncached read path.
func (u *Urn) view(h int, v int32) table.View {
	return u.Tab.Rec(h, v).WithCache(u.synthCache)
}

// SetCacheBudgets replaces the urn's shared amortization caches with fresh
// ones holding at most decodePairs decoded pairs and sweepCands sweep
// candidates (≤ 0 disables the respective cache — results are unchanged,
// only slower). Call before the first draw and before cloning; existing
// clones keep the old caches.
func (u *Urn) SetCacheBudgets(decodePairs, sweepCands int) {
	u.decode = table.NewDecodedCache(decodePairs)
	u.sweeps = newSweepCache(sweepCands)
}

// decRec returns the decoded form of record (h, v) when the decode cache
// admits it, nil otherwise (caller falls back to the packed view).
func (u *Urn) decRec(h int, v int32) *table.Decoded {
	return u.decode.Get(h, v, u.view(h, v))
}

// Sample draws one uniform colorful k-treelet copy and returns the
// canonical code of the induced graphlet plus the sampled nodes. The node
// slice is reused across calls; copy it to retain.
func (u *Urn) Sample(rng *rand.Rand) (graphlet.Code, []int32) {
	if u.Empty() {
		panic("sample: urn is empty")
	}
	return u.sampleOne(rng)
}

// SampleBatch draws up to n uniform copies, calling fn after every draw
// with the canonical induced code and the sampled nodes (the node slice is
// reused across draws; copy it to retain). It stops early when fn returns
// false and returns the number of draws made. Draw-for-draw, RNG
// consumption and results are bit-identical to repeated Sample calls, so
// batch size never changes a seeded sequence; batching exists to amortize
// record decode, sweep computation and scratch allocation across the
// draws between two estimator decisions.
func (u *Urn) SampleBatch(rng *rand.Rand, n int, fn func(graphlet.Code, []int32) bool) int {
	if u.Empty() {
		panic("sample: urn is empty")
	}
	for i := 0; i < n; i++ {
		code, nodes := u.sampleOne(rng)
		if !fn(code, nodes) {
			return i + 1
		}
	}
	return n
}

// sampleOne is one draw of the hot path: root by alias, colored treelet
// within the root's (decoded) record, recursive materialization.
func (u *Urn) sampleOne(rng *rand.Rand) (graphlet.Code, []int32) {
	v := u.roots[u.rootAlias.Next(rng)]
	var tc treelet.Colored
	if d := u.decRec(u.K, v); d != nil {
		tc = d.Sample(rng)
	} else {
		tc = u.view(u.K, v).Sample(rng)
	}
	return u.materialize(v, tc, rng)
}

// materialize expands a rooted colored treelet choice at v into a concrete
// copy and canonicalizes its induced subgraph. The returned node slice is
// the urn's reusable scratch buffer.
func (u *Urn) materialize(v int32, tc treelet.Colored, rng *rand.Rand) (graphlet.Code, []int32) {
	if u.nodesBuf == nil {
		u.nodesBuf = make([]int32, 0, u.K)
	}
	u.nodesBuf = u.nodesBuf[:0]
	u.sampleCopy(v, tc, rng, &u.nodesBuf)
	return u.Induced(u.nodesBuf), u.nodesBuf
}

// sampleCopy recursively samples a uniform copy of tc rooted at v,
// appending the copy's nodes to out.
func (u *Urn) sampleCopy(v int32, tc treelet.Colored, rng *rand.Rand, out *[]int32) {
	if tc.Tree() == treelet.Leaf {
		*out = append(*out, v)
		return
	}
	ch := u.chooseChild(v, tc, rng)
	tp := u.Cat.Rest(tc.Tree())
	cp := treelet.MakeColored(tp, tc.Colors()&^ch.cpp.Colors())
	u.sampleCopy(v, cp, rng, out)
	u.sampleCopy(ch.u, ch.cpp, rng, out)
}

// chooseChild picks the child node u ~ v and the colored first-child part
// (T”_C”) with probability proportional to
// c(T”_C”, u) · c(T'_{C\C”}, v), which makes every copy of tc at v
// equally likely (each copy has exactly β_T generating choices).
func (u *Urn) chooseChild(v int32, tc treelet.Colored, rng *rand.Rand) childChoice {
	key := bufKey{v, tc}
	if buf := u.buffers[key]; len(buf) > 0 {
		ch := buf[len(buf)-1]
		u.buffers[key] = buf[:len(buf)-1]
		u.BufferHits++
		return ch
	}
	sw := u.sweepFor(key)
	if len(sw.cands) == 0 {
		panic(fmt.Sprintf("sample: no child choice for treelet %v at node %d (corrupt table?)", tc, v))
	}
	draws := 1
	if u.G.Degree(v) >= u.BufferThreshold {
		draws = u.BufferSize
	}
	if draws == 1 {
		r := rng.Float64() * sw.total
		return sw.cands[searchFloat(sw.cum, r)]
	}
	picks := make([]childChoice, draws)
	for d := range picks {
		r := rng.Float64() * sw.total
		picks[d] = sw.cands[searchFloat(sw.cum, r)]
	}
	u.buffers[key] = picks[:draws-1]
	return picks[draws-1]
}

// sweepFor returns the candidate distribution of (v, tc), memoized in the
// shared sweep cache. Cached entries are bit-identical to a fresh sweep
// (the float cumulatives are computed once and reused), so the cache
// cannot perturb draw sequences.
func (u *Urn) sweepFor(key bufKey) *sweepEntry {
	sw, admits := u.sweeps.get(key)
	if sw != nil {
		return sw
	}
	sw = u.computeSweep(key.v, key.tc)
	if admits {
		sw = u.sweeps.put(key, sw)
	}
	return sw
}

// computeSweep performs one neighbor sweep: the candidate (neighbor,
// colored first-child) pairs of tc at v with cumulative weights
// c(T”_C”, u) · c(T'_{C\C”}, v), reading records through the decode cache
// when resident.
func (u *Urn) computeSweep(v int32, tc treelet.Colored) *sweepEntry {
	tree := tc.Tree()
	tpp := u.Cat.FirstChild(tree)
	tp := u.Cat.Rest(tree)
	hpp, hp := tpp.Size(), tp.Size()
	C := tc.Colors()

	u.Sweeps++
	sw := &sweepEntry{}
	dv := u.decRec(hp, v)
	var rv table.View
	if dv == nil {
		rv = u.view(hp, v)
	}
	countV := func(cp treelet.Colored) u128.Uint128 {
		if dv != nil {
			return dv.Count(cp)
		}
		return rv.Count(cp)
	}
	each := func(w int32) func(treelet.Colored, u128.Uint128) bool {
		return func(cpp treelet.Colored, cu u128.Uint128) bool {
			cs := cpp.Colors()
			if cs&C != cs { // C'' must be a subset of C
				return true
			}
			cp := treelet.MakeColored(tp, C&^cs)
			cv := countV(cp)
			if cv.IsZero() {
				return true
			}
			sw.total += cv.Float64() * cu.Float64()
			sw.cands = append(sw.cands, childChoice{w, cpp})
			sw.cum = append(sw.cum, sw.total)
			return true
		}
	}
	for _, w := range u.G.Neighbors(v) {
		if dw := u.decRec(hpp, w); dw != nil {
			dw.ShapeEach(tpp, each(w))
		} else {
			u.view(hpp, w).ShapeEach(tpp, each(w))
		}
	}
	return sw
}

// searchFloat returns the first index with cum[i] > r (clamped to the last
// index to be safe against floating-point edge effects).
func searchFloat(cum []float64, r float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] > r {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Induced returns the canonical code of the subgraph induced by nodes,
// memoizing canonicalizations (sampled graphlets repeat heavily; this is
// our stand-in for Nauty being fast).
func (u *Urn) Induced(nodes []int32) graphlet.Code {
	var raw graphlet.Code
	k := len(nodes)
	raw = codeOf(u.G, nodes)
	if canon, ok := u.canonCache[raw]; ok {
		return canon
	}
	canon := graphlet.Canonical(k, raw)
	u.canonCache[raw] = canon
	return canon
}

// codeOf packs the induced adjacency of nodes into a raw (uncanonicalized)
// code using O(k² log δ) edge-membership queries.
func codeOf(g *graph.Graph, nodes []int32) graphlet.Code {
	var edges [][2]int
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			if g.HasEdge(nodes[i], nodes[j]) {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	return graphlet.FromEdges(len(nodes), edges)
}

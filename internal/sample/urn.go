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
//     sample(T) primitive AGS is built on (Section 4). It is immutable and
//     draws through the Urn clone it is handed, so one shape urn serves
//     every goroutine.
//
// Neighbor buffering (Section 3.2) is implemented exactly as described:
// when the child node must be chosen among the neighbors of a node with
// degree ≥ BufferThreshold, one sweep draws BufferSize i.i.d. choices and
// caches the unused ones for future requests, so high-degree nodes are
// swept only a fraction of the time.
//
// # The batched hot path
//
// Sampling revisits the same few thousand hot records millions of times,
// so per-draw varint decode, per-sweep recomputation and per-draw graphlet
// naming dominate the naive implementation. Every urn therefore amortizes
// four ways, and SampleBatch exposes the draw loop the estimators consume:
//
//   - a decoded-record cache holds the size-k root records, keyed by node —
//     synthesis included — as sorted key + cumulative-count arrays
//     (table.Decoded), so the one record read of every draw is a binary
//     search instead of a varint walk; lower-level records are read only by
//     sweeps, which the sweep cache computes once, so they stay packed;
//   - a sweep cache memoizes chooseChild's candidate distribution per
//     (node, colored treelet), so repeat visits pay one Float64 and one
//     binary search instead of a full neighbor sweep; its entries store the
//     first-child shape once and each candidate as (neighbor, color set),
//     under one packed uint64 key; a miss it will not keep is computed
//     into the clone's scratch entry, so it allocates nothing;
//   - a sweep visits only the neighbors whose color the first child can
//     take (C” ⊆ C∖{col(v)}) and asks each for those colorings alone, so a
//     synthesized record never computes an entry the sweep would drop;
//   - the graphlet is named from the walk: the k−1 tree edges sampleCopy
//     walks set their raw-code bits directly, only the other pairs are
//     tested for adjacency, and the raw code is canonicalized through one
//     table shared by every clone (a dense, lazily filled array over all
//     raw codes for k ≤ 6; a per-clone map for larger k);
//   - scratch buffers (sampled nodes, neighbor buffers) are reused across
//     draws instead of allocated per draw.
//
// Both caches are one type (internal/memo, which the build's record cache
// also uses): shared by every clone, budgeted, and read without a lock
// once the put that spends the budget has frozen them.
//
// All of these are invisible to results: cached values are bit-identical
// to what recomputation would produce and RNG consumption per draw is
// unchanged, so a SampleBatch sequence equals repeated Sample calls
// draw-for-draw at equal seed — with caches on, off, or any mix. The
// determinism tests in batch_test.go pin this down.
package sample

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/alias"
	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/graphlet"
	"repro/internal/memo"
	"repro/internal/table"
	"repro/internal/treelet"
	"repro/internal/u128"
)

// DefaultDecodePairBudget caps the decoded-record cache, which holds only
// size-k root records: decoded pairs cost ~24 bytes each, so the default
// bounds the cache near 6 MB per urn (the cache is shared by all clones).
// Roots are drawn in proportion to occ(v), so first-come admission takes
// the heaviest roots first; every root record of the paper-scale
// workloads fits.
const DefaultDecodePairBudget = 1 << 18

// DefaultSweepCandBudget caps the sweep cache by total cached candidates
// (16 bytes each, cumulative weight included); see DefaultDecodePairBudget
// for the sizing rationale.
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
	total     u128.Uint128 // distinct copies

	buffers    map[uint64][]childChoice // keyed like the sweep cache; made on first use
	synthCache *table.SynthCache        // smart-star neighbor sums of recently read nodes
	scratch    sweepEntry               // the sweep of a miss the sweep cache will not keep

	// The amortization caches hold pure functions of the immutable table,
	// so they are concurrency-safe and shared across clones: a root record
	// is decoded, a sweep computed and a raw code canonicalized once per
	// urn lifetime, not once per clone or per query.
	decode *memo.Memo[table.Decoded] // size-k root records, keyed by node
	sweeps *memo.Memo[sweepEntry]    // keyed by sweepKey
	canon  *canonTable               // nil for k > denseCanonK; canonMemo serves those

	canonMemo map[uint64]uint64 // per-clone raw → canonical code, k > denseCanonK
	nodesBuf  []int32           // sampled-copy scratch, reused across draws
	treeBits  uint64            // raw-code bits of the tree edges the draw walked

	// Per-urn draw statistics, read by the benchmark ladder's sample rungs.
	Sweeps     int64 // neighbor sweeps performed (sweep-cache misses)
	BufferHits int64 // child choices served from a buffer
}

// sweepKey packs (v, tc) into the key of the sweep cache and the neighbor
// buffers: node<<32 | tree>>12<<11 | colors. For k ≤ treelet.MaxK = 11 a
// treelet code uses only its top 2(k−1) ≤ 20 bits and a color set its low
// 11, so the packing is injective.
func sweepKey(v int32, tc treelet.Colored) uint64 {
	return uint64(v)<<32 | uint64(tc.Tree()>>12)<<11 | uint64(tc.Colors())
}

type childChoice struct {
	u   int32
	cpp treelet.Colored
}

// sweepCand is one candidate of a sweep: the neighbor and the color set of
// its first-child part, whose shape the entry stores once.
type sweepCand struct {
	u  int32
	cs treelet.ColorSet
}

// sweepEntry is one memoized chooseChild distribution: the candidate
// (neighbor, first-child colors) pairs in sweep order with their float
// cumulative weights, and the first-child shape every candidate shares.
// Values are exactly what a fresh sweep would compute.
type sweepEntry struct {
	tpp   treelet.Treelet
	cands []sweepCand
	cum   []float64
	total float64
}

// denseCanonK is the largest k whose raw codes get a dense canonical
// table: 2^(k(k-1)/2) slots of 4 bytes is 128 KiB at k=6 and 8 MiB at k=7.
const denseCanonK = 6

// canonFilled marks a computed canonTable slot; canonical codes of
// k ≤ denseCanonK fit in the low 15 bits, so 0 can mean "not yet computed".
const canonFilled = 1 << 31

// canonTable is the engine-wide canonical-form memo for k ≤ denseCanonK:
// one lazily filled slot per raw code. A canonical form is a pure function
// of the raw code, so concurrent fills store the same value and the table
// needs no lock.
type canonTable struct {
	k     int
	slots []atomic.Uint32
}

func newCanonTable(k int) *canonTable {
	if k > denseCanonK {
		return nil
	}
	return &canonTable{k: k, slots: make([]atomic.Uint32, 1<<(k*(k-1)/2))}
}

// of returns the canonical form of raw, computing it on first use.
func (t *canonTable) of(raw uint64) graphlet.Code {
	slot := &t.slots[raw]
	if c := slot.Load(); c != 0 {
		return graphlet.Code{Lo: uint64(c &^ canonFilled)}
	}
	canon := graphlet.Canonical(t.k, graphlet.Code{Lo: raw})
	slot.Store(uint32(canon.Lo) | canonFilled)
	return canon
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
		synthCache:      table.NewSynthCache(),
		decode:          memo.New[table.Decoded](DefaultDecodePairBudget),
		sweeps:          memo.New[sweepEntry](DefaultSweepCandBudget),
		canon:           newCanonTable(k),
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
	var total u128.Uint128
	for v := 0; v < n; v++ {
		t := totals[v]
		if !t.IsZero() {
			u.roots = append(u.roots, int32(v))
			weights = append(weights, t.Float64())
		}
		total = total.Add(t)
	}
	u.total = u.distinct(total)
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

// distinct turns a sum of size-k record counts into distinct copies:
// without 0-rooting every copy is counted once per node, k times.
func (u *Urn) distinct(t u128.Uint128) u128.Uint128 {
	if u.Tab.ZeroRooted {
		return t
	}
	q, _ := t.QuoRem64(uint64(u.K))
	return q
}

// Total returns t, the number of distinct colorful k-treelet copies in the
// urn.
func (u *Urn) Total() u128.Uint128 { return u.total }

// Empty reports whether the urn holds no colorful k-treelets (possible on
// unlucky colorings of tiny graphs).
func (u *Urn) Empty() bool { return u.rootAlias == nil }

// view returns the merged record view of (h, v) with the urn's synthesis
// memo attached — the uncached read path.
func (u *Urn) view(h int, v int32) table.View {
	return u.Tab.Rec(h, v).WithCache(u.synthCache)
}

// SetCacheBudgets replaces the urn's shared decoded-record and sweep
// caches with fresh ones holding at most decodePairs decoded root pairs
// and sweepCands sweep candidates (≤ 0 disables the respective cache —
// results are unchanged, only slower). Call before the first draw and
// before cloning; existing clones keep the old caches. The canonical-form
// table is not a budgeted cache and stays shared.
func (u *Urn) SetCacheBudgets(decodePairs, sweepCands int) {
	u.decode = memo.New[table.Decoded](decodePairs)
	u.sweeps = memo.New[sweepEntry](sweepCands)
}

// rootRec returns the decoded size-k record of root v when the decode
// cache holds or admits it, nil otherwise (caller falls back to the packed
// view). A hit builds no View.
func (u *Urn) rootRec(v int32) *table.Decoded {
	d, admits := u.decode.Get(uint64(v))
	if d != nil || !admits {
		return d
	}
	d = new(table.Decoded)
	u.view(u.K, v).Decode(d)
	return u.decode.Put(uint64(v), d, d.Len())
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
	if d := u.rootRec(v); d != nil {
		tc = d.Sample(rng)
	} else {
		tc = u.view(u.K, v).Sample(rng)
	}
	return u.materialize(v, tc, rng)
}

// materialize expands a rooted colored treelet choice at v into a concrete
// copy and names the graphlet it induces. The returned node slice is the
// urn's reusable scratch buffer.
func (u *Urn) materialize(v int32, tc treelet.Colored, rng *rand.Rand) (graphlet.Code, []int32) {
	if u.nodesBuf == nil {
		u.nodesBuf = make([]int32, 0, u.K)
	}
	u.nodesBuf = u.nodesBuf[:0]
	u.treeBits = 0
	u.sampleCopy(v, tc, rng)
	return u.canonical(u.inducedBits()), u.nodesBuf
}

// sampleCopy recursively samples a uniform copy of tc rooted at v. It
// appends the copy's nodes to nodesBuf, v first, and sets the raw-code bit
// of every tree edge it walks in treeBits.
func (u *Urn) sampleCopy(v int32, tc treelet.Colored, rng *rand.Rand) {
	if tc.Tree() == treelet.Leaf {
		u.nodesBuf = append(u.nodesBuf, v)
		return
	}
	at := len(u.nodesBuf) // the rest part below appends v here
	ch := u.chooseChild(v, tc, rng)
	tp := u.Cat.Rest(tc.Tree())
	cp := treelet.MakeColored(tp, tc.Colors()&^ch.cpp.Colors())
	u.sampleCopy(v, cp, rng)
	u.treeBits |= 1 << pairBit(at, len(u.nodesBuf)) // ch.u lands here
	u.sampleCopy(ch.u, ch.cpp, rng)
}

// pairBit is the raw-code bit of positions i < j: graphlet.Code packs the
// strict upper triangle column by column, pair (i, j) at j(j-1)/2 + i.
// For k ≤ treelet.MaxK = 11 every bit lies in Code.Lo.
func pairBit(i, j int) uint { return uint(j*(j-1)/2 + i) }

// inducedBits completes the walk's tree edges to the raw code of the
// subgraph nodesBuf induces, testing adjacency only for the pairs the walk
// did not cover.
func (u *Urn) inducedBits() uint64 {
	raw, nodes := u.treeBits, u.nodesBuf
	bit := uint64(1)
	for j := 1; j < len(nodes); j++ {
		for i := 0; i < j; i++ {
			if raw&bit == 0 && u.G.HasEdge(nodes[i], nodes[j]) {
				raw |= bit
			}
			bit <<= 1
		}
	}
	return raw
}

// canonical returns the canonical form of a raw k-node code: from the
// shared dense table for k ≤ denseCanonK, else from the clone's own memo,
// which lives as long as the clone and holds at most one entry per draw.
func (u *Urn) canonical(raw uint64) graphlet.Code {
	if u.canon != nil {
		return u.canon.of(raw)
	}
	if c, ok := u.canonMemo[raw]; ok {
		return graphlet.Code{Lo: c}
	}
	if u.canonMemo == nil {
		u.canonMemo = make(map[uint64]uint64)
	}
	canon := graphlet.Canonical(u.K, graphlet.Code{Lo: raw})
	u.canonMemo[raw] = canon.Lo
	return canon
}

// chooseChild picks the child node u ~ v and the colored first-child part
// (T”_C”) with probability proportional to
// c(T”_C”, u) · c(T'_{C\C”}, v), which makes every copy of tc at v
// equally likely (each copy has exactly β_T generating choices). At a node
// of degree ≥ BufferThreshold one sweep draws BufferSize choices and keeps
// the unused ones; a refill reuses the drained buffer's array. Until the
// clone has buffered at a hub, no draw looks its buffers up.
func (u *Urn) chooseChild(v int32, tc treelet.Colored, rng *rand.Rand) childChoice {
	key := sweepKey(v, tc)
	var buf []childChoice
	if len(u.buffers) > 0 {
		if buf = u.buffers[key]; len(buf) > 0 {
			ch := buf[len(buf)-1]
			u.buffers[key] = buf[:len(buf)-1]
			u.BufferHits++
			return ch
		}
	}
	sw := u.sweepFor(key, v, tc)
	if len(sw.cands) == 0 {
		panic(fmt.Sprintf("sample: no child choice for treelet %v at node %d (corrupt table?)", tc, v))
	}
	if u.G.Degree(v) < u.BufferThreshold {
		return sw.pick(rng)
	}
	picks := buf[:0]
	if cap(picks) < u.BufferSize {
		picks = make([]childChoice, 0, u.BufferSize)
	}
	if u.buffers == nil {
		u.buffers = make(map[uint64][]childChoice)
	}
	for d := 0; d < u.BufferSize; d++ {
		picks = append(picks, sw.pick(rng))
	}
	u.buffers[key] = picks[:len(picks)-1]
	return picks[len(picks)-1]
}

// pick draws one candidate of the sweep by its cumulative weight.
func (sw *sweepEntry) pick(rng *rand.Rand) childChoice {
	c := sw.cands[searchFloat(sw.cum, rng.Float64()*sw.total)]
	return childChoice{c.u, treelet.MakeColored(sw.tpp, c.cs)}
}

// sweepFor returns the candidate distribution of (v, tc) under key,
// memoized in the shared sweep cache. Cached entries are bit-identical to
// a fresh sweep (the float cumulatives are computed once and reused), so
// the cache cannot perturb draw sequences. A miss the cache will not keep
// is computed into the clone's scratch entry, valid until the next such
// miss — chooseChild draws from it before it returns.
func (u *Urn) sweepFor(key uint64, v int32, tc treelet.Colored) *sweepEntry {
	sw, admits := u.sweeps.Get(key)
	if sw != nil {
		return sw
	}
	if !admits {
		// Size the scratch for this sweep before it appends: a miss grows
		// it at most once, to its bound and at least twice its capacity,
		// instead of doubling up from a fresh clone's empty scratch.
		if n := u.sweepBound(v, tc); cap(u.scratch.cands) < n {
			n = max(n, 2*cap(u.scratch.cands))
			u.scratch.cands = make([]sweepCand, 0, n)
			u.scratch.cum = make([]float64, 0, n)
		}
		u.computeSweep(&u.scratch, v, tc)
		return &u.scratch
	}
	sw = new(sweepEntry)
	u.computeSweep(sw, v, tc)
	return u.sweeps.Put(key, sw, len(sw.cands))
}

// computeSweep performs one neighbor sweep into sw, reusing its arrays:
// the candidate (neighbor, colored first-child) pairs of tc at v with
// cumulative weights c(T”_C”, u) · c(T'_{C\C”}, v). The rest part T' keeps
// v and so v's color, so only C” ⊆ C∖{col(v)} can weigh anything: the
// sweep skips every neighbor whose color lies outside that set and asks
// the others only for colorings inside it. It reads the lower-level
// records through packed views: a sweep is computed once and then served
// from the sweep cache, so decoding its inputs would only hold them in
// memory twice.
func (u *Urn) computeSweep(sw *sweepEntry, v int32, tc treelet.Colored) {
	tree := tc.Tree()
	tpp := u.Cat.FirstChild(tree)
	tp := u.Cat.Rest(tree)
	C := tc.Colors()
	within := C &^ treelet.Singleton(u.Col.Colors[v])

	u.Sweeps++
	*sw = sweepEntry{tpp: tpp, cands: sw.cands[:0], cum: sw.cum[:0]}
	rv := u.view(tp.Size(), v)
	var w int32
	each := func(cpp treelet.Colored, cu u128.Uint128) bool {
		cs := cpp.Colors()
		cv := rv.Count(treelet.MakeColored(tp, C&^cs))
		if cv.IsZero() {
			return true
		}
		sw.total += cv.Float64() * cu.Float64()
		sw.cands = append(sw.cands, sweepCand{w, cs})
		sw.cum = append(sw.cum, sw.total)
		return true
	}
	colors, hpp := u.Col.Colors, tpp.Size()
	for _, w = range u.G.Neighbors(v) {
		if within.Has(colors[w]) {
			u.view(hpp, w).ShapeEach(tpp, within, each)
		}
	}
}

// sweepBound bounds the candidates of tc's sweep at v: every neighbor
// whose color lies in C∖{col(v)} offers at most one candidate per coloring
// of the first child that holds its color and takes the rest from that set.
func (u *Urn) sweepBound(v int32, tc treelet.Colored) int {
	within := tc.Colors() &^ treelet.Singleton(u.Col.Colors[v])
	nbrs := 0
	for _, w := range u.G.Neighbors(v) {
		if within.Has(u.Col.Colors[w]) {
			nbrs++
		}
	}
	// C(|within|-1, |T''|-1) colorings per neighbor.
	n, r := within.Card()-1, u.Cat.FirstChild(tc.Tree()).Size()-1
	per := 1
	for i := range r {
		per = per * (n - i) / (i + 1)
	}
	return nbrs * per
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
// computed from scratch: every pair is tested for adjacency and the code
// is canonicalized without a memo. The draw loop names its graphlets from
// the walk instead; Induced is the reference its tests check against.
func (u *Urn) Induced(nodes []int32) graphlet.Code {
	var edges [][2]int
	for j := 1; j < len(nodes); j++ {
		for i := 0; i < j; i++ {
			if u.G.HasEdge(nodes[i], nodes[j]) {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	return graphlet.Canonical(len(nodes), graphlet.FromEdges(len(nodes), edges))
}

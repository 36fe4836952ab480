// Package build implements motivo's color-coding build-up phase (paper,
// Sections 3.1–3.3): the dynamic program that fills the succinct treelet
// count table.
//
// For every node v and every treelet size h = 1..k it computes c(T_C, v),
// the number of colorful copies of the canonical rooted treelet T with
// color set C rooted at v, by the canonical-decomposition recurrence
// (Eq. 1 of the paper):
//
//	c(T_C, v) = (1/β_T) · Σ_{u ~ v} Σ_{C' ⊎ C'' = C} c(T'_{C'}, v) · c(T''_{C''}, u)
//
// where T = Merge(T', T”) is the unique canonical decomposition detaching
// the first child subtree T” of the root, and β_T corrects for the copies
// generated once per identical first child. Because records are sorted by
// (treelet, colorset) and the treelet occupies the key's high bits, the
// inner loop walks contiguous shape runs of two records and performs the
// check-and-merge test as a single integer comparison of succinct codes —
// the optimization Figure 2 of the paper measures against CC's
// pointer-based treelets.
//
// Nothing on that path hashes a treelet. The catalog answers first child,
// height and β_T by array index (treelet.Catalog), and the products of a
// node accumulate in a dense per-worker array with one slot per size-h
// colored treelet, at ID(T)·C(k,h) + rank(C) (dense.go). Slot order is the
// record's key order, so a node's record is emitted by walking the
// touched slots, with no sort.
//
// Performance machinery implemented here, matching the paper:
//
//   - a vertex-sharded worker pool: nodes of a level are processed
//     concurrently by Options.Workers goroutines (0 = GOMAXPROCS); each
//     node's record only reads completed lower levels, so the result is
//     bit-identical regardless of scheduling;
//   - one record cache and one neighbor-sum store for the whole build,
//     shared by the pool under one cap: completed levels never change, so
//     a lower-level record is decoded (or, with smart stars, synthesized)
//     once per build while the cache admits it, and the smart-star sums of
//     the highest-degree nodes are computed once (table.SumStore);
//   - 0-rooting (Section 3.2): with Options.ZeroRooted the size-k level is
//     computed only at color-0 nodes, counting each colorful k-treelet copy
//     exactly once (it has exactly one color-0 node) and cutting both time
//     and table space at the top level;
//   - neighbor buffering (Section 3.3): for nodes of degree ≥
//     Options.BufferThreshold the neighbor records of one size are
//     pre-aggregated into a single sorted record, turning the
//     deg(v)·|r_u|·|r_v| pair scan into deg(v)·|r_u| + |agg|·|r_v| —
//     the same counts, a fraction of the work on hubs;
//   - greedy flushing (Section 3.1): each level pass cuts the vertex range
//     into contiguous shards on a shared work queue, and every completed
//     record is encoded once and appended to its shard's sink — a byte
//     slice, or with Options.Spill, SpillDir or MemBudget a byte range of
//     its worker's spill file (table.DiskStore), so the pass holds one
//     record at a time whatever the level's size. The shards are then
//     concatenated in order into the level arena. Note the scope:
//     completed lower levels stay resident (they are randomly accessed by
//     every later pass and by the sampler), so spilling bounds only what a
//     pass adds on top of them.
//     Larger-than-RAM tables are a serving-side feature: persist with
//     `motivo build -o` and reopen through table.OpenMapped, which serves
//     every level zero-copy off the page cache (see internal/table/mmap.go).
package build

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/memo"
	"repro/internal/table"
	"repro/internal/treelet"
	"repro/internal/u128"
)

// DefaultBufferThreshold is the degree at which neighbor buffering kicks in
// (paper: 10^4).
const DefaultBufferThreshold = 10000

// Options parameterizes the build-up phase.
type Options struct {
	// Workers bounds the vertex-sharded worker pool; 0 = GOMAXPROCS.
	Workers int
	// ZeroRooted enables 0-rooting (Section 3.2): size-k records are
	// computed only at color-0 nodes, each unrooted copy counted once.
	ZeroRooted bool
	// Spill sends every level pass's records to temp files, one per pool
	// worker, instead of in-memory buffers (greedy flushing, Section 3.1;
	// see the package comment for what this does and does not bound).
	// SpillDir or MemBudget also enables it.
	Spill bool
	// SpillDir is the directory for spill files (the default temp dir
	// when empty). Setting it implies Spill.
	SpillDir string
	// BufferThreshold is the degree at which neighbor buffering starts
	// (0 keeps the paper's default of 10^4).
	BufferThreshold int
	// SmartStars enables smart-star synthesis (Section 3.2): star-family
	// treelets (every rooted shape of height ≤ 2) are never materialized —
	// the DP skips producing them, levels below size 4 are not stored at
	// all, and the table synthesizes their records on demand from per-node
	// colored-degree summaries. Counts, estimates and sampled draw
	// sequences are bit-identical to a materialized build at equal seed.
	SmartStars bool
	// MemBudget, when > 0, bounds the build's transient memory (bytes): it
	// implies Spill, so records stream to spill files that are merged into
	// the level arena without an uncompacted level copy ever sitting in
	// RAM, and it lowers the cap on the pool's shared record cache and
	// neighbor-sum store from a fixed 8 MiB to MemBudget/8 (at least 256
	// KiB), whatever the worker count. Completed lower levels stay
	// resident (every later pass random-accesses them); the budget bounds
	// what the pass itself adds on top. Tables are byte-identical with and
	// without it at any worker count.
	MemBudget int64
}

// DefaultOptions returns the paper's defaults: GOMAXPROCS workers,
// 0-rooting on, smart stars on, no spilling, buffering above degree 10^4.
func DefaultOptions() Options {
	return Options{ZeroRooted: true, BufferThreshold: DefaultBufferThreshold, SmartStars: true}
}

// toDisk reports whether level passes write their shards to temp files.
func (o Options) toDisk() bool { return o.Spill || o.SpillDir != "" || o.MemBudget > 0 }

// bufferThreshold returns the effective neighbor-buffering threshold.
func (o Options) bufferThreshold() int {
	if o.BufferThreshold > 0 {
		return o.BufferThreshold
	}
	return DefaultBufferThreshold
}

// workers returns the effective worker count.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Stats reports what the build did, per the measurements the paper's
// evaluation tracks.
type Stats struct {
	// Duration is the wall-clock time of the whole build.
	Duration time.Duration
	// LevelTime[h] is the wall-clock time of the size-h pass (index 0
	// unused).
	LevelTime []time.Duration
	// CheckMergeOps counts check-and-merge operations: one per
	// (colored treelet, colored treelet) pair considered by the inner
	// loop, matching the accounting of the CC baseline so Figure 2's
	// ns/op comparison is apples to apples.
	CheckMergeOps int64
	// Pairs is the number of (key, count) pairs stored in the table.
	Pairs int64
	// TableBytes is the in-memory payload of the final table.
	TableBytes int64
	// SpillBytes is the total size of the spill files written (0 when
	// spilling is off).
	SpillBytes int64
	// BufferedNodes counts node/level passes that took the
	// neighbor-buffered path.
	BufferedNodes int64
	// RecordHits and RecordMisses count the level passes' reads of
	// lower-level records that the build's record cache answered, and
	// those it did not, which decoded the record.
	RecordHits, RecordMisses int64
	// SumNodes is the number of nodes the neighbor-sum store admitted (0
	// when the build materializes stars).
	SumNodes int
}

// Run executes the build-up phase on g under col, filling the count table
// for treelet sizes 1..k using the shapes pre-enumerated in cat. The
// context is checked between level passes and periodically inside the
// vertex loop, so a canceled build returns promptly with ctx.Err() — a
// deadline on the caller bounds the expensive half of the pipeline.
func Run(ctx context.Context, g *graph.Graph, col *coloring.Coloring, k int, cat *treelet.Catalog, opts Options) (*table.Table, *Stats, error) {
	if k < 1 || k > treelet.MaxK {
		return nil, nil, fmt.Errorf("build: k=%d out of range [1,%d]", k, treelet.MaxK)
	}
	if col == nil || col.K != k {
		return nil, nil, fmt.Errorf("build: coloring has %d colors, want %d", colK(col), k)
	}
	if n := g.NumNodes(); len(col.Colors) != n {
		return nil, nil, fmt.Errorf("build: coloring covers %d nodes, graph has %d", len(col.Colors), n)
	}
	if cat == nil || cat.K < k {
		return nil, nil, fmt.Errorf("build: catalog k=%d < build k=%d", catK(cat), k)
	}

	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	b, firstPass, err := newBuilder(g, col, k, cat, opts)
	if err != nil {
		return nil, nil, err
	}
	for h := firstPass; h <= k; h++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if err := b.level(ctx, h); err != nil {
			return nil, nil, err
		}
	}
	b.stats.Duration = time.Since(start)
	b.stats.Pairs = b.tab.Pairs()
	b.stats.TableBytes = b.tab.Bytes()
	return b.tab, b.stats, nil
}

// newBuilder prepares a build of validated inputs up to its first DP
// pass, which it returns: the table with its synthesized or seeded lowest
// levels, and the level passes' caches.
func newBuilder(g *graph.Graph, col *coloring.Coloring, k int, cat *treelet.Catalog, opts Options) (*builder, int, error) {
	b := &builder{
		g: g, col: col, k: k, cat: cat, opts: opts,
		tab:   table.New(g.NumNodes(), k, opts.ZeroRooted),
		stats: &Stats{LevelTime: make([]time.Duration, k+1)},
		ranks: newColorRanks(k),
	}
	if opts.toDisk() {
		// Spill files open on a worker's first record, so a build whose
		// levels store nothing would never touch the spill directory:
		// check once, up front, that it can hold a file.
		probe, err := table.NewDiskStoreBuffered(opts.SpillDir, 0)
		if err != nil {
			return nil, 0, fmt.Errorf("build: spill directory: %w", err)
		}
		if err := probe.Close(); err != nil {
			return nil, 0, fmt.Errorf("build: spill directory: %w", err)
		}
	}
	firstPass := 2
	if opts.SmartStars {
		// Smart stars: sizes 1..3 are fully synthesized from the
		// colored-degree summaries — no DP pass, no stored level. The first
		// DP pass is size 4, reading the synthetic views below it.
		if err := b.tab.EnableSmartStars(g, col); err != nil {
			return nil, 0, err
		}
		firstPass = 4
	} else if err := b.levelOne(); err != nil {
		return nil, 0, err
	}
	// The store takes up to half the cap, highest degrees first, and the
	// record cache the rest.
	cacheBytes := opts.cacheBytes()
	b.sums = table.NewSumStore(b.tab, cacheBytes/2)
	b.recs = memo.New[table.Pairs](int(cacheBytes - b.sums.Bytes()))
	b.stats.SumNodes = b.sums.Nodes()
	return b, firstPass, nil
}

func colK(c *coloring.Coloring) int {
	if c == nil {
		return 0
	}
	return c.K
}

func catK(c *treelet.Catalog) int {
	if c == nil {
		return 0
	}
	return c.K
}

// builder carries the shared state of one Run.
type builder struct {
	g    *graph.Graph
	col  *coloring.Coloring
	k    int
	cat  *treelet.Catalog
	opts Options

	tab   *table.Table
	stats *Stats

	// The caches of the level passes, shared by the pool for the whole
	// build: decoded lower-level records keyed by size<<32 | node, and the
	// neighbor sums of the highest-degree nodes (nil when materialized).
	// Both hold pure functions of completed levels, which never change.
	recs *memo.Memo[table.Pairs]
	sums *table.SumStore

	ranks colorRanks // the dense accumulators' color-set numbering
}

// topLevelSkip reports whether node v is excluded from the size-h pass
// (0-rooting restricts the top level to color-0 nodes).
func (b *builder) topLevelSkip(h int, v int32) bool {
	return b.opts.ZeroRooted && h == b.k && b.col.Of(v) != 0
}

// levelOne seeds the base case: one pair (Leaf, {color(v)}) ↦ 1 per node.
func (b *builder) levelOne() error {
	lvl := time.Now()
	var p table.Pairs
	for v := int32(0); int(v) < b.g.NumNodes(); v++ {
		if b.topLevelSkip(1, v) {
			continue
		}
		p.Reset()
		p.Append(treelet.MakeColored(treelet.Leaf, treelet.Singleton(b.col.Of(v))), u128.One)
		b.tab.SetRec(1, v, &p)
	}
	b.stats.LevelTime[1] = time.Since(lvl)
	return nil
}

// level runs the size-h pass: the vertex range is cut into contiguous
// shards that form a shared work queue, each pool goroutine pulls shards
// off it with one worker for the whole pass, and every record goes to its
// shard's sink in ascending vertex order (shard.go). The merge
// concatenates the shards in order into the level arena (merge.go), so
// the table is byte-identical whatever the schedule, the sink and the
// worker count.
func (b *builder) level(ctx context.Context, h int) error {
	lvl := time.Now()
	n := b.g.NumNodes()
	shards := makeShards(b.g, b.opts.workers())
	ws := make([]*worker, min(b.opts.workers(), len(shards)))
	for i := range ws {
		ws[i] = newWorker(b, h)
	}
	// The spill files go once the merge has read them; this covers error
	// exits mid-pass.
	defer closeSpills(ws)
	// starts[v] is v's record offset within its shard until the merge
	// rebases it; shards own disjoint ranges, so workers write it freely.
	starts := make([]int64, n)
	for i := range starts {
		starts[i] = -1
	}

	var (
		firstErr atomic.Pointer[error]
		cursor   atomic.Int64
		wg       sync.WaitGroup
	)
	wg.Add(len(ws))
	for _, w := range ws {
		go func() {
			defer wg.Done()
			for {
				si := int(cursor.Add(1)) - 1
				if si >= len(shards) || firstErr.Load() != nil {
					break
				}
				if err := b.runShard(ctx, w, &shards[si], starts); err != nil {
					firstErr.CompareAndSwap(nil, &err)
					break
				}
			}
		}()
	}
	wg.Wait()
	if perr := firstErr.Load(); perr != nil {
		return *perr
	}
	for _, w := range ws {
		b.stats.CheckMergeOps += w.ops
		b.stats.BufferedNodes += w.buffered
		b.stats.RecordHits += w.hits
		b.stats.RecordMisses += w.misses
	}
	if h == b.k {
		// No pass reads the caches again: let the merge of the top level,
		// the largest arena, run without them.
		b.recs, b.sums = nil, nil
	}
	if err := b.mergeShards(h, shards, starts); err != nil {
		return err
	}
	if err := closeSpills(ws); err != nil {
		return err
	}
	b.stats.LevelTime[h] = time.Since(lvl)
	return nil
}

// closeSpills removes the workers' spill files and returns the first error.
func closeSpills(ws []*worker) error {
	var first error
	for _, w := range ws {
		if w.spill != nil {
			if err := w.spill.Close(); err != nil && first == nil {
				first = err
			}
			w.spill = nil
		}
	}
	return first
}

// maxCacheBytes caps what the pool keeps of lower levels for the whole
// build: the record cache plus the neighbor-sum store. A pass consults
// each lower-level record once per consumer (deg(v) times across the
// range), and decoding — or, with smart stars, synthesizing — it anew
// every time dominates the pass. Lower levels never change once their
// pass is merged, so what a pass keeps still serves every later pass.
// Bounded-memory builds lower the cap to MemBudget/8, floored so tiny
// budgets still keep the hot lower levels.
const maxCacheBytes = 8 << 20

// cacheBytes returns the build's cache cap.
func (o Options) cacheBytes() int64 {
	if o.MemBudget > 0 {
		return min(maxCacheBytes, max(o.MemBudget/8, 256<<10))
	}
	return maxCacheBytes
}

// worker is the per-goroutine state of one level pass: the dense
// accumulator of the size-h products (and, made on the first
// neighbor-buffered node, one per size for the neighborhood aggregates),
// the decode targets of reads the record cache will not keep (one for v's
// own records, one for its neighbors', which are read while v's is in
// use), the spill file of the shards it runs, and local stat counters
// (merged once at the end, so the hot loop is contention-free).
type worker struct {
	b    *builder
	h    int
	acc  *dense   // size-h products, flushed with the β_T division
	aggs []*dense // aggs[hpp]: neighbor sums of size hpp (neighbor buffering)

	vRec, uRec table.Pairs       // decoded records the cache did not keep
	outBuf     table.Pairs       // the flushed record of the current node
	aggBuf     table.Pairs       // neighbor-buffered aggregate record
	enc        []byte            // packed encoding handed to the sink
	cache      *table.SynthCache // smart-star neighbor sums (nil when materialized)
	spill      *table.DiskStore  // this pass's spill file (Options.toDisk), made on first write

	ops, buffered, hits, misses int64
}

func newWorker(b *builder, h int) *worker {
	w := &worker{b: b, h: h, acc: newDense(b, h, true)}
	if b.opts.SmartStars {
		// Smart inputs are synthesized on read: the store serves the sums
		// of the nodes it admits, and the worker's cache computes another
		// node's sums in one sweep and keeps them across its reads at
		// different sizes.
		w.cache = b.sums.NewCache()
	}
	return w
}

// pairs returns the decoded record of node v at size h from the build's
// record cache, decoding it on a miss: into a new record of exact length
// that the cache publishes, or, once the cache has frozen, into scratch,
// which is then returned (valid until scratch's next use). Records are
// shared and must be treated as read-only.
func (w *worker) pairs(h int, v int32, scratch *table.Pairs) *table.Pairs {
	key := uint64(h)<<32 | uint64(uint32(v))
	p, admits := w.b.recs.Get(key)
	if p != nil {
		w.hits++
		return p
	}
	w.misses++
	scratch.Reset()
	w.b.tab.Rec(h, v).WithCache(w.cache).AppendPairs(scratch)
	if !admits {
		return scratch
	}
	p = &table.Pairs{Keys: slices.Clone(scratch.Keys), Counts: slices.Clone(scratch.Counts)}
	// 8 B of key and 16 B of count per pair, plus the struct and slice
	// headers.
	return w.b.recs.Put(key, p, 24*p.Len()+64)
}

// vertexRecord computes the full size-h record of node v by the
// decomposition recurrence, returning the sorted pairs (backed by worker
// scratch, valid until the next call).
func (w *worker) vertexRecord(v int32) *table.Pairs {
	b := w.b
	deg := b.g.Degree(v)
	useBuffer := deg >= b.opts.bufferThreshold()
	if useBuffer {
		w.buffered++
	}
	for hpp := 1; hpp < w.h; hpp++ {
		hp := w.h - hpp
		rv := w.pairs(hp, v, &w.vRec)
		if rv.Len() == 0 {
			continue
		}
		if useBuffer {
			// Neighbor buffering: Σ_u Σ c(T',v)·c(T'',u) factors as
			// Σ c(T',v)·(Σ_u c(T'',u)) — aggregate the neighborhood once,
			// then combine against a single record.
			w.aggregateNeighbors(v, hpp)
			if w.aggBuf.Len() == 0 {
				continue
			}
			w.combine(&w.aggBuf, rv)
			continue
		}
		for _, u := range b.g.Neighbors(v) {
			ru := w.pairs(hpp, u, &w.uRec)
			if ru.Len() == 0 {
				continue
			}
			w.combine(ru, rv)
		}
	}
	w.acc.flush(&w.outBuf)
	return &w.outBuf
}

// aggregateNeighbors sums the size-hpp records of v's neighbors into
// w.aggBuf as one sorted pair list.
func (w *worker) aggregateNeighbors(v int32, hpp int) {
	if w.aggs == nil {
		w.aggs = make([]*dense, w.h)
	}
	agg := w.aggs[hpp]
	if agg == nil {
		agg = newDense(w.b, hpp, false)
		w.aggs[hpp] = agg
	}
	for _, u := range w.b.g.Neighbors(v) {
		ru := w.pairs(hpp, u, &w.uRec)
		for i, key := range ru.Keys {
			agg.add(agg.base(key.Tree())+int(w.b.ranks.rank[key.Colors()]), ru.Counts[i])
		}
		w.ops += int64(ru.Len())
	}
	agg.flush(&w.aggBuf)
}

// combine walks the shape runs of ru (first-child side T”) and rv
// (remainder side T'), performs one succinct check-and-merge per run pair,
// and accumulates the color-disjoint products into the dense accumulator.
// Pair keys sort by (treelet, colorset), so each shape's colorings are
// contiguous.
func (w *worker) combine(ru, rv *table.Pairs) {
	cat, acc, rank := w.b.cat, w.acc, w.b.ranks.rank
	smart := w.b.opts.SmartStars
	i := 0
	for i < ru.Len() {
		tpp := ru.Keys[i].Tree()
		iEnd := i + 1
		for iEnd < ru.Len() && ru.Keys[iEnd].Tree() == tpp {
			iEnd++
		}
		// Merge(tp, tpp) has height max(height(tp), height(tpp)+1); with
		// smart stars every height-≤2 result is synthesized on demand, so
		// the DP never produces it — the star half of the smart-star win.
		hpp := cat.Height(tpp)
		j := 0
		for j < rv.Len() {
			tp := rv.Keys[j].Tree()
			jEnd := j + 1
			for jEnd < rv.Len() && rv.Keys[jEnd].Tree() == tp {
				jEnd++
			}
			if smart && hpp <= 1 && cat.Height(tp) <= 2 {
				j = jEnd
				continue
			}
			// One pair of shape runs = (iEnd-i)·(jEnd-j) candidate pairs;
			// count them all, as CC does, whether or not the merge is
			// canonical.
			w.ops += int64(iEnd-i) * int64(jEnd-j)
			// The check: T'' must not come after the first child of T'.
			// One integer comparison on succinct codes (vs CC's recursive
			// pointer walk).
			if tp == treelet.Leaf || tpp <= cat.FirstChild(tp) {
				base := acc.base(treelet.Merge(tp, tpp))
				for a := i; a < iEnd; a++ {
					cs := ru.Keys[a].Colors()
					cu := ru.Counts[a]
					for bi := j; bi < jEnd; bi++ {
						cp := rv.Keys[bi].Colors()
						if !cp.Disjoint(cs) {
							continue
						}
						acc.add(base+int(rank[cp|cs]), rv.Counts[bi].Mul(cu))
					}
				}
			}
			j = jEnd
		}
		i = iEnd
	}
}

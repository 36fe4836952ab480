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
// Performance machinery implemented here, matching the paper:
//
//   - a vertex-sharded worker pool: nodes of a level are processed
//     concurrently by Options.Workers goroutines (0 = GOMAXPROCS), which
//     share one cap on their decoded-record memos; each node's record
//     only reads completed lower levels, so the result is bit-identical
//     regardless of scheduling;
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
//     slice, or with Options.Spill, SpillDir or MemBudget a temp file
//     through table.DiskStore, so the pass holds one record at a time
//     whatever the level's size. The shards are then concatenated in order
//     into the level arena. Note the scope: completed lower levels stay
//     resident (they are randomly accessed by every later pass and by the
//     sampler), so spilling bounds only what a pass adds on top of them.
//     Larger-than-RAM tables are a serving-side feature: persist with
//     `motivo build -o` and reopen through table.OpenMapped, which serves
//     every level zero-copy off the page cache (see internal/table/mmap.go).
package build

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coloring"
	"repro/internal/graph"
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
	// Spill sends every level pass's records to per-shard temp files
	// instead of in-memory buffers (greedy flushing, Section 3.1; see the
	// package comment for what this does and does not bound). SpillDir or
	// MemBudget also enables it.
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
	// implies Spill, so records stream to per-shard spill files that are
	// merged into the level arena without an uncompacted level copy ever
	// sitting in RAM, and it lowers the cap on the worker pool's
	// decoded-record memos from a fixed 8 MiB to roughly MemBudget/8,
	// split evenly over the workers. Completed lower levels stay resident
	// (every later pass random-accesses them); the budget bounds what the
	// pass itself adds on top. Tables are byte-identical with and without
	// it at any worker count.
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
	n := g.NumNodes()
	if len(col.Colors) != n {
		return nil, nil, fmt.Errorf("build: coloring covers %d nodes, graph has %d", len(col.Colors), n)
	}
	if cat == nil || cat.K < k {
		return nil, nil, fmt.Errorf("build: catalog k=%d < build k=%d", catK(cat), k)
	}

	start := time.Now()
	b := &builder{
		g: g, col: col, k: k, cat: cat, opts: opts,
		tab:   table.New(n, k, opts.ZeroRooted),
		stats: &Stats{LevelTime: make([]time.Duration, k+1)},
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if opts.toDisk() {
		// Shard sinks open on a shard's first record, so a build whose
		// levels store nothing would never touch the spill directory:
		// check once, up front, that it can hold a file.
		probe, err := table.NewDiskStoreBuffered(opts.SpillDir, 0)
		if err != nil {
			return nil, nil, fmt.Errorf("build: spill directory: %w", err)
		}
		if err := probe.Close(); err != nil {
			return nil, nil, fmt.Errorf("build: spill directory: %w", err)
		}
	}
	firstPass := 2
	if opts.SmartStars {
		// Smart stars: sizes 1..3 are fully synthesized from the
		// colored-degree summaries — no DP pass, no stored level. The first
		// DP pass is size 4, reading the synthetic views below it.
		if err := b.tab.EnableSmartStars(g, col); err != nil {
			return nil, nil, err
		}
		firstPass = 4
	} else if err := b.levelOne(); err != nil {
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
// off it with one worker (and so one decoded-record memo) for the whole
// pass, and every record goes to its shard's sink in ascending vertex
// order (shard.go). The merge concatenates the shards in order into the
// level arena (merge.go), so the table is byte-identical whatever the
// schedule, the sink and the worker count.
func (b *builder) level(ctx context.Context, h int) error {
	lvl := time.Now()
	n := b.g.NumNodes()
	shards := makeShards(b.g, b.opts.workers())
	defer func() {
		// The merge releases each sink it consumed; this sweep covers
		// error exits mid-pass.
		for i := range shards {
			shards[i].close()
		}
	}()
	// starts[v] is v's record offset within its shard until the merge
	// rebases it; shards own disjoint ranges, so workers write it freely.
	starts := make([]int64, n)
	for i := range starts {
		starts[i] = -1
	}

	var (
		ops      int64
		buffered int64
		firstErr atomic.Pointer[error]
		cursor   atomic.Int64
		wg       sync.WaitGroup
	)
	workers := min(b.opts.workers(), len(shards))
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			w := newWorker(b, h)
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
			atomic.AddInt64(&ops, w.ops)
			atomic.AddInt64(&buffered, w.buffered)
		}()
	}
	wg.Wait()
	if perr := firstErr.Load(); perr != nil {
		return *perr
	}
	b.stats.CheckMergeOps += ops
	b.stats.BufferedNodes += buffered

	if err := b.mergeShards(h, shards, starts); err != nil {
		return err
	}
	b.stats.LevelTime[h] = time.Since(lvl)
	return nil
}

// maxMemoBytes caps the decoded-record memos of one level pass: a pass
// consults each lower-level record once per consumer (deg(v) times across
// the range), and decoding — or, with smart stars, synthesizing — it anew
// every time dominates the pass. Each pool goroutine keeps its memo for
// the whole pass, so the cap is shared by the pool, an equal slice per
// worker: more workers split it instead of multiplying it. When a
// worker's slice fills, its memo is simply dropped and refills
// (correctness never depends on it).
const maxMemoBytes = 8 << 20

// worker is the per-goroutine state of the level pass: the accumulation
// map, the decoded-record memo (lower levels are packed or synthesized;
// each record consulted is materialized into slice form at most once per
// pass), and local stat counters (merged once at the end, so the hot loop
// is contention-free).
type worker struct {
	b   *builder
	h   int
	acc map[treelet.Colored]u128.Uint128

	recMemo   map[int64]*table.Pairs // decoded (size, node) records
	memoBytes int64                  // approximate decoded bytes held by recMemo
	memoLimit int64                  // this worker's slice of maxMemoBytes (or of MemBudget)
	outBuf    table.Pairs            // sorted result of the accumulation map
	aggBuf    table.Pairs            // neighbor-buffered aggregate record
	enc       []byte                 // packed encoding handed to the sink
	cache     *table.SynthCache      // smart-star neighbor sums (nil when materialized)

	ops      int64
	buffered int64
}

func newWorker(b *builder, h int) *worker {
	workers := int64(b.opts.workers())
	w := &worker{
		b: b, h: h,
		acc:       make(map[treelet.Colored]u128.Uint128),
		recMemo:   make(map[int64]*table.Pairs),
		memoLimit: maxMemoBytes / workers,
	}
	if b.opts.SmartStars {
		// Smart inputs are synthesized on read; the per-worker cache keeps
		// a node's neighbor sums across its reads at different sizes.
		w.cache = table.NewSynthCache()
	}
	if budget := b.opts.MemBudget; budget > 0 {
		// Bounded-memory builds lower the cap: the worker pool's memos are
		// the one scratch structure that scales with record size, so they
		// get an equal slice of a fraction of the budget (floored so tiny
		// budgets still memoize the hot lower levels).
		w.memoLimit = min(w.memoLimit, max(budget/(8*workers), 256<<10))
	}
	return w
}

// pairs returns the decoded record of node v at size h, memoized per
// worker. The result is shared and must be treated as read-only.
func (w *worker) pairs(h int, v int32) *table.Pairs {
	key := int64(h)<<32 | int64(uint32(v))
	if p, ok := w.recMemo[key]; ok {
		return p
	}
	p := new(table.Pairs)
	w.b.tab.Rec(h, v).WithCache(w.cache).AppendPairs(p)
	if w.memoBytes > w.memoLimit {
		// Cap hit: drop the memo and let it refill (correctness never
		// depends on it, only the recompute rate).
		clear(w.recMemo)
		w.memoBytes = 0
	}
	w.recMemo[key] = p
	w.memoBytes += int64(24*p.Len()) + 64 // 8B key + 16B count per pair, plus slice headers
	return p
}

// vertexRecord computes the full size-h record of node v by the
// decomposition recurrence, returning the sorted pairs (backed by worker
// scratch, valid until the next call).
func (w *worker) vertexRecord(v int32) *table.Pairs {
	b := w.b
	clear(w.acc)
	deg := b.g.Degree(v)
	useBuffer := deg >= b.opts.bufferThreshold()
	if useBuffer {
		w.buffered++
	}
	for hpp := 1; hpp < w.h; hpp++ {
		hp := w.h - hpp
		rv := w.pairs(hp, v)
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
			ru := w.pairs(hpp, u)
			if ru.Len() == 0 {
				continue
			}
			w.combine(ru, rv)
		}
	}
	w.outBuf.Reset()
	if len(w.acc) == 0 {
		return &w.outBuf
	}
	// β_T correction: the recurrence generated each copy once per
	// identical first child; the division is exact.
	for key, c := range w.acc {
		if beta := b.cat.Beta(key.Tree()); beta > 1 {
			q, _ := c.QuoRem64(uint64(beta))
			w.acc[key] = q
		}
	}
	w.outBuf.FromMap(w.acc)
	return &w.outBuf
}

// aggregateNeighbors sums the size-hpp records of v's neighbors into
// w.aggBuf as one sorted pair list.
func (w *worker) aggregateNeighbors(v int32, hpp int) {
	b := w.b
	agg := make(map[treelet.Colored]u128.Uint128)
	for _, u := range b.g.Neighbors(v) {
		ru := w.pairs(hpp, u)
		for i := 0; i < ru.Len(); i++ {
			agg[ru.Keys[i]] = agg[ru.Keys[i]].Add(ru.Counts[i])
			w.ops++
		}
	}
	w.aggBuf.Reset()
	w.aggBuf.FromMap(agg)
}

// combine walks the shape runs of ru (first-child side T”) and rv
// (remainder side T'), performs one succinct check-and-merge per run pair,
// and accumulates the color-disjoint products into the map. Pair keys
// sort by (treelet, colorset), so each shape's colorings are contiguous.
func (w *worker) combine(ru, rv *table.Pairs) {
	cat := w.b.cat
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
				merged := treelet.Merge(tp, tpp)
				for a := i; a < iEnd; a++ {
					cs := ru.Keys[a].Colors()
					cu := ru.Counts[a]
					for bi := j; bi < jEnd; bi++ {
						cp := rv.Keys[bi].Colors()
						if !cp.Disjoint(cs) {
							continue
						}
						key := treelet.MakeColored(merged, cp|cs)
						w.acc[key] = w.acc[key].Add(rv.Counts[bi].Mul(cu))
					}
				}
			}
			j = jEnd
		}
		i = iEnd
	}
}

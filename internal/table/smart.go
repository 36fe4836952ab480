package table

// Smart stars (paper, Section 3.2 "smart stars"): star-shaped treelets have
// closed-form colorful counts — the star S_h rooted at its center v with
// color set C has exactly ∏_{c ∈ C\{col(v)}} d_c(v) colorful copies, where
// d_c(v) is v's c-colored degree. Materializing those records through the
// dynamic program wastes both build time and table bytes, so a smart table
// never stores them: it keeps one compact colored-degree summary per node
// (k small counters) and synthesizes star records on demand behind the same
// View interface the samplers already read through.
//
// This implementation closes the family under one more level: every rooted
// treelet of height ≤ 2 ("stars of stars" — a root whose child subtrees are
// all stars) is synthesizable from the degree summaries alone, because
// disjoint color sets make the child choices independent:
//
//	c(T_C, v) = Σ_{ {C_1,…,C_p} partition of C\{col v} }  ∏_i w_v(C_i)
//	w_v(C')   = Σ_{u ~ v, col(u) ∈ C'}  ∏_{c ∈ C'\{col u}} d_c(u)
//
// where the partition parts match the child star sizes and parts assigned
// to identical child shapes are taken unordered (which is exactly the β_T
// correction of the DP, performed combinatorially instead of by division).
// Distinctness of all k nodes is guaranteed by the disjoint colors, the
// same argument the color-coding DP rests on, so the synthesized counts are
// entry-identical to what the DP would have materialized.
//
// Evaluation. The neighbor sums w_v(C') of one node live in a dense array
// indexed by color set, held in a node slot of the reading goroutine's
// SynthCache. Every read — a whole record (View.Each, Total and everything
// built on them) or a single shape or key (Count, ShapeEach, ShapeTotal,
// SampleShape) — computes only the sums its partitions use, each with one
// sweep over v's neighbors on first use, and keeps them in the slot, so a
// node read at several sizes or shapes in a row computes each sum once.
// The build pool also shares a SumStore (sumstore.go), which computes all
// the sums of its highest-degree nodes once per build; a cache made from
// it reads those nodes there and takes no slot for them, and fills its
// slots for the other nodes the same way, all sums in one sweep, because
// the build reads whole records.
// ShapeEach also takes the color set its entries must lie in and walks only
// the colorings inside it, so a sampling sweep never synthesizes an entry
// it would drop.
// Partitions are walked over the array with subset loops and plain
// recursion, no closures. Counts are u128 sums, and wrapping arithmetic is
// a commutative ring, so the order in which terms are summed never changes
// a count.
//
// Height ≤ 2 covers every treelet of size ≤ 3, so a smart table stores no
// levels below size 4 at all — no arenas, no offset indexes — and levels
// ≥ 4 store only the height-≥ 3 shapes. On the ER benchmark graph at k=6
// this cuts total table bytes by ~2.7x (see TestSmartStarsTableBytes).

import (
	"fmt"
	"math/bits"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/treelet"
	"repro/internal/u128"
)

// maxSynthHeight is the largest rooted-treelet height the degree summaries
// can synthesize: 0 (leaf), 1 (star at its center), 2 (star of stars).
const maxSynthHeight = 2

// minStoredSize is the smallest treelet size with any materialized shape:
// every rooted tree on ≤ 3 nodes has height ≤ 2, so smart tables store no
// level below it.
const minStoredSize = 4

// starGroup is one run of identical star-shaped child subtrees of a
// synthesized shape's root: mult children of size nodes each.
type starGroup struct {
	size int
	mult int
}

// synthShape is one synthesized (height ≤ 2) rooted treelet shape: its code
// and the star sizes of its child subtrees, grouped by multiplicity in
// descending size order — the order the partition walk places them in, so
// the leaf children, whose product needs no enumeration, come last.
type synthShape struct {
	t      treelet.Treelet
	groups []starGroup
}

// widest returns the node count of the shape's largest child star (0 for
// the single-node shape).
func (sh *synthShape) widest() int {
	if len(sh.groups) == 0 {
		return 0
	}
	return sh.groups[0].size
}

// smartState is the synthesis machinery of a smart table: the graph, the
// node colors, the packed colored-degree summaries, and the synthesized
// shape directory per treelet size. All fields are immutable once attached,
// so Views over a smart table stay safe for concurrent readers.
type smartState struct {
	k      int
	g      *graph.Graph // nil between Load and AttachGraph
	colors []uint8
	deg    []uint32 // deg[v*k+c] = number of neighbors of v with color c

	synth [][]synthShape // synth[h]: synthesized shapes of size h, code order
}

// SmartStars reports whether the table synthesizes star-family records from
// colored-degree summaries instead of storing them.
func (t *Table) SmartStars() bool { return t.smart != nil }

// GraphAttached reports whether a smart table has its host graph bound (a
// freshly loaded table does not, until AttachGraph).
func (t *Table) GraphAttached() bool { return t.smart != nil && t.smart.g != nil }

// colorDegrees computes the per-node colored-degree summary of g under
// colors: k counters per node.
func colorDegrees(g *graph.Graph, colors []uint8, k int) []uint32 {
	deg := make([]uint32, g.NumNodes()*k)
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		row := deg[int(v)*k : int(v)*k+k]
		for _, u := range g.Neighbors(v) {
			row[colors[u]]++
		}
	}
	return deg
}

// newSmartState builds the immutable synthesis directory for size k.
func newSmartState(k int) *smartState {
	cat := treelet.NewCatalog(k)
	s := &smartState{k: k, synth: make([][]synthShape, k+1)}
	for h := 1; h <= k; h++ {
		for _, t := range cat.BySize[h] {
			if cat.Height(t) > maxSynthHeight {
				continue
			}
			sh := synthShape{t: t}
			children := t.Children() // ascending size
			for i := len(children) - 1; i >= 0; i-- {
				n := children[i].Size()
				if m := len(sh.groups); m > 0 && sh.groups[m-1].size == n {
					sh.groups[m-1].mult++
				} else {
					sh.groups = append(sh.groups, starGroup{size: n, mult: 1})
				}
			}
			s.synth[h] = append(s.synth[h], sh)
		}
	}
	return s
}

// shape returns the directory entry of a synthesized shape, or nil when t
// is stored (or not a treelet of this table).
func (s *smartState) shape(t treelet.Treelet) *synthShape {
	h := t.Size()
	if h > s.k {
		return nil
	}
	shs := s.synth[h]
	lo, hi := 0, len(shs)
	for lo < hi {
		mid := (lo + hi) / 2
		if shs[mid].t < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(shs) && shs[lo].t == t {
		return &shs[lo]
	}
	return nil
}

// EnableSmartStars switches a freshly created table into smart mode: star
// and star-of-stars records are synthesized from colored-degree summaries
// of g under col, and levels below minStoredSize are never stored. It must
// be called before any record is installed (the build phase calls it right
// after New).
func (t *Table) EnableSmartStars(g *graph.Graph, col *coloring.Coloring) error {
	if col == nil || col.K != t.K {
		return fmt.Errorf("table: smart stars need a %d-coloring", t.K)
	}
	if g.NumNodes() != t.N || len(col.Colors) != t.N {
		return fmt.Errorf("table: smart stars: graph has %d nodes, coloring %d, table %d",
			g.NumNodes(), len(col.Colors), t.N)
	}
	for h := 1; h <= t.K; h++ {
		if len(t.levels[h].arena) > 0 {
			return fmt.Errorf("table: EnableSmartStars on a table with stored records")
		}
	}
	s := newSmartState(t.K)
	s.g = g
	s.colors = col.Colors
	s.deg = colorDegrees(g, col.Colors, t.K)
	t.smart = s
	for h := 1; h <= t.K && h < minStoredSize; h++ {
		t.levels[h] = level{} // fully synthetic: no arena, no offset index
	}
	return nil
}

// setSmartFromFile installs the smart state of a loaded table: colors and
// degree summaries come from the file; the graph arrives later through
// AttachGraph (which cross-checks the summaries against it).
func (t *Table) setSmartFromFile(colors []uint8, deg []uint32) {
	s := newSmartState(t.K)
	s.colors = colors
	s.deg = deg
	t.smart = s
	for h := 1; h <= t.K && h < minStoredSize; h++ {
		t.levels[h] = level{}
	}
}

// AttachGraph binds the host graph to a smart table loaded from disk.
// Synthesis walks adjacency, so a smart table cannot serve queries until
// the graph is attached; the stored degree summaries are verified against
// the graph, which catches a table paired with the wrong graph (or the
// wrong node order) at open time instead of as silently wrong counts.
func (t *Table) AttachGraph(g *graph.Graph) error {
	if t.smart == nil {
		return nil
	}
	if g.NumNodes() != t.N {
		return fmt.Errorf("table: graph has %d nodes, table %d", g.NumNodes(), t.N)
	}
	want := colorDegrees(g, t.smart.colors, t.K)
	for i, d := range want {
		if t.smart.deg[i] != d {
			return fmt.Errorf("table: colored-degree summary of node %d disagrees with the graph (wrong graph for this table?)", i/t.K)
		}
	}
	t.smart.g = g
	return nil
}

// synthesized reports whether shape records are synthesized rather than
// stored (smart tables only; the shape must belong to the catalog).
func (t *Table) synthesized(shape treelet.Treelet) bool {
	return t.smart != nil && t.smart.shape(shape) != nil
}

// --- the synthesis cache ------------------------------------------------------

// synthSlots is the number of node slots in a SynthCache: the nesting the
// samplers use — a ShapeEach at one node whose callback counts at another
// — needs two.
const synthSlots = 2

// SynthCache holds the neighbor sums w_v(C') of star synthesis for the
// two nodes a goroutine read most recently, one dense array of 2^k sums
// per node slot, so its size depends only on k. The sums depend only on
// the (immutable) colored-degree summaries, so they never go stale; the
// cache exists because the build DP reads a node's records at several
// sizes in a row, and a sampling sweep counts at the same node for every
// candidate it checks. A cache made by SumStore.NewCache reads the nodes
// the store admits from the store, which the pool of build workers shares,
// and keeps only the other nodes in its slots. Such a cache fills a slot
// the way the store fills a node, every sum at once in one sweep: the
// build reads whole records, for which that costs less than one sweep per
// sum read. The cache itself is goroutine-local — each build worker and
// each Urn owns one, mirroring how the urn's neighbor buffers are
// goroutine-local. Reading another table through it drops what it held.
// A nil cache is valid: every sum is then computed on demand and not kept.
type SynthCache struct {
	s     *smartState // the state the slots were filled from
	slots [synthSlots]synthSlot
	store *SumStore // shared sums of admitted nodes; nil reads none
}

// synthSlot holds the neighbor sums of one node: w[S] is valid when bit S
// of known is set. Sums over a single color are never stored: they are the
// node's own colored degrees.
type synthSlot struct {
	v      int32
	filled bool   // w holds every sum, indexed by squeeze (caches over a store)
	pins   int    // walks in progress over this slot; a pinned slot is never reassigned
	used   uint64 // tick of the last acquire, for least-recently-used reuse
	w      []u128.Uint128
	known  []uint64
}

// NewSynthCache returns an empty cache. Its slots are allocated on first
// use, sized from the k of the table read through it.
func NewSynthCache() *SynthCache { return &SynthCache{} }

// acquire returns the slot of node v, pinned until release: v's own slot
// when the cache holds one, else the least recently used unpinned slot,
// emptied for v. It returns nil — synthesize without keeping sums — for a
// nil cache and when every slot is pinned by an enclosing walk.
func (c *SynthCache) acquire(s *smartState, v int32) *synthSlot {
	if c == nil {
		return nil
	}
	if c.s != s {
		for i := range c.slots {
			if c.slots[i].pins > 0 {
				return nil
			}
		}
		c.s = s
		for i := range c.slots {
			c.slots[i].v = -1
		}
	}
	// The acquire's tick is one past the newest slot's.
	var tick uint64
	for i := range c.slots {
		tick = max(tick, c.slots[i].used+1)
	}
	var victim *synthSlot
	for i := range c.slots {
		sl := &c.slots[i]
		if sl.v == v {
			sl.pins++
			sl.used = tick
			return sl
		}
		if sl.pins == 0 && (victim == nil || sl.used < victim.used) {
			victim = sl
		}
	}
	if victim == nil {
		return nil
	}
	if n := 1 << s.k; len(victim.w) != n {
		victim.w = make([]u128.Uint128, n)
		victim.known = make([]uint64, (n+63)/64)
	} else {
		clear(victim.known)
	}
	victim.v, victim.pins, victim.used, victim.filled = v, 1, tick, false
	return victim
}

// --- the closed-form counts -------------------------------------------------

// nodeSynth evaluates synthesized counts at one node v: its color, its
// colored degrees, and where its neighbor sums come from — the store's
// complete array, or else the slot keeping them as they are computed (nil
// when the sums are not kept).
type nodeSynth struct {
	s    *smartState
	v    int32
	own  treelet.ColorSet
	row  []uint32 // d_c(v) per color c
	sums []u128.Uint128
	slot *synthSlot
}

// node prepares synthesis at v through cache c for counts whose child
// stars have at most part nodes; call release when done. Only a child star
// of two or more nodes reads a neighbor sum, so only then is a slot taken:
// leaf-only counts never evict the sums of another node.
func (s *smartState) node(v int32, c *SynthCache, part int) nodeSynth {
	n := nodeSynth{
		s:   s,
		v:   v,
		own: treelet.Singleton(s.colors[v]),
		row: s.deg[int(v)*s.k : int(v)*s.k+s.k],
	}
	if part >= 2 {
		if n.sums = c.stored(s, v); n.sums == nil {
			n.slot = c.acquire(s, v)
			if n.slot != nil && c.store != nil {
				n.sums = n.slot.fill(s, v)
			}
		}
	}
	return n
}

// fill makes the slot hold every neighbor sum of v, indexed by squeeze as
// the store's are, computing them with one sweep on first use, and returns
// them.
func (sl *synthSlot) fill(s *smartState, v int32) []u128.Uint128 {
	w := sl.w[:1<<(s.k-1)]
	if !sl.filled {
		clear(w)
		s.fillSums(v, w)
		sl.filled = true
	}
	return w
}

// stored returns v's sums from the cache's store, or nil when the cache
// has no store or the store does not admit v.
func (c *SynthCache) stored(s *smartState, v int32) []u128.Uint128 {
	if c == nil || c.store == nil {
		return nil
	}
	return c.store.lookup(s, v)
}

// release unpins the node's slot.
func (n *nodeSynth) release() {
	if n.slot != nil {
		n.slot.pins--
	}
}

// neighborSum computes w_v(cs) = Σ_{u~v, col(u)∈cs} ∏_{c∈cs\{col u}} d_c(u)
// with one neighbor sweep: the number of colorful stars with color set cs
// centered at a neighbor of v.
func (s *smartState) neighborSum(v int32, cs treelet.ColorSet) u128.Uint128 {
	total := u128.Zero
	for _, u := range s.g.Neighbors(v) {
		cu := s.colors[u]
		if !cs.Has(cu) {
			continue
		}
		row := s.deg[int(u)*s.k : int(u)*s.k+s.k]
		prod := u128.One
		for rest := cs &^ treelet.Singleton(cu); rest != 0; rest &= rest - 1 {
			d := row[bits.TrailingZeros16(uint16(rest))]
			if d == 0 {
				prod = u128.Zero
				break
			}
			prod = prod.Mul64(uint64(d))
		}
		total = total.Add(prod)
	}
	return total
}

// term returns w_v(cs) for |cs| ≥ 1: v's colored degree for a single
// color, else the store's sum, or the slot's, computed on demand and kept
// when missing.
func (n *nodeSynth) term(cs treelet.ColorSet) u128.Uint128 {
	if cs&(cs-1) == 0 {
		return u128.From64(uint64(n.row[bits.TrailingZeros16(uint16(cs))]))
	}
	if n.sums != nil {
		return n.sums[squeeze(cs, n.own)]
	}
	sl := n.slot
	if sl == nil {
		return n.s.neighborSum(n.v, cs)
	}
	word, bit := cs>>6, uint64(1)<<(cs&63)
	if sl.known[word]&bit != 0 {
		return sl.w[cs]
	}
	w := n.s.neighborSum(n.v, cs)
	sl.w[cs] = w
	sl.known[word] |= bit
	return w
}

// split sums ∏_i w_v(C_i) over the partitions of rest into the child stars
// of groups (rest holds exactly as many colors as the children nodes).
func (n *nodeSynth) split(groups []starGroup, rest treelet.ColorSet) u128.Uint128 {
	switch len(groups) {
	case 0:
		return u128.One // the single-node treelet: rest is empty
	case 1:
		return n.cover(groups[0].size, groups[0].mult, rest)
	}
	return n.parts(groups, groups[0].mult, rest, 0)
}

// parts places the left remaining children of groups[0] and then the
// later groups into avail; prev is the part placed last in groups[0] (0 at
// its start). Parts of one group are placed in ascending order of their
// lowest color, which counts each unordered choice among identical child
// stars once — the combinatorial form of the DP's β_T division.
func (n *nodeSynth) parts(groups []starGroup, left int, avail, prev treelet.ColorSet) u128.Uint128 {
	if left == 0 {
		groups = groups[1:]
		if len(groups) == 1 {
			return n.cover(groups[0].size, groups[0].mult, avail)
		}
		left, prev = groups[0].mult, 0
	}
	from := avail
	if prev != 0 {
		from &^= (prev&-prev)<<1 - 1
	}
	total := u128.Zero
	for part := firstSubset(from, groups[0].size); part != 0; part = nextSubset(from, part) {
		w := n.term(part)
		if w.IsZero() {
			continue
		}
		if r := n.parts(groups, left-1, avail&^part, part); !r.IsZero() {
			total = total.Add(w.Mul(r))
		}
	}
	return total
}

// cover sums over the ways to split avail exactly into count identical
// child stars of size colors each: leaves multiply v's own colored
// degrees, larger stars take the lowest remaining color in each next part.
func (n *nodeSynth) cover(size, count int, avail treelet.ColorSet) u128.Uint128 {
	if size == 1 {
		prod := u128.One
		for ; avail != 0; avail &= avail - 1 {
			d := n.row[bits.TrailingZeros16(uint16(avail))]
			if d == 0 {
				return u128.Zero
			}
			prod = prod.Mul64(uint64(d))
		}
		return prod
	}
	if count == 1 {
		return n.term(avail)
	}
	low := avail & -avail
	from := avail &^ low
	total := u128.Zero
	for sub := firstSubset(from, size-1); sub != 0; sub = nextSubset(from, sub) {
		w := n.term(low | sub)
		if w.IsZero() {
			continue
		}
		if r := n.cover(size, count-1, from&^sub); !r.IsZero() {
			total = total.Add(w.Mul(r))
		}
	}
	return total
}

// count computes the synthesized c(T_C, v) for a height-≤2 shape.
func (n *nodeSynth) count(sh *synthShape, cs treelet.ColorSet) u128.Uint128 {
	if cs&n.own == 0 || cs.Card() != sh.t.Size() {
		return u128.Zero
	}
	return n.split(sh.groups, cs&^n.own)
}

// shapeEach enumerates the synthesized entries of one shape at the node
// whose child colors lie in avail (a subset of others: whole-record reads
// pass others itself), in ascending color-set order, calling fn for every
// nonzero count; fn returns false to stop early. The return value reports
// whether the walk ran to completion.
func (n *nodeSynth) shapeEach(sh *synthShape, avail treelet.ColorSet, fn func(treelet.Colored, u128.Uint128) bool) bool {
	if len(sh.groups) == 0 {
		return fn(treelet.MakeColored(sh.t, n.own), u128.One)
	}
	for rest := firstSubset(avail, sh.t.Size()-1); rest != 0; rest = nextSubset(avail, rest) {
		cnt := n.split(sh.groups, rest)
		if cnt.IsZero() {
			continue
		}
		if !fn(treelet.MakeColored(sh.t, rest|n.own), cnt) {
			return false
		}
	}
	return true
}

// shapeTotal sums the synthesized entries of one shape at the node.
func (n *nodeSynth) shapeTotal(sh *synthShape) u128.Uint128 {
	if len(sh.groups) == 0 {
		return u128.One
	}
	tot := u128.Zero
	avail := n.others()
	for rest := firstSubset(avail, sh.t.Size()-1); rest != 0; rest = nextSubset(avail, rest) {
		tot = tot.Add(n.split(sh.groups, rest))
	}
	return tot
}

// others returns every color but the node's own: the colors its children
// take.
func (n *nodeSynth) others() treelet.ColorSet {
	return (treelet.ColorSet(1)<<n.s.k - 1) &^ n.own
}

// firstSubset returns the smallest n-color subset of m (its n lowest
// colors), or 0 when m has fewer than n colors; n ≥ 1.
func firstSubset(m treelet.ColorSet, n int) treelet.ColorSet {
	var x treelet.ColorSet
	for ; n > 0; n-- {
		if m == 0 {
			return 0
		}
		low := m & -m
		x |= low
		m &^= low
	}
	return x
}

// nextSubset returns the next larger subset of m with as many colors as x,
// or 0 after the last — Gosper's hack on the colors of m: the carry of
// adding x's lowest color runs through x's lowest run of colors (and every
// color outside m) to the next free color of m, and the run, less the
// color that moved, restarts at m's lowest colors.
func nextSubset(m, x treelet.ColorSet) treelet.ColorSet {
	r := ((x | ^m) + x&-x) & m
	if r == 0 {
		return 0
	}
	for fill, need := m, x.Card()-r.Card(); need > 0; need-- {
		low := fill & -fill
		r |= low
		fill &^= low
	}
	return r
}

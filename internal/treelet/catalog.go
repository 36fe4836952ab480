package treelet

import (
	"fmt"
	"sort"
	"sync"
)

// Catalog pre-enumerates every canonical rooted treelet on up to k nodes
// and caches the decomposition data the dynamic program needs in its inner
// loop: the first-child code, the remainder code, βT and the height. It
// also maps each size-k rooted shape to its unrooted canonical form, the
// grouping AGS samples by.
//
// The inner-loop data is indexed, not hashed: every catalog treelet has a
// dense id, and a code reaches its entry through one table lookup. A code
// on at most K nodes is MSB-aligned in its top 2(K−1) bits, so those bits
// alone tell catalog treelets apart and index a table of 2^(2(K−1)) uint16
// ids — 2 KiB at k = 6, 2 MiB at k = 11.
//
// A Catalog is immutable once built and shared by the whole process, so
// callers must not modify its exported slices; it is safe for concurrent
// use.
type Catalog struct {
	K int
	// BySize[s] lists canonical treelets of size s in increasing code order.
	BySize [][]Treelet

	shift   uint     // code >> shift is the code's slot in index
	index   []uint16 // code slot → position in entries
	entries []entry  // every catalog treelet, in BySize order of sizes 1..K

	rootings map[Treelet][]Treelet

	// UnrootedK lists the distinct unrooted canonical k-treelet shapes in
	// increasing code order (e.g. 1 for k=2..3, 2 for k=4, 3 for k=5, 6 for
	// k=6 — the free trees, OEIS A000055).
	UnrootedK []Treelet
}

// entry is what the catalog caches of one treelet.
type entry struct {
	first, rest Treelet // canonical decomposition (Leaf, Leaf for the leaf)
	unrooted    Treelet // unrooted canonical form (size-K treelets only)
	id          uint16  // position in BySize[size]
	beta        uint8
	height      uint8
}

// catalogs holds the process's one catalog per k, built on first use.
var catalogs [MaxK + 1]struct {
	once sync.Once
	cat  *Catalog
}

// NewCatalog returns the catalog of all treelets on up to k nodes
// (1 ≤ k ≤ MaxK). Catalogs depend on k alone and never change, so the
// process enumerates each k once and every caller shares it.
func NewCatalog(k int) *Catalog {
	if k < 1 || k > MaxK {
		panic(fmt.Sprintf("treelet: catalog k=%d out of range [1,%d]", k, MaxK))
	}
	c := &catalogs[k]
	c.once.Do(func() { c.cat = enumerate(k) })
	return c.cat
}

// enumerate builds the catalog for k.
func enumerate(k int) *Catalog {
	c := &Catalog{
		K:        k,
		BySize:   make([][]Treelet, k+1),
		shift:    uint(32 - 2*(k-1)),
		index:    make([]uint16, 1<<(2*(k-1))),
		entries:  []entry{{}},
		rootings: make(map[Treelet][]Treelet),
	}
	c.BySize[1] = []Treelet{Leaf}
	for s := 2; s <= k; s++ {
		var ts []Treelet
		for spp := 1; spp < s; spp++ {
			sp := s - spp
			for _, tpp := range c.BySize[spp] {
				for _, tp := range c.BySize[sp] {
					if CanMerge(tp, tpp) {
						ts = append(ts, Merge(tp, tpp))
					}
				}
			}
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		c.BySize[s] = ts
		for id, t := range ts {
			first, rest := t.Decomp()
			// Merge attaches first as a new child of rest's root, so the
			// height recurrence reuses the two cached sub-heights.
			h := max(c.Height(first)+1, c.Height(rest))
			c.index[c.slot(t)] = uint16(len(c.entries))
			c.entries = append(c.entries, entry{
				first: first, rest: rest, id: uint16(id),
				beta: uint8(t.Beta()), height: uint8(h),
			})
		}
	}
	seen := make(map[Treelet]bool)
	for _, t := range c.BySize[k] {
		u := UnrootedCanonical(t)
		c.entries[c.index[c.slot(t)]].unrooted = u
		c.rootings[u] = append(c.rootings[u], t)
		if !seen[u] {
			seen[u] = true
			c.UnrootedK = append(c.UnrootedK, u)
		}
	}
	sort.Slice(c.UnrootedK, func(i, j int) bool { return c.UnrootedK[i] < c.UnrootedK[j] })
	return c
}

// slot returns t's index-table slot: its top 2(K−1) bits, which hold
// every significant bit of a treelet on at most K nodes.
func (c *Catalog) slot(t Treelet) uint32 { return uint32(t) >> c.shift }

// at returns t's cached entry. The catalog must contain t.
func (c *Catalog) at(t Treelet) *entry { return &c.entries[c.index[c.slot(t)]] }

// FirstChild returns the first-child part T” of t's canonical
// decomposition. The catalog must contain t.
func (c *Catalog) FirstChild(t Treelet) Treelet { return c.at(t).first }

// Rest returns the remainder part T' of t's canonical decomposition.
func (c *Catalog) Rest(t Treelet) Treelet { return c.at(t).rest }

// Beta returns βT.
func (c *Catalog) Beta(t Treelet) int { return int(c.at(t).beta) }

// Height returns the cached Treelet.Height of a catalog treelet.
func (c *Catalog) Height(t Treelet) int { return int(c.at(t).height) }

// ID returns t's position in BySize[t.Size()]: a dense id per size, in
// code order.
func (c *Catalog) ID(t Treelet) int { return int(c.at(t).id) }

// Unrooted returns the unrooted canonical shape of a size-k rooted treelet.
func (c *Catalog) Unrooted(t Treelet) Treelet { return c.at(t).unrooted }

// NumRooted returns the number of canonical rooted treelets of size s.
func (c *Catalog) NumRooted(s int) int { return len(c.BySize[s]) }

// Rootings returns the size-k rooted treelet codes whose unrooted canonical
// form is u, in increasing code order. AGS uses this to restrict the urn to
// one unrooted shape.
func (c *Catalog) Rootings(u Treelet) []Treelet { return c.rootings[u] }

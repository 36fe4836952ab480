// Package table implements motivo's succinct treelet count table
// (paper, Section 3.1, "Motivo's count table") as a build-once /
// query-many storage engine.
//
// For every node v and treelet size h there is one packed record: the
// colored-treelet keys s_TC in increasing (lexicographic = integer) order
// with their point counts, delta/varint-coded into a per-size byte arena
// (see packed.go for the codec). A per-(size, node) offset index locates
// each record; a sparse block index inside each record keeps the paper's
// primitive costs:
//
//   - occ(v)        O(1)  (header total),
//   - occ(T_C, v)   O(log + blockSize)  (block search + bounded scan),
//   - iter(T, v)    O(log + blockSize)  (two lower bounds),
//   - sample(v)     O(log + blockSize)  (block search on cumulatives),
//
// exactly the primitive set of the paper, traded down from the dense
// cumulative-array layout to ~4x less memory. Records are immutable once a
// level is installed; readers take View/Record values (plain value types
// into the arena) and queries allocate nothing on the materialized paths.
//
// A smart table (see smart.go) additionally synthesizes every star-family
// record (rooted treelets of height ≤ 2) on the fly from per-node
// colored-degree summaries: those shapes occupy zero arena bytes, and the
// View merges the synthesized entries into the stored ones behind the same
// interface, in the same sorted key order, with the same counts the DP
// would have produced.
package table

import (
	"fmt"

	"repro/internal/treelet"
	"repro/internal/u128"
)

// level is one size level of the table: an arena of packed records plus
// the per-node offset index (-1 marks an empty record). Fully synthetic
// levels of a smart table are zero-valued: no arena, no index.
type level struct {
	arena  []byte
	starts []int64
}

// Table is the complete treelet count table of a colored graph: one packed
// record per node per size 1..K. With ZeroRooted set, size-K records exist
// only at color-0 nodes (Section 3.2), each unrooted size-K copy counted
// exactly once. With smart stars enabled, height-≤2 shapes are synthesized
// (smart.go) and only height-≥3 shapes are stored.
type Table struct {
	K          int
	N          int
	ZeroRooted bool
	levels     []level // levels[h], index 0 unused
	smart      *smartState

	// Set only on tables opened with OpenMapped: the levels alias a
	// read-only file mapping owned by mapped, and verify[h] carries the
	// lazy first-touch checksum state of each stored level (mmap.go).
	mapped *mappedState
	verify []levelVerify
}

// New allocates an empty table for n nodes and treelets up to size k.
func New(n, k int, zeroRooted bool) *Table {
	t := &Table{K: k, N: n, ZeroRooted: zeroRooted, levels: make([]level, k+1)}
	for h := 1; h <= k; h++ {
		t.levels[h] = emptyLevel(n)
	}
	return t
}

func emptyLevel(n int) level {
	starts := make([]int64, n)
	for i := range starts {
		starts[i] = -1
	}
	return level{starts: starts}
}

// topLevelSkip reports whether (h, v) is excluded by 0-rooting: the size-K
// level exists only at color-0 nodes. Stored records respect this by
// construction; the synthesis path must apply the same rule.
func (t *Table) topLevelSkip(h int, v int32) bool {
	return t.smart != nil && t.ZeroRooted && h == t.K && t.smart.colors[v] != 0
}

// Rec returns the record view of node v at size h: the stored packed
// record merged with any synthesized star-family entries. Views stay valid
// as long as the level is not replaced and (for smart tables) are only
// usable once the graph is attached.
func (t *Table) Rec(h int, v int32) View {
	vw := View{t: t, h: h, v: v}
	if t.verify != nil {
		t.ensureVerified(h)
	}
	lv := &t.levels[h]
	if lv.starts != nil {
		if off := lv.starts[v]; off >= 0 {
			r, err := ViewRecord(lv.arena[off:])
			if err != nil {
				panic(fmt.Sprintf("table: corrupt record h=%d v=%d: %v", h, v, err))
			}
			vw.rec = r
		}
	}
	return vw
}

// SetRec encodes p as the record of node v at size h, appending it to the
// level arena. It is a sequential builder API (levelOne, tests); the
// concurrent level pass installs whole levels through SetLevel instead.
// Setting an already-set record, or storing into a fully synthetic level
// of a smart table, is a programming error.
func (t *Table) SetRec(h int, v int32, p *Pairs) {
	if p.Len() == 0 {
		return
	}
	if t.mapped != nil {
		panic("table: SetRec on a mapped table (the mapping is read-only)")
	}
	lv := &t.levels[h]
	if lv.starts == nil {
		panic(fmt.Sprintf("table: SetRec on fully synthetic level %d of a smart table", h))
	}
	if lv.starts[v] >= 0 {
		panic(fmt.Sprintf("table: record h=%d v=%d set twice", h, v))
	}
	lv.starts[v] = int64(len(lv.arena))
	lv.arena = AppendRecord(lv.arena, p)
}

// SetLevel installs a complete size level from an arena of packed records
// and their per-node start offsets, taking ownership of both. The arena
// must be compact and in node order — every non-empty record contiguous
// with the previous one, offsets ascending with v — which is the layout
// the build's shard merge produces; SetLevel checks it (and decodes every
// record header) rather than trusting it, so an installed level is
// byte-identical however the build scheduled its producers.
func (t *Table) SetLevel(h int, arena []byte, starts []int64) error {
	if t.mapped != nil {
		return fmt.Errorf("table: SetLevel on a mapped table (the mapping is read-only)")
	}
	if len(starts) != t.N {
		return fmt.Errorf("table: level %d has %d offsets, table has %d nodes", h, len(starts), t.N)
	}
	if t.smart != nil && h < minStoredSize {
		return fmt.Errorf("table: level %d of a smart table is fully synthetic", h)
	}
	var next int64
	for v, off := range starts {
		if off < 0 {
			continue
		}
		if off != next {
			return fmt.Errorf("table: level %d record %d at offset %d, want %d (arena not node-ordered)", h, v, off, next)
		}
		r, err := ViewRecord(arena[off:])
		if err != nil {
			return fmt.Errorf("table: level %d record %d: %w", h, v, err)
		}
		next = off + int64(r.enc)
	}
	if next != int64(len(arena)) {
		return fmt.Errorf("table: level %d arena has %d bytes after the last record", h, int64(len(arena))-next)
	}
	t.levels[h] = level{arena: arena, starts: starts}
	return nil
}

// TotalK returns the total number of colorful k-treelet copies in the urn
// (the paper's t) — the sum of occ(v) over the size-K records.
func (t *Table) TotalK() u128.Uint128 {
	sum := u128.Zero
	cache := NewSynthCache() // local to this pass, so the walk stays concurrency-safe
	for v := int32(0); int(v) < t.N; v++ {
		sum = sum.Add(t.Rec(t.K, v).WithCache(cache).Total())
	}
	return sum
}

// ShapeTotals returns r_j for every size-K rooted shape grouped by unrooted
// canonical form: the number of colorful copies of each unrooted k-treelet
// shape in the urn.
func (t *Table) ShapeTotals(cat *treelet.Catalog) map[treelet.Treelet]u128.Uint128 {
	out := make(map[treelet.Treelet]u128.Uint128)
	for _, u := range cat.UnrootedK {
		out[u] = u128.Zero
	}
	cache := NewSynthCache() // local to this pass, so the walk stays concurrency-safe
	for v := int32(0); int(v) < t.N; v++ {
		t.Rec(t.K, v).WithCache(cache).Each(func(key treelet.Colored, cnt u128.Uint128) bool {
			shape := cat.Unrooted(key.Tree())
			out[shape] = out[shape].Add(cnt)
			return true
		})
	}
	return out
}

// Bytes returns the storage footprint of the table: the packed arenas, the
// per-(size, node) offset indexes (8 bytes per node per stored level), and
// — for smart tables — the colored-degree summaries and node colors the
// synthesis runs on. Fully synthetic levels cost nothing.
func (t *Table) Bytes() int64 {
	var b int64
	for h := 1; h <= t.K; h++ {
		b += int64(len(t.levels[h].arena))
		b += int64(8 * len(t.levels[h].starts))
	}
	if t.smart != nil {
		b += int64(4*len(t.smart.deg)) + int64(len(t.smart.colors))
	}
	return b
}

// MappedBytes returns the size of the read-only file mapping backing the
// table, or 0 for heap tables. Mapped bytes are page-cache residency, not
// process heap: the kernel reclaims them under pressure and re-faults
// them from the file, which is why budgeting code should account them
// separately from HeapBytes.
func (t *Table) MappedBytes() int64 {
	if t.mapped == nil {
		return 0
	}
	return int64(len(t.mapped.data))
}

// HeapBytes returns the part of Bytes that lives on the Go heap. For a
// heap-loaded table that is everything; for a mapped table the arenas and
// offset indexes alias the mapping and only the smart-star synthesis
// state (decoded degrees + colors) is heap-resident.
func (t *Table) HeapBytes() int64 {
	if t.mapped == nil {
		return t.Bytes()
	}
	if t.smart == nil {
		return 0
	}
	return int64(4*len(t.smart.deg)) + int64(len(t.smart.colors))
}

// Pairs returns the total number of (key, count) pairs physically stored.
// Synthesized entries are not counted: they occupy no bytes, which is the
// point of smart stars.
func (t *Table) Pairs() int64 {
	var p int64
	for h := 1; h <= t.K; h++ {
		lv := &t.levels[h]
		for _, off := range lv.starts {
			if off < 0 {
				continue
			}
			r, err := ViewRecord(lv.arena[off:])
			if err != nil {
				panic(fmt.Sprintf("table: corrupt record: %v", err))
			}
			p += int64(r.Len())
		}
	}
	return p
}

// Validate walks every stored record of every level checking entry-level
// integrity — the deep check load paths run on untrusted bytes. On smart
// tables it additionally rejects stored entries of synthesized shapes
// (those must never be materialized) and stored fully-synthetic levels.
func (t *Table) Validate() error {
	for h := 1; h <= t.K; h++ {
		if err := t.validateLevel(h); err != nil {
			return err
		}
	}
	return nil
}

// validateLevel is Validate for one size level — also the record-integrity
// half of a mapped table's lazy first-touch verification (mmap.go).
func (t *Table) validateLevel(h int) error {
	lv := &t.levels[h]
	if t.smart != nil && h < minStoredSize && lv.starts != nil {
		return fmt.Errorf("table: smart table stores fully synthetic level %d", h)
	}
	for v := 0; v < len(lv.starts); v++ {
		off := lv.starts[v]
		if off < 0 {
			continue
		}
		if off > int64(len(lv.arena)) {
			return fmt.Errorf("table: level %d record %d offset beyond arena", h, v)
		}
		r, err := ViewRecord(lv.arena[off:])
		if err != nil {
			return fmt.Errorf("table: level %d record %d: %w", h, v, err)
		}
		if err := r.Validate(); err != nil {
			return fmt.Errorf("table: level %d record %d: %w", h, v, err)
		}
		if t.smart != nil {
			c := r.Cursor(0)
			for i := 0; i < r.Len(); i++ {
				key, _ := c.Next()
				if t.synthesized(key.Tree()) {
					return fmt.Errorf("table: level %d record %d stores synthesized shape %v", h, v, key.Tree())
				}
			}
		}
	}
	return nil
}

// --- View: the merged stored + synthesized record ---------------------------

// View is the read interface over one (size, node) record: the packed
// stored entries merged, in sorted key order, with any star-family entries
// synthesized from the colored-degree summaries. On a materialized table a
// View is a thin wrapper over the packed Record and costs nothing extra.
// The zero View is empty. Views are value types and safe to copy; a View of
// a smart table must not outlive AttachGraph-time state changes (there are
// none after construction).
type View struct {
	t     *Table
	h     int
	v     int32
	rec   Record
	cache *SynthCache
}

// WithCache returns the view with a synthesis cache attached: the
// neighbor sums of synthesized counts are kept in (and read from) the
// node's slot in c. The cache must be owned by the calling goroutine.
func (vw View) WithCache(c *SynthCache) View {
	vw.cache = c
	return vw
}

// Packed exposes the stored packed record of the view (empty on fully
// synthetic levels) — the codec-level escape hatch used by tests and
// storage accounting.
func (vw View) Packed() Record { return vw.rec }

// synthetic returns the synthesized shapes of the view's size, or nil when
// nothing is synthesized at (h, v) — materialized table, or a node
// excluded by 0-rooting.
func (vw View) synthetic() []synthShape {
	if vw.t == nil || vw.t.smart == nil {
		return nil
	}
	if vw.t.topLevelSkip(vw.h, vw.v) {
		return nil
	}
	return vw.t.smart.synth[vw.h]
}

// synthShape reports whether shape t is synthesized on the view's table,
// with its directory entry when the view's record can hold it (nil for a
// shape of another size or a node excluded by 0-rooting).
func (vw View) synthShape(t treelet.Treelet) (*synthShape, bool) {
	if vw.t == nil || vw.t.smart == nil {
		return nil, false
	}
	sh := vw.t.smart.shape(t)
	if sh == nil {
		return nil, false
	}
	if t.Size() != vw.h || vw.t.topLevelSkip(vw.h, vw.v) {
		return nil, true
	}
	return sh, true
}

// Each calls fn for every entry of the view in ascending key order —
// synthesized entries merged into stored ones — until fn returns false.
func (vw View) Each(fn func(treelet.Colored, u128.Uint128) bool) {
	c := vw.rec.Cursor(0)
	n := vw.rec.Len()
	syn := vw.synthetic()
	if len(syn) == 0 {
		for i := 0; i < n; i++ {
			k, cnt := c.Next()
			if !fn(k, cnt) {
				return
			}
		}
		return
	}
	ns := vw.t.smart.node(vw.v, vw.cache, vw.h-1)
	defer ns.release()
	var (
		pk treelet.Colored
		pc u128.Uint128
	)
	i := 0
	if n > 0 {
		pk, pc = c.Next()
	}
	for si := range syn {
		// Stored entries sorting before the next synthesized shape (stored
		// records never contain a synthesized shape — Validate enforces it).
		bound := treelet.MakeColored(syn[si].t, 0)
		for ; i < n && pk < bound; i++ {
			if !fn(pk, pc) {
				return
			}
			if i+1 < n {
				pk, pc = c.Next()
			}
		}
		if !ns.shapeEach(&syn[si], ns.others(), fn) {
			return
		}
	}
	for ; i < n; i++ {
		if !fn(pk, pc) {
			return
		}
		if i+1 < n {
			pk, pc = c.Next()
		}
	}
}

// Len returns the number of entries the view serves (synthesized included;
// it walks the synthesized shapes, so prefer Each where iteration is the
// goal anyway).
func (vw View) Len() int {
	if len(vw.synthetic()) == 0 {
		return vw.rec.Len()
	}
	n := 0
	vw.Each(func(treelet.Colored, u128.Uint128) bool {
		n++
		return true
	})
	return n
}

// Total returns occ(v): the total count over stored and synthesized
// entries. O(1) on materialized tables.
func (vw View) Total() u128.Uint128 {
	tot := vw.rec.Total()
	syn := vw.synthetic()
	if len(syn) == 0 {
		return tot
	}
	ns := vw.t.smart.node(vw.v, vw.cache, vw.h-1)
	for i := range syn {
		tot = tot.Add(ns.shapeTotal(&syn[i]))
	}
	ns.release()
	return tot
}

// Count returns occ(T_C, v) for one colored treelet, or zero if absent.
func (vw View) Count(key treelet.Colored) u128.Uint128 {
	sh, ok := vw.synthShape(key.Tree())
	if !ok {
		return vw.rec.Count(key)
	}
	if sh == nil {
		return u128.Zero
	}
	ns := vw.t.smart.node(vw.v, vw.cache, sh.widest())
	cnt := ns.count(sh, key.Colors())
	ns.release()
	return cnt
}

// ShapeTotal returns the total count over all colorings of shape t.
func (vw View) ShapeTotal(t treelet.Treelet) u128.Uint128 {
	sh, ok := vw.synthShape(t)
	if !ok {
		return vw.rec.ShapeTotal(t)
	}
	if sh == nil {
		return u128.Zero
	}
	ns := vw.t.smart.node(vw.v, vw.cache, sh.widest())
	tot := ns.shapeTotal(sh)
	ns.release()
	return tot
}

// ShapeEach calls fn for every entry of shape t whose color set lies in
// within, in ascending color-set order — the iter(T, v) primitive bounded
// to the colorings a caller can use — until fn returns false. A synthesized
// shape enumerates only those colorings, so a tight bound skips the
// synthesis of every entry it excludes; pass every color for the whole
// shape.
func (vw View) ShapeEach(t treelet.Treelet, within treelet.ColorSet, fn func(treelet.Colored, u128.Uint128) bool) {
	sh, ok := vw.synthShape(t)
	if ok {
		if sh != nil && within.Has(vw.t.smart.colors[vw.v]) {
			ns := vw.t.smart.node(vw.v, vw.cache, sh.widest())
			defer ns.release()
			ns.shapeEach(sh, within&ns.others(), fn)
		}
		return
	}
	lo, hi := vw.rec.ShapeRange(t)
	c := vw.rec.Cursor(lo)
	for i := lo; i < hi; i++ {
		k, cnt := c.Next()
		if k.Colors()&^within != 0 {
			continue
		}
		if !fn(k, cnt) {
			return
		}
	}
}

// AppendPairs decodes the whole view into p (appending; call p.Reset first
// to replace) — the build phase's bulk read path.
func (vw View) AppendPairs(p *Pairs) {
	vw.Each(func(k treelet.Colored, cnt u128.Uint128) bool {
		p.Append(k, cnt)
		return true
	})
}

// Sample draws a key with probability proportional to its count — the
// sample(v) primitive. It consumes exactly one u128.RandN from rng whether
// entries are stored or synthesized, so smart and materialized tables of
// the same graph produce identical draw sequences at equal seed. It panics
// on an empty view.
func (vw View) Sample(rng u128.RandSource) treelet.Colored {
	if len(vw.synthetic()) == 0 {
		return vw.rec.Sample(rng)
	}
	total := vw.Total()
	if total.IsZero() {
		panic("table: Sample on empty record")
	}
	rv := u128.RandN(rng, total).Add64(1)
	return vw.keyAtCumGE(rv)
}

// SampleShape draws a key of shape t with probability proportional to its
// count — the restricted sample AGS's sample(T) primitive uses. Like
// Sample, it consumes exactly one u128.RandN regardless of storage mode.
func (vw View) SampleShape(rng u128.RandSource, t treelet.Treelet) treelet.Colored {
	sh, ok := vw.synthShape(t)
	if !ok {
		lo, hi := vw.rec.ShapeRange(t)
		if lo >= hi {
			panic("table: SampleShape on empty shape")
		}
		return vw.rec.SampleRange(rng, lo, hi)
	}
	if sh == nil {
		panic("table: SampleShape on empty shape")
	}
	ns := vw.t.smart.node(vw.v, vw.cache, sh.widest())
	defer ns.release()
	span := ns.shapeTotal(sh)
	if span.IsZero() {
		panic("table: SampleShape on empty shape")
	}
	rv := u128.RandN(rng, span).Add64(1)
	cum := u128.Zero
	var key treelet.Colored
	ns.shapeEach(sh, ns.others(), func(k treelet.Colored, cnt u128.Uint128) bool {
		key = k
		cum = cum.Add(cnt)
		return cum.Cmp(rv) < 0
	})
	return key
}

// keyAtCumGE returns the key of the first merged entry whose cumulative
// count reaches rv.
func (vw View) keyAtCumGE(rv u128.Uint128) treelet.Colored {
	cum := u128.Zero
	var key treelet.Colored
	vw.Each(func(k treelet.Colored, cnt u128.Uint128) bool {
		key = k
		cum = cum.Add(cnt)
		return cum.Cmp(rv) < 0
	})
	return key
}

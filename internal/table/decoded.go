package table

// The decoded-record cache: the batched sampling hot path's amortization
// layer in front of the packed Record views.
//
// A packed record answers every primitive by walking varint payload (plus,
// on smart tables, re-running star synthesis); that is the right trade for
// a one-shot query, but the sampling phase revisits the same few hundred
// hot records millions of times. Decoded is the flat form of one merged
// View — sorted keys plus cumulative counts — on which every primitive is
// a binary search: occ O(1), count/iter O(log n), sample O(log n) with no
// varint decode and no synthesis. DecodedCache holds decoded records under
// a pair budget; once the budget is reached the cache freezes (hot records
// enter first under sampling workloads, so the resident set is the right
// one) and misses fall back to the packed view.
//
// Every Decoded primitive returns bit-identical values to the View it was
// decoded from and consumes RNG identically (one u128.RandN per sample on
// the same total), so caching is invisible to draw sequences — the
// property the batched samplers' determinism tests pin down.

import (
	"sort"
	"sync"

	"repro/internal/treelet"
	"repro/internal/u128"
)

// Decoded is one fully decoded record: the merged (stored + synthesized)
// entries of a View in ascending key order, with cumulative counts. The
// zero value is an empty record.
type Decoded struct {
	Keys []treelet.Colored
	// Cum[i] is the cumulative count through entry i (inclusive); the
	// point count of entry i is Cum[i]-Cum[i-1].
	Cum []u128.Uint128
}

// Decode flattens the view into d (replacing its contents).
func (vw View) Decode(d *Decoded) {
	d.Keys = d.Keys[:0]
	d.Cum = d.Cum[:0]
	cum := u128.Zero
	vw.Each(func(k treelet.Colored, cnt u128.Uint128) bool {
		cum = cum.Add(cnt)
		d.Keys = append(d.Keys, k)
		d.Cum = append(d.Cum, cum)
		return true
	})
}

// Len returns the number of entries.
func (d *Decoded) Len() int { return len(d.Keys) }

// Total returns occ(v) in O(1).
func (d *Decoded) Total() u128.Uint128 {
	if len(d.Cum) == 0 {
		return u128.Zero
	}
	return d.Cum[len(d.Cum)-1]
}

// countAt returns the point count of entry i.
func (d *Decoded) countAt(i int) u128.Uint128 {
	if i == 0 {
		return d.Cum[0]
	}
	return d.Cum[i].Sub(d.Cum[i-1])
}

// cumBefore returns the cumulative count of all entries before index i.
func (d *Decoded) cumBefore(i int) u128.Uint128 {
	if i == 0 {
		return u128.Zero
	}
	return d.Cum[i-1]
}

// lowerBound returns the smallest index whose key is ≥ key (Len if none).
func (d *Decoded) lowerBound(key treelet.Colored) int {
	return sort.Search(len(d.Keys), func(i int) bool { return d.Keys[i] >= key })
}

// Count returns occ(T_C, v) for one colored treelet, or zero if absent.
func (d *Decoded) Count(key treelet.Colored) u128.Uint128 {
	i := d.lowerBound(key)
	if i < len(d.Keys) && d.Keys[i] == key {
		return d.countAt(i)
	}
	return u128.Zero
}

// ShapeRange returns the half-open index range [lo, hi) of keys whose
// treelet part equals t.
func (d *Decoded) ShapeRange(t treelet.Treelet) (lo, hi int) {
	lo = d.lowerBound(treelet.MakeColored(t, 0))
	hi = d.lowerBound(treelet.MakeColored(t, treelet.MaxColorSet) + 1)
	return lo, hi
}

// ShapeTotal returns the total count over all colorings of shape t.
func (d *Decoded) ShapeTotal(t treelet.Treelet) u128.Uint128 {
	lo, hi := d.ShapeRange(t)
	if lo >= hi {
		return u128.Zero
	}
	return d.Cum[hi-1].Sub(d.cumBefore(lo))
}

// keyAtCumGE returns the key of the first entry whose cumulative count
// reaches rv (assuming 1 ≤ rv ≤ Total).
func (d *Decoded) keyAtCumGE(rv u128.Uint128) treelet.Colored {
	i := sort.Search(len(d.Cum), func(i int) bool { return d.Cum[i].Cmp(rv) >= 0 })
	if i == len(d.Cum) {
		i = len(d.Cum) - 1 // rv ≤ Total never lands here; mirror View's clamp
	}
	return d.Keys[i]
}

// Sample draws a key with probability proportional to its count — the
// sample(v) primitive, bit-identical to View.Sample at equal RNG state.
// It panics on an empty record.
func (d *Decoded) Sample(rng u128.RandSource) treelet.Colored {
	total := d.Total()
	if total.IsZero() {
		panic("table: Sample on empty record")
	}
	rv := u128.RandN(rng, total).Add64(1)
	return d.keyAtCumGE(rv)
}

// SampleShape draws a key of shape t with probability proportional to its
// count, bit-identical to View.SampleShape at equal RNG state. It panics
// on an empty shape.
func (d *Decoded) SampleShape(rng u128.RandSource, t treelet.Treelet) treelet.Colored {
	lo, hi := d.ShapeRange(t)
	if lo >= hi {
		panic("table: SampleShape on empty shape")
	}
	base := d.cumBefore(lo)
	span := d.Cum[hi-1].Sub(base)
	if span.IsZero() {
		panic("table: SampleShape on empty shape")
	}
	rv := base.Add(u128.RandN(rng, span).Add64(1))
	return d.keyAtCumGE(rv)
}

// DecodedCache memoizes decoded records per (size, node) under a total
// pair budget. Decoded records are pure functions of the immutable table,
// so the cache is safe for concurrent use and meant to be shared: all
// sampling clones of one urn read through the same cache, and a record is
// decoded once per urn lifetime instead of once per clone.
type DecodedCache struct {
	mu     sync.RWMutex
	m      map[uint64]*Decoded
	pairs  int
	budget int
}

// NewDecodedCache returns a cache holding at most budget decoded pairs
// (the last insertion may overshoot by one record). budget ≤ 0 returns a
// cache that never admits anything — the explicit "amortization off"
// setting the determinism tests compare against.
func NewDecodedCache(budget int) *DecodedCache {
	return &DecodedCache{m: make(map[uint64]*Decoded), budget: budget}
}

func decKey(h int, v int32) uint64 { return uint64(h)<<32 | uint64(uint32(v)) }

// Lookup returns the resident decoded record of (h, v), or nil, and
// whether the cache still admits insertions. It decodes nothing, so a
// caller can probe before it pays for building the record's View.
func (c *DecodedCache) Lookup(h int, v int32) (d *Decoded, admits bool) {
	if c == nil {
		return nil, false
	}
	c.mu.RLock()
	d = c.m[decKey(h, v)]
	admits = c.pairs < c.budget
	c.mu.RUnlock()
	return d, admits
}

// Get returns the decoded record of (h, v), decoding vw on a miss. Once
// the pair budget is spent the cache freezes and misses return nil; the
// caller falls back to the packed view. Concurrent misses on the same
// record may decode it twice; the first published copy wins (the copies
// are identical, so callers cannot tell).
func (c *DecodedCache) Get(h int, v int32, vw View) *Decoded {
	d, admits := c.Lookup(h, v)
	if d != nil || !admits {
		return d
	}
	d = &Decoded{}
	vw.Decode(d) // outside the lock: decode may run synthesis and is slow
	key := decKey(h, v)
	c.mu.Lock()
	defer c.mu.Unlock()
	if prior, ok := c.m[key]; ok {
		return prior
	}
	if c.pairs >= c.budget {
		return nil
	}
	c.m[key] = d
	c.pairs += len(d.Keys)
	return d
}

// Pairs reports the resident decoded pairs — observability for tests and
// cache-budget tuning.
func (c *DecodedCache) Pairs() int {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.pairs
}

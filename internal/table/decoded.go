package table

// Decoded records: the flat form the batched sampling hot path reads
// instead of the packed Record views.
//
// A packed record answers every primitive by walking varint payload (plus,
// on smart tables, re-running star synthesis); that is the right trade for
// a one-shot query, but the sampling phase revisits the same few hundred
// hot records millions of times. Decoded is the flat form of one merged
// View — sorted keys plus cumulative counts — on which every primitive is
// a binary search: occ O(1), shape totals and samples O(log n), with no
// varint decode and no synthesis. The sampler keeps the decoded root
// records of an urn in a budgeted memo shared by its clones
// (internal/sample).
//
// Every Decoded primitive returns bit-identical values to the View it was
// decoded from and consumes RNG identically (one u128.RandN per sample on
// the same total), so caching is invisible to draw sequences — the
// property the batched samplers' determinism tests pin down.

import (
	"sort"

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

package build

import (
	"math/bits"

	"repro/internal/table"
	"repro/internal/treelet"
	"repro/internal/u128"
)

// colorRanks numbers the color sets of each size: rank[C] is C's position
// among the |C|-color subsets of the k colors in ascending order, and
// sets[h] lists the h-color subsets in that order, so sets[|C|][rank[C]]
// is C.
type colorRanks struct {
	rank []uint16
	sets [][]treelet.ColorSet
}

func newColorRanks(k int) colorRanks {
	r := colorRanks{rank: make([]uint16, 1<<k), sets: make([][]treelet.ColorSet, k+1)}
	for i := range 1 << k {
		c := treelet.ColorSet(i)
		n := c.Card()
		r.rank[c] = uint16(len(r.sets[n]))
		r.sets[n] = append(r.sets[n], c)
	}
	return r
}

// dense accumulates counts of the colored treelets of one size h in a flat
// array instead of a map: (T, C) lives in slot ID(T)·C(k,h) + rank(C), and
// a bitmap marks the slots touched since the last flush. Slot order is
// (treelet code, color set) order, the key order of a record, so a flush
// walks the bitmap and emits a sorted record without sorting.
type dense struct {
	ts     []treelet.Treelet  // the size-h treelets, by catalog id
	sets   []treelet.ColorSet // the h-color sets, by rank
	sums   []u128.Uint128     // len(ts)·len(sets) slots
	marked []uint64           // one bit per slot
	beta   []uint64           // β_T by id, the flush's divisor; nil: no division
	cat    *treelet.Catalog
}

// newDense returns an empty accumulator for size-h colored treelets; with
// divide, a flush divides each sum by β_T.
func newDense(b *builder, h int, divide bool) *dense {
	ts, sets := b.cat.BySize[h], b.ranks.sets[h]
	n := len(ts) * len(sets)
	d := &dense{ts: ts, sets: sets, sums: make([]u128.Uint128, n), marked: make([]uint64, (n+63)/64), cat: b.cat}
	if divide {
		d.beta = make([]uint64, len(ts))
		for id, t := range ts {
			d.beta[id] = uint64(b.cat.Beta(t))
		}
	}
	return d
}

// base returns the first slot of treelet t, whose colorings follow it in
// rank order.
func (d *dense) base(t treelet.Treelet) int { return d.cat.ID(t) * len(d.sets) }

// add adds c to slot s.
func (d *dense) add(s int, c u128.Uint128) {
	d.sums[s] = d.sums[s].Add(c)
	d.marked[s>>6] |= 1 << (s & 63)
}

// flush fills out with the touched slots in slot order and clears them.
func (d *dense) flush(out *table.Pairs) {
	out.Reset()
	nC := len(d.sets)
	for i, word := range d.marked {
		if word == 0 {
			continue
		}
		d.marked[i] = 0
		for ; word != 0; word &= word - 1 {
			s := i<<6 | bits.TrailingZeros64(word)
			id := s / nC
			c := d.sums[s]
			d.sums[s] = u128.Zero
			// β_T correction: the recurrence generated each copy once per
			// identical first child; the division is exact.
			if d.beta != nil && d.beta[id] > 1 {
				c, _ = c.QuoRem64(d.beta[id])
			}
			out.Append(treelet.MakeColored(d.ts[id], d.sets[s-id*nC]), c)
		}
	}
}

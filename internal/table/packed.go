package table

// The packed record codec: motivo's succinct count-table representation
// (paper, Section 3.1, "Succinct data structures").
//
// A record is a byte string
//
//	header  := uvarint(n) uvarint128(total) uvarint(payloadLen)
//	index   := ⌈n/blockSize⌉ fixed-width entries, present only when
//	           n > blockSize:
//	             8B  first key of the block (little-endian)
//	            16B  cumulative count of all entries before the block
//	             4B  byte offset of the block within the payload
//	payload := n entries of uvarint(key delta) uvarint128(point count);
//	           the first entry of each block stores its full key (delta
//	           from 0), every other entry the difference to its
//	           predecessor
//
// Keys are sorted, so deltas are small — within one treelet shape they live
// in the ColorBits-wide color field — and point counts are overwhelmingly
// tiny; both varint-compress far below the 24 bytes/pair of word-aligned
// slices (the paper's packed entries are 176 bits; delta+varint coding gets
// us under that on real tables). The sparse block index restores the
// O(log)-ish primitives of the cumulative-array layout: binary search over
// block headers, then a ≤ blockSize sequential scan. Cumulative totals per
// block (rather than per entry) are what the paper trades for space; the
// scan bound keeps occ/iter/sample within a constant of the dense layout.
//
// The same byte string is the spill wire format (disk.go) and the
// persistent table format (serialize.go): records move between RAM and disk
// with plain copies, never re-encoding.

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/treelet"
	"repro/internal/u128"
)

// blockSize is the number of entries per index block: the sequential-scan
// bound of every point query. 32 keeps the fixed index below one byte per
// pair while bounding scans to a cache line or two of decoded entries.
const blockSize = 32

// indexEntrySize is the fixed width of one block-index entry:
// 8 (first key) + 16 (cumulative before) + 4 (payload offset).
const indexEntrySize = 28

// Record is a read-only view of one packed record: the sorted
// (colored treelet, count) multiset of one node at one size, exposing the
// paper's primitives (occ, iter, sample) without decoding the record. The
// zero value is an empty record. Views are plain value types into the
// table arena; copying one is free and queries allocate nothing.
type Record struct {
	n     int
	total u128.Uint128
	index []byte // fixed-width block index; nil when n ≤ blockSize
	data  []byte // delta/varint payload
	enc   int    // total encoded size in bytes, header included
}

// Pairs is the decoded, slice-backed form of a record: sorted keys and
// point counts. It is the build phase's scratch representation — workers
// flush their dense accumulators into Pairs in key order and encode
// straight into packed form — and the reference the packed codec is
// tested against.
type Pairs struct {
	Keys   []treelet.Colored
	Counts []u128.Uint128
}

// Len returns the number of pairs.
func (p *Pairs) Len() int { return len(p.Keys) }

// Reset empties p, keeping capacity.
func (p *Pairs) Reset() {
	p.Keys = p.Keys[:0]
	p.Counts = p.Counts[:0]
}

// Append adds one pair; callers must keep keys strictly increasing.
func (p *Pairs) Append(k treelet.Colored, c u128.Uint128) {
	p.Keys = append(p.Keys, k)
	p.Counts = append(p.Counts, c)
}

// AppendRecord encodes the sorted pairs as one packed record appended to
// dst and returns the extended slice. Empty input appends nothing (empty
// records are represented by absence, not by a zero-length encoding).
func AppendRecord(dst []byte, p *Pairs) []byte {
	n := len(p.Keys)
	if n == 0 {
		return dst
	}
	// Pre-pass: payload size and total, so header and index land before the
	// payload without a scratch buffer.
	total := u128.Zero
	plen := 0
	prev := treelet.Colored(0)
	for j, k := range p.Keys {
		if j%blockSize == 0 {
			prev = 0
		}
		plen += uvarintLen(uint64(k-prev)) + uvarint128Len(p.Counts[j])
		prev = k
		total = total.Add(p.Counts[j])
	}
	nblocks := 0
	if n > blockSize {
		nblocks = (n + blockSize - 1) / blockSize
	}
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = appendUvarint128(dst, total)
	dst = binary.AppendUvarint(dst, uint64(plen))
	idxStart := len(dst)
	dst = append(dst, make([]byte, nblocks*indexEntrySize)...)
	payloadStart := len(dst)

	cum := u128.Zero
	prev = 0
	for j, k := range p.Keys {
		if j%blockSize == 0 {
			prev = 0
			if nblocks > 0 {
				e := dst[idxStart+(j/blockSize)*indexEntrySize:]
				binary.LittleEndian.PutUint64(e, uint64(k))
				binary.LittleEndian.PutUint64(e[8:], cum.Lo)
				binary.LittleEndian.PutUint64(e[16:], cum.Hi)
				binary.LittleEndian.PutUint32(e[24:], uint32(len(dst)-payloadStart))
			}
		}
		dst = binary.AppendUvarint(dst, uint64(k-prev))
		dst = appendUvarint128(dst, p.Counts[j])
		prev = k
		cum = cum.Add(p.Counts[j])
	}
	return dst
}

// ViewRecord decodes the record header at the start of b and returns the
// view plus its total encoded length. It validates that the declared
// regions fit inside b; entry-level integrity is checked separately by
// Record.Validate.
func ViewRecord(b []byte) (Record, error) {
	n64, s1 := binary.Uvarint(b)
	if s1 <= 0 {
		return Record{}, fmt.Errorf("table: truncated record header")
	}
	total, s2 := uvarint128(b[s1:])
	if s2 <= 0 {
		return Record{}, fmt.Errorf("table: truncated record total")
	}
	plen64, s3 := binary.Uvarint(b[s1+s2:])
	if s3 <= 0 {
		return Record{}, fmt.Errorf("table: truncated record payload length")
	}
	h := s1 + s2 + s3
	if n64 == 0 || n64 > uint64(len(b)) || plen64 > uint64(len(b)) {
		return Record{}, fmt.Errorf("table: implausible record header n=%d plen=%d", n64, plen64)
	}
	n, plen := int(n64), int(plen64)
	nblocks := 0
	if n > blockSize {
		nblocks = (n + blockSize - 1) / blockSize
	}
	end := h + nblocks*indexEntrySize + plen
	if end > len(b) {
		return Record{}, fmt.Errorf("table: record overruns its buffer (%d > %d)", end, len(b))
	}
	return Record{
		n:     n,
		total: total,
		index: b[h : h+nblocks*indexEntrySize],
		data:  b[h+nblocks*indexEntrySize : end],
		enc:   end,
	}, nil
}

// Len returns the number of (treelet, colorset) pairs stored.
func (r Record) Len() int { return r.n }

// Total returns occ(v): the total count in the record, in O(1).
func (r Record) Total() u128.Uint128 { return r.total }

// Bytes returns the encoded size of the record in bytes: the packed
// accounting (varint header + sparse block index + delta/varint payload),
// replacing the 24 bytes/pair of the former word-aligned slice layout.
func (r Record) Bytes() int64 { return int64(r.enc) }

// blocks returns the number of index blocks (0 for single-block records).
func (r Record) blocks() int { return len(r.index) / indexEntrySize }

// blockKey returns the first key of block b from the index.
func (r Record) blockKey(b int) treelet.Colored {
	return treelet.Colored(binary.LittleEndian.Uint64(r.index[b*indexEntrySize:]))
}

// blockCum returns the cumulative count before block b from the index.
func (r Record) blockCum(b int) u128.Uint128 {
	e := r.index[b*indexEntrySize+8:]
	return u128.Uint128{
		Lo: binary.LittleEndian.Uint64(e),
		Hi: binary.LittleEndian.Uint64(e[8:]),
	}
}

// blockOff returns the payload byte offset of block b from the index.
func (r Record) blockOff(b int) int {
	return int(binary.LittleEndian.Uint32(r.index[b*indexEntrySize+24:]))
}

// Cursor is a sequential decoder over a record's entries. The zero value
// is not useful; obtain one from Record.Cursor. It is a plain stack value:
// iterating allocates nothing.
type Cursor struct {
	data []byte
	pos  int
	idx  int
	prev treelet.Colored
}

// Cursor returns a cursor positioned at entry i (0 ≤ i ≤ Len). Seeking
// jumps to i's block through the index and decodes at most blockSize
// entries; advancing costs O(1) per entry.
func (r Record) Cursor(i int) Cursor {
	c := Cursor{data: r.data}
	if b := i / blockSize; b > 0 && len(r.index) > 0 {
		if nb := r.blocks(); b >= nb {
			b = nb - 1 // i == Len on a block boundary: seek into the last block
		}
		c.pos = r.blockOff(b)
		c.idx = b * blockSize
	}
	for c.idx < i {
		c.skip()
	}
	return c
}

// Next decodes and returns the entry under the cursor, advancing past it.
// Calling Next more than Len times is a programming error and panics.
func (c *Cursor) Next() (treelet.Colored, u128.Uint128) {
	if c.idx%blockSize == 0 {
		c.prev = 0
	}
	d, s1 := binary.Uvarint(c.data[c.pos:])
	cnt, s2 := uvarint128(c.data[c.pos+s1:])
	if s1 <= 0 || s2 <= 0 {
		panic("table: corrupt record payload")
	}
	c.pos += s1 + s2
	c.idx++
	c.prev += treelet.Colored(d)
	return c.prev, cnt
}

// skip advances one entry without materializing the count.
func (c *Cursor) skip() {
	if c.idx%blockSize == 0 {
		c.prev = 0
	}
	d, s1 := binary.Uvarint(c.data[c.pos:])
	s2 := uvarint128Skip(c.data[c.pos+s1:])
	if s1 <= 0 || s2 <= 0 {
		panic("table: corrupt record payload")
	}
	c.pos += s1 + s2
	c.idx++
	c.prev += treelet.Colored(d)
}

// AppendPairs decodes the whole record into p (appending; call p.Reset
// first to replace). It is the build phase's bulk read path.
func (r Record) AppendPairs(p *Pairs) {
	c := r.Cursor(0)
	for i := 0; i < r.n; i++ {
		k, cnt := c.Next()
		p.Append(k, cnt)
	}
}

// lowerBound returns the smallest index whose key is ≥ key (Len if none):
// binary search over block first-keys, then a bounded scan.
func (r Record) lowerBound(key treelet.Colored) int {
	if r.n == 0 {
		return 0
	}
	b := 0
	if nb := r.blocks(); nb > 0 {
		// Largest block whose first key is ≤ key.
		b = sort.Search(nb, func(i int) bool { return r.blockKey(i) > key }) - 1
		if b < 0 {
			return 0
		}
	}
	c := r.Cursor(b * blockSize)
	end := (b + 1) * blockSize
	if end > r.n || r.blocks() == 0 {
		end = r.n
	}
	for i := b * blockSize; i < end; i++ {
		if k, _ := c.Next(); k >= key {
			return i
		}
	}
	return end
}

// Count returns occ(T_C, v): the count of one colored treelet, or zero if
// absent.
func (r Record) Count(key treelet.Colored) u128.Uint128 {
	if r.n == 0 {
		return u128.Zero
	}
	b := 0
	if nb := r.blocks(); nb > 0 {
		b = sort.Search(nb, func(i int) bool { return r.blockKey(i) > key }) - 1
		if b < 0 {
			return u128.Zero
		}
	}
	c := r.Cursor(b * blockSize)
	end := (b + 1) * blockSize
	if end > r.n || r.blocks() == 0 {
		end = r.n
	}
	for i := b * blockSize; i < end; i++ {
		k, cnt := c.Next()
		if k == key {
			return cnt
		}
		if k > key {
			break
		}
	}
	return u128.Zero
}

// At returns the i-th key and its point count, in O(blockSize).
func (r Record) At(i int) (treelet.Colored, u128.Uint128) {
	c := r.Cursor(i)
	return c.Next()
}

// CumAt returns the cumulative count through entry i (inclusive).
func (r Record) CumAt(i int) u128.Uint128 {
	b := i / blockSize
	cum := u128.Zero
	if r.blocks() > 0 {
		cum = r.blockCum(b)
	}
	c := r.Cursor(b * blockSize)
	for j := b * blockSize; j <= i; j++ {
		_, cnt := c.Next()
		cum = cum.Add(cnt)
	}
	return cum
}

// ShapeRange returns the half-open index range [lo, hi) of keys whose
// treelet part equals t — the iter(T, v) primitive. All colorings of one
// shape are contiguous because the shape occupies the key's high bits.
func (r Record) ShapeRange(t treelet.Treelet) (lo, hi int) {
	lo = r.lowerBound(treelet.MakeColored(t, 0))
	hi = r.lowerBound(treelet.MakeColored(t, treelet.MaxColorSet) + 1)
	return lo, hi
}

// RangeTotal returns the total count of entries in the index range
// [lo, hi).
func (r Record) RangeTotal(lo, hi int) u128.Uint128 {
	if lo >= hi {
		return u128.Zero
	}
	t := r.CumAt(hi - 1)
	if lo == 0 {
		return t
	}
	return t.Sub(r.CumAt(lo - 1))
}

// ShapeTotal returns the total count of all colorings of shape t.
func (r Record) ShapeTotal(t treelet.Treelet) u128.Uint128 {
	lo, hi := r.ShapeRange(t)
	return r.RangeTotal(lo, hi)
}

// keyAtCumGE returns the key of the first entry whose cumulative count is
// ≥ rv, assuming 1 ≤ rv ≤ Total: binary search over block cumulative
// headers, then a bounded accumulating scan that yields the key directly
// (the hot sampling path decodes each candidate entry exactly once).
func (r Record) keyAtCumGE(rv u128.Uint128) treelet.Colored {
	b := 0
	if nb := r.blocks(); nb > 0 {
		// Largest block whose cumulative-before is < rv.
		b = sort.Search(nb, func(i int) bool { return r.blockCum(i).Cmp(rv) >= 0 }) - 1
		if b < 0 {
			b = 0
		}
	}
	cum := u128.Zero
	if r.blocks() > 0 {
		cum = r.blockCum(b)
	}
	c := r.Cursor(b * blockSize)
	var key treelet.Colored
	for i := b * blockSize; i < r.n; i++ {
		var cnt u128.Uint128
		key, cnt = c.Next()
		cum = cum.Add(cnt)
		if cum.Cmp(rv) >= 0 {
			break
		}
	}
	return key // for rv ≤ Total the loop always breaks; else the last key
}

// Sample draws a key with probability proportional to its count: the
// sample(v) primitive. It panics on an empty record.
func (r Record) Sample(rng u128.RandSource) treelet.Colored {
	if r.total.IsZero() {
		panic("table: Sample on empty record")
	}
	// R uniform in [1, total]; pick the first entry with cumulative ≥ R.
	rv := u128.RandN(rng, r.total).Add64(1)
	return r.keyAtCumGE(rv)
}

// SampleRange draws a key within the index range [lo, hi) with probability
// proportional to its count — the restricted sample used by AGS's
// sample(T) primitive.
func (r Record) SampleRange(rng u128.RandSource, lo, hi int) treelet.Colored {
	var base u128.Uint128
	if lo > 0 {
		base = r.CumAt(lo - 1)
	}
	span := r.CumAt(hi - 1).Sub(base)
	if span.IsZero() {
		panic("table: SampleRange on empty range")
	}
	rv := base.Add(u128.RandN(rng, span).Add64(1))
	return r.keyAtCumGE(rv)
}

// Validate walks the full record checking entry-level integrity: payload
// varints in bounds, strictly increasing keys, index entries consistent
// with the payload, and the header total matching the entry sum. Load
// paths run it on untrusted bytes so corruption surfaces at open time, not
// as a panic mid-query.
func (r Record) Validate() error {
	if r.n == 0 {
		return nil
	}
	pos, idx := 0, 0
	prev := treelet.Colored(0)
	cum := u128.Zero
	last := treelet.Colored(0)
	for idx < r.n {
		if idx%blockSize == 0 {
			prev = 0
			if r.blocks() > 0 {
				b := idx / blockSize
				if r.blockOff(b) != pos {
					return fmt.Errorf("table: block %d offset %d != payload position %d", b, r.blockOff(b), pos)
				}
				if r.blockCum(b) != cum {
					return fmt.Errorf("table: block %d cumulative mismatch", b)
				}
			}
		}
		if pos >= len(r.data) {
			return fmt.Errorf("table: payload truncated at entry %d", idx)
		}
		d, s1 := binary.Uvarint(r.data[pos:])
		if s1 <= 0 || pos+s1 > len(r.data) {
			return fmt.Errorf("table: bad key varint at entry %d", idx)
		}
		cnt, s2 := uvarint128(r.data[pos+s1:])
		if s2 <= 0 {
			return fmt.Errorf("table: bad count varint at entry %d", idx)
		}
		key := prev + treelet.Colored(d)
		if idx > 0 && key <= last {
			return fmt.Errorf("table: keys not strictly increasing at entry %d", idx)
		}
		if idx%blockSize == 0 && r.blocks() > 0 && key != r.blockKey(idx/blockSize) {
			return fmt.Errorf("table: block %d first key mismatch", idx/blockSize)
		}
		cum = cum.Add(cnt)
		prev, last = key, key
		pos += s1 + s2
		idx++
	}
	if pos != len(r.data) {
		return fmt.Errorf("table: %d trailing payload bytes", len(r.data)-pos)
	}
	if cum != r.total {
		return fmt.Errorf("table: header total %v != entry sum %v", r.total, cum)
	}
	return nil
}

// --- varint helpers ------------------------------------------------------

// uvarintLen returns the encoded size of x in bytes.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// uvarint128Len returns the encoded size of u in bytes.
func uvarint128Len(u u128.Uint128) int {
	if u.Hi == 0 {
		return uvarintLen(u.Lo)
	}
	return (64 + bits.Len64(u.Hi) + 6) / 7
}

// appendUvarint128 appends the LEB128 encoding of u (1–19 bytes).
func appendUvarint128(dst []byte, u u128.Uint128) []byte {
	for u.Hi != 0 || u.Lo >= 0x80 {
		dst = append(dst, byte(u.Lo)|0x80)
		u.Lo = u.Lo>>7 | u.Hi<<57
		u.Hi >>= 7
	}
	return append(dst, byte(u.Lo))
}

// uvarint128 decodes a LEB128 128-bit value, returning it and the number
// of bytes read (0 on truncated or overlong input).
func uvarint128(b []byte) (u128.Uint128, int) {
	var u u128.Uint128
	shift := uint(0)
	for i := 0; i < len(b); i++ {
		c := b[i]
		v := uint64(c & 0x7f)
		switch {
		case shift < 64:
			u.Lo |= v << shift
			if shift > 57 {
				u.Hi |= v >> (64 - shift)
			}
		case shift < 128:
			u.Hi |= v << (shift - 64)
		default:
			return u128.Zero, 0
		}
		if c < 0x80 {
			return u, i + 1
		}
		shift += 7
	}
	return u128.Zero, 0
}

// uvarint128Skip returns the byte length of the LEB128 value at the start
// of b without decoding it (0 on truncated input).
func uvarint128Skip(b []byte) int {
	for i := 0; i < len(b) && i < 19; i++ {
		if b[i] < 0x80 {
			return i + 1
		}
	}
	return 0
}

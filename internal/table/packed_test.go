package table

import (
	"math/rand"
	"testing"

	"repro/internal/treelet"
	"repro/internal/u128"
)

// refRecord is the slice-backed reference implementation the packed codec
// is checked against: sorted keys with a dense cumulative array, i.e. the
// pre-packing layout of the count table. Its Sample mirrors the packed
// draw formula exactly (same rng consumption), so draws must agree
// key-for-key.
type refRecord struct {
	keys []treelet.Colored
	cum  []u128.Uint128
}

func newRef(p *Pairs) *refRecord {
	r := &refRecord{keys: p.Keys}
	run := u128.Zero
	for _, c := range p.Counts {
		run = run.Add(c)
		r.cum = append(r.cum, run)
	}
	return r
}

func (r *refRecord) total() u128.Uint128 {
	if len(r.cum) == 0 {
		return u128.Zero
	}
	return r.cum[len(r.cum)-1]
}

func (r *refRecord) countAt(i int) u128.Uint128 {
	if i == 0 {
		return r.cum[0]
	}
	return r.cum[i].Sub(r.cum[i-1])
}

func (r *refRecord) count(key treelet.Colored) u128.Uint128 {
	for i, k := range r.keys {
		if k == key {
			return r.countAt(i)
		}
	}
	return u128.Zero
}

func (r *refRecord) shapeRange(t treelet.Treelet) (lo, hi int) {
	min := treelet.MakeColored(t, 0)
	max := treelet.MakeColored(t, treelet.MaxColorSet)
	lo = len(r.keys)
	for i, k := range r.keys {
		if k >= min {
			lo = i
			break
		}
	}
	hi = len(r.keys)
	for i := lo; i < len(r.keys); i++ {
		if r.keys[i] > max {
			hi = i
			break
		}
	}
	return lo, hi
}

func (r *refRecord) sample(rng u128.RandSource) treelet.Colored {
	rv := u128.RandN(rng, r.total()).Add64(1)
	for i, c := range r.cum {
		if c.Cmp(rv) >= 0 {
			return r.keys[i]
		}
	}
	panic("refRecord: cumulative exhausted")
}

func (r *refRecord) sampleRange(rng u128.RandSource, lo, hi int) treelet.Colored {
	var base u128.Uint128
	if lo > 0 {
		base = r.cum[lo-1]
	}
	span := r.cum[hi-1].Sub(base)
	rv := base.Add(u128.RandN(rng, span).Add64(1))
	for i := lo; i < hi; i++ {
		if r.cum[i].Cmp(rv) >= 0 {
			return r.keys[i]
		}
	}
	panic("refRecord: range cumulative exhausted")
}

// randomPairs generates n sorted pairs over a few treelet shapes with a
// mixture of tiny and >64-bit counts.
func randomPairs(rng *rand.Rand, n int, cat *treelet.Catalog) *Pairs {
	shapes := cat.BySize[4]
	m := make(map[treelet.Colored]u128.Uint128, n)
	for len(m) < n {
		t := shapes[rng.Intn(len(shapes))]
		cs := treelet.ColorSet(rng.Intn(1 << 10))
		cnt := u128.From64(uint64(rng.Intn(1000)) + 1)
		switch rng.Intn(8) {
		case 0: // huge: exercise the 128-bit varint path
			cnt = u128.Uint128{Hi: rng.Uint64()%1000 + 1, Lo: rng.Uint64()}
		case 1: // zero counts are legal in the codec
			cnt = u128.Zero
		}
		m[treelet.MakeColored(t, cs)] = cnt
	}
	var p Pairs
	fillPairs(&p, m)
	return &p
}

// TestPackedMatchesReference is the codec property test: packed and
// slice-backed records must agree on every primitive over randomized
// records, including sizes straddling the block-index boundary.
func TestPackedMatchesReference(t *testing.T) {
	cat := treelet.NewCatalog(4)
	rng := rand.New(rand.NewSource(101))
	sizes := []int{1, 2, blockSize - 1, blockSize, blockSize + 1, 2*blockSize - 1, 2 * blockSize, 5*blockSize + 7, 400}
	for _, n := range sizes {
		for rep := 0; rep < 4; rep++ {
			p := randomPairs(rng, n, cat)
			ref := newRef(p)
			rec, err := ViewRecord(AppendRecord(nil, p))
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if err := rec.Validate(); err != nil {
				t.Fatalf("n=%d: Validate: %v", n, err)
			}
			if rec.Len() != len(ref.keys) {
				t.Fatalf("n=%d: Len %d != %d", n, rec.Len(), len(ref.keys))
			}
			if rec.Total() != ref.total() {
				t.Fatalf("n=%d: Total %v != %v", n, rec.Total(), ref.total())
			}
			// At / CumAt over every index.
			for i := range ref.keys {
				k, c := rec.At(i)
				if k != ref.keys[i] || c != ref.countAt(i) {
					t.Fatalf("n=%d At(%d): (%v,%v) != (%v,%v)", n, i, k, c, ref.keys[i], ref.countAt(i))
				}
				if got := rec.CumAt(i); got != ref.cum[i] {
					t.Fatalf("n=%d CumAt(%d): %v != %v", n, i, got, ref.cum[i])
				}
			}
			// Count on every present key plus probes around them.
			for i, k := range ref.keys {
				if got := rec.Count(k); got != ref.countAt(i) {
					t.Fatalf("n=%d Count(%v): %v != %v", n, k, got, ref.countAt(i))
				}
				for _, probe := range []treelet.Colored{k - 1, k + 1} {
					if got, want := rec.Count(probe), ref.count(probe); got != want {
						t.Fatalf("n=%d Count(probe %v): %v != %v", n, probe, got, want)
					}
				}
			}
			// ShapeRange / ShapeTotal for every catalog shape.
			for _, shapes := range cat.BySize {
				for _, sh := range shapes {
					lo, hi := rec.ShapeRange(sh)
					rlo, rhi := ref.shapeRange(sh)
					if lo != rlo || hi != rhi {
						t.Fatalf("n=%d ShapeRange(%v): [%d,%d) != [%d,%d)", n, sh, lo, hi, rlo, rhi)
					}
					if lo == hi {
						continue
					}
					want := ref.cum[hi-1]
					if lo > 0 {
						want = want.Sub(ref.cum[lo-1])
					}
					if got := rec.ShapeTotal(sh); got != want {
						t.Fatalf("n=%d ShapeTotal(%v): %v != %v", n, sh, got, want)
					}
				}
			}
			// Sample / SampleRange: identical draw sequences off identical
			// rng streams (both consume via u128.RandN on the same totals).
			if !rec.Total().IsZero() {
				r1 := rand.New(rand.NewSource(int64(n)))
				r2 := rand.New(rand.NewSource(int64(n)))
				for d := 0; d < 200; d++ {
					if got, want := rec.Sample(r1), ref.sample(r2); got != want {
						t.Fatalf("n=%d draw %d: Sample %v != %v", n, d, got, want)
					}
				}
				for _, sh := range cat.BySize[4] {
					lo, hi := rec.ShapeRange(sh)
					if lo == hi || rec.RangeTotal(lo, hi).IsZero() {
						continue
					}
					for d := 0; d < 50; d++ {
						if got, want := rec.SampleRange(r1, lo, hi), ref.sampleRange(r2, lo, hi); got != want {
							t.Fatalf("n=%d SampleRange(%v) draw %d: %v != %v", n, sh, d, got, want)
						}
					}
				}
			}
		}
	}
}

// TestCursorSequentialDecode checks the cursor against At from every
// starting position.
func TestCursorSequentialDecode(t *testing.T) {
	cat := treelet.NewCatalog(4)
	rng := rand.New(rand.NewSource(77))
	p := randomPairs(rng, 3*blockSize+5, cat)
	rec, err := ViewRecord(AppendRecord(nil, p))
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start < rec.Len(); start += 7 {
		c := rec.Cursor(start)
		for i := start; i < rec.Len(); i++ {
			k, cnt := c.Next()
			wk, wc := rec.At(i)
			if k != wk || cnt != wc {
				t.Fatalf("cursor from %d at %d: (%v,%v) != (%v,%v)", start, i, k, cnt, wk, wc)
			}
		}
	}
	// End cursor on a block boundary must be constructible.
	_ = rec.Cursor(rec.Len())
}

// TestVarint128RoundTrip exercises the 128-bit LEB128 helpers across the
// width spectrum.
func TestVarint128RoundTrip(t *testing.T) {
	cases := []u128.Uint128{
		{}, {Lo: 1}, {Lo: 127}, {Lo: 128}, {Lo: 1 << 20}, {Lo: ^uint64(0)},
		{Hi: 1}, {Hi: 1, Lo: 42}, {Hi: ^uint64(0), Lo: ^uint64(0)},
		{Hi: 1 << 57, Lo: 0xDEADBEEF},
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		cases = append(cases, u128.Uint128{Hi: rng.Uint64() >> (rng.Intn(64)), Lo: rng.Uint64()})
	}
	for _, u := range cases {
		b := appendUvarint128(nil, u)
		if len(b) != uvarint128Len(u) {
			t.Fatalf("%v: encoded %d bytes, predicted %d", u, len(b), uvarint128Len(u))
		}
		got, n := uvarint128(b)
		if n != len(b) || got != u {
			t.Fatalf("%v: round trip gave %v (%d bytes)", u, got, n)
		}
		if s := uvarint128Skip(b); s != len(b) {
			t.Fatalf("%v: skip %d != len %d", u, s, len(b))
		}
	}
	if _, n := uvarint128([]byte{0x80, 0x80}); n != 0 {
		t.Error("truncated varint must decode to 0 length")
	}
}

package table

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/treelet"
	"repro/internal/u128"
)

func sampleMap() map[treelet.Colored]u128.Uint128 {
	edge := treelet.FromParents([]int{0, 0})
	path3 := treelet.FromParents([]int{0, 0, 1})
	star3 := treelet.FromParents([]int{0, 0, 0})
	return map[treelet.Colored]u128.Uint128{
		treelet.MakeColored(edge, 0b0011):  u128.From64(5),
		treelet.MakeColored(edge, 0b0101):  u128.From64(2),
		treelet.MakeColored(path3, 0b0111): u128.From64(7),
		treelet.MakeColored(star3, 0b0111): u128.From64(1),
	}
}

func TestFromMapSortedCumulative(t *testing.T) {
	r := FromMap(sampleMap())
	if r.Len() != 4 {
		t.Fatalf("len %d", r.Len())
	}
	c := r.Cursor(0)
	var prev treelet.Colored
	cum := u128.Zero
	for i := 0; i < r.Len(); i++ {
		k, cnt := c.Next()
		if i > 0 && prev >= k {
			t.Fatal("keys not strictly sorted")
		}
		if cnt.IsZero() {
			t.Fatal("zero point count encoded")
		}
		prev = k
		cum = cum.Add(cnt)
		if got := r.CumAt(i); got != cum {
			t.Fatalf("CumAt(%d) = %v, want %v", i, got, cum)
		}
	}
	if r.Total() != u128.From64(15) {
		t.Errorf("total %v", r.Total())
	}
	if err := r.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestCountLookup(t *testing.T) {
	m := sampleMap()
	r := FromMap(m)
	for key, want := range m {
		if got := r.Count(key); got != want {
			t.Errorf("Count(%v) = %v, want %v", key, got, want)
		}
	}
	absent := treelet.MakeColored(treelet.Leaf, 0b1)
	if !r.Count(absent).IsZero() {
		t.Error("absent key should count 0")
	}
}

func TestEmptyRecord(t *testing.T) {
	var r Record
	if r.Len() != 0 || !r.Total().IsZero() {
		t.Fatal("zero record should be empty")
	}
	if e := FromMap(nil); e.Len() != 0 {
		t.Fatal("FromMap(nil) should be empty")
	}
	if lo, hi := r.ShapeRange(treelet.FromParents([]int{0, 0})); lo != 0 || hi != 0 {
		t.Fatal("empty record should have empty shape ranges")
	}
}

func TestShapeRangeAndTotal(t *testing.T) {
	r := FromMap(sampleMap())
	edge := treelet.FromParents([]int{0, 0})
	lo, hi := r.ShapeRange(edge)
	if hi-lo != 2 {
		t.Fatalf("edge range size %d, want 2", hi-lo)
	}
	if got := r.ShapeTotal(edge); got != u128.From64(7) {
		t.Errorf("edge shape total %v, want 7", got)
	}
	if got := r.RangeTotal(lo, hi); got != u128.From64(7) {
		t.Errorf("edge range total %v, want 7", got)
	}
	star3 := treelet.FromParents([]int{0, 0, 0})
	if got := r.ShapeTotal(star3); got != u128.From64(1) {
		t.Errorf("star3 shape total %v", got)
	}
	if got := r.ShapeTotal(treelet.FromParents([]int{0, 0, 1, 2})); !got.IsZero() {
		t.Errorf("absent shape total %v", got)
	}
}

func TestSampleProportional(t *testing.T) {
	r := FromMap(sampleMap())
	rng := rand.New(rand.NewSource(17))
	counts := make(map[treelet.Colored]int)
	const draws = 60000
	for i := 0; i < draws; i++ {
		counts[r.Sample(rng)]++
	}
	total := r.Total().Float64()
	for key, want := range sampleMap() {
		got := float64(counts[key]) / draws
		expect := want.Float64() / total
		if got < expect-0.02 || got > expect+0.02 {
			t.Errorf("key %v drawn with freq %.4f, want %.4f", key, got, expect)
		}
	}
}

func TestSampleRangeRestricted(t *testing.T) {
	r := FromMap(sampleMap())
	edge := treelet.FromParents([]int{0, 0})
	lo, hi := r.ShapeRange(edge)
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 1000; i++ {
		k := r.SampleRange(rng, lo, hi)
		if k.Tree() != edge {
			t.Fatalf("restricted sample escaped the shape: %v", k.Tree())
		}
	}
}

func TestSamplePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var r Record
	r.Sample(rand.New(rand.NewSource(1)))
}

func TestDiskStoreRoundTrip(t *testing.T) {
	ds, err := NewDiskStoreBuffered(t.TempDir(), 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	var p0 Pairs
	p0.FromMap(sampleMap())
	enc0 := AppendRecord(nil, &p0)
	if err := ds.Flush(enc0); err != nil {
		t.Fatal(err)
	}
	var p3 Pairs
	p3.FromMap(map[treelet.Colored]u128.Uint128{
		treelet.MakeColored(treelet.Leaf, 0b1): {Hi: 2, Lo: 3},
	})
	enc3 := AppendRecord(nil, &p3)
	if err := ds.Flush(enc3); err != nil {
		t.Fatal(err)
	}
	if ds.Size() != int64(len(enc0)+len(enc3)) {
		t.Fatalf("spill size %d, want %d", ds.Size(), len(enc0)+len(enc3))
	}
	arena := make([]byte, ds.Size())
	if err := ds.ReadAt(arena, 0); err != nil {
		t.Fatal(err)
	}
	// Nodes 0 and 3 were flushed in order; 1, 2 and 4 are empty.
	starts := []int64{0, -1, -1, int64(len(enc0)), -1}
	tab := New(5, 1, false)
	if err := tab.SetLevel(1, arena, starts); err != nil {
		t.Fatal(err)
	}
	// 128-bit counts survive.
	if _, cnt := tab.Rec(1, 3).Packed().At(0); cnt != (u128.Uint128{Hi: 2, Lo: 3}) {
		t.Fatalf("hi bits lost: %v", cnt)
	}
	if tab.Rec(1, 0).Len() != p0.Len() || tab.Rec(1, 0).Total() != u128.From64(15) {
		t.Fatal("record 0 lost through SetLevel")
	}
	if tab.Rec(1, 1).Len() != 0 {
		t.Fatal("unflushed record should load empty")
	}
	if ds.Size() == 0 {
		t.Error("spill size should be positive")
	}
}

// TestDiskStoreReadAtAllocs: the merge reads each shard's byte range of a
// spill file straight into its slice of the level arena, with no read
// buffer of its own; a range past the flushed bytes is an error.
func TestDiskStoreReadAtAllocs(t *testing.T) {
	ds, err := NewDiskStoreBuffered(t.TempDir(), 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	var p Pairs
	p.FromMap(sampleMap())
	enc := AppendRecord(nil, &p)
	for range 2 {
		if err := ds.Flush(enc); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]byte, len(enc))
	if allocs := testing.AllocsPerRun(20, func() {
		if err := ds.ReadAt(dst, int64(len(enc))); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ReadAt allocates %.1f times per call, want 0", allocs)
	}
	if !bytes.Equal(dst, enc) {
		t.Error("ReadAt read back different bytes")
	}
	if err := ds.ReadAt(dst, int64(len(enc))+1); err == nil {
		t.Error("a range past the flushed bytes read without error")
	}
}

func TestTableAccounting(t *testing.T) {
	tab := New(3, 2, true)
	var p Pairs
	p.FromMap(map[treelet.Colored]u128.Uint128{
		treelet.MakeColored(treelet.FromParents([]int{0, 0}), 0b11): u128.From64(4),
	})
	tab.SetRec(2, 0, &p)
	if tab.TotalK() != u128.From64(4) {
		t.Errorf("TotalK = %v", tab.TotalK())
	}
	if tab.Pairs() != 1 {
		t.Errorf("Pairs = %d", tab.Pairs())
	}
	// Packed accounting: the single record (≈ a dozen bytes) plus the
	// 8-byte-per-node-per-level offset index.
	rec := tab.Rec(2, 0).Packed()
	want := rec.Bytes() + 8*3*2
	if tab.Bytes() != want {
		t.Errorf("Bytes = %d, want %d", tab.Bytes(), want)
	}
	if rec.Bytes() >= 24 {
		t.Errorf("packed single-pair record takes %d bytes, dense layout was 24", rec.Bytes())
	}
}

package build

import (
	"context"
	"slices"
	"testing"

	"repro/internal/coloring"
	"repro/internal/gen"
	"repro/internal/memo"
	"repro/internal/table"
	"repro/internal/treelet"
)

// TestRecordCacheMatchesDecode: after the passes below the top level of a
// smart and of a materialized build, on one worker and on four, every
// record the build's record cache holds equals a fresh decode of that
// (size, node), and it holds records of every completed level.
func TestRecordCacheMatchesDecode(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 7)
	k := 6
	col := coloring.Uniform(g.NumNodes(), k, 9)
	cat := treelet.NewCatalog(k)
	for _, smart := range []bool{true, false} {
		for _, workers := range []int{1, 4} {
			opts := DefaultOptions()
			opts.SmartStars, opts.Workers = smart, workers
			b, first, err := newBuilder(g, col, k, cat, opts)
			if err != nil {
				t.Fatal(err)
			}
			for h := first; h < k; h++ {
				if err := b.level(context.Background(), h); err != nil {
					t.Fatal(err)
				}
			}
			sizes := map[int]bool{}
			var want table.Pairs
			b.recs.Range(func(key uint64, p *table.Pairs) bool {
				h, v := int(key>>32), int32(uint32(key))
				want.Reset()
				b.tab.Rec(h, v).AppendPairs(&want)
				if !slices.Equal(p.Keys, want.Keys) || !slices.Equal(p.Counts, want.Counts) {
					t.Fatalf("smart=%v workers=%d: cached record (%d, %d) differs from a fresh decode", smart, workers, h, v)
				}
				sizes[h] = true
				return true
			})
			for h := 1; h < k-1; h++ {
				if !sizes[h] {
					t.Errorf("smart=%v workers=%d: no size-%d record cached", smart, workers, h)
				}
			}
			if b.stats.RecordMisses < int64(b.recs.Len()) || b.stats.RecordHits == 0 {
				t.Errorf("smart=%v workers=%d: %d hits, %d misses for %d cached records", smart, workers,
					b.stats.RecordHits, b.stats.RecordMisses, b.recs.Len())
			}
		}
	}
}

// TestFrozenRecordMissAllocs: once the record cache has frozen, a read it
// does not hold decodes into the worker's scratch and allocates nothing,
// whether the record is synthesized (smart stars, sums from the store or
// the worker's slots) or stored.
func TestFrozenRecordMissAllocs(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 11)
	k := 6
	col := coloring.Uniform(g.NumNodes(), k, 13)
	cat := treelet.NewCatalog(k)
	for _, smart := range []bool{true, false} {
		opts := DefaultOptions()
		opts.SmartStars, opts.Workers = smart, 1
		b, first, err := newBuilder(g, col, k, cat, opts)
		if err != nil {
			t.Fatal(err)
		}
		if smart && b.sums.Nodes() == 0 {
			t.Fatal("no node in the neighbor-sum store")
		}
		for h := first; h < k; h++ {
			if err := b.level(context.Background(), h); err != nil {
				t.Fatal(err)
			}
		}
		b.recs = memo.New[table.Pairs](0) // frozen: every read misses
		w := newWorker(b, k)
		readAll := func() {
			for h := 1; h < k; h++ {
				for v := int32(0); int(v) < g.NumNodes(); v++ {
					w.pairs(h, v, &w.uRec)
				}
			}
		}
		readAll() // grows the scratch and fills the store and the slots
		if allocs := testing.AllocsPerRun(5, readAll); allocs != 0 {
			t.Errorf("smart=%v: %v allocations per sweep of frozen-cache misses, want 0", smart, allocs)
		}
		if w.hits != 0 || w.misses == 0 {
			t.Errorf("smart=%v: %d hits, %d misses on a frozen empty cache", smart, w.hits, w.misses)
		}
	}
}

package sample

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/build"
	"repro/internal/coloring"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/table"
	"repro/internal/treelet"
	"repro/internal/u128"
)

// The smart-star property: for random graphs and every treelet size, a
// smart table must be observationally identical to the materialized table
// of the same coloring — entry-identical records (keys, counts, totals)
// and identical urn draw sequences at equal seed. This is the invariant
// everything else (bit-identical estimates, AGS behavior, the serving
// layer) rests on.

func buildPair(t *testing.T, g *graph.Graph, k int, seed int64) (*table.Table, *table.Table, *coloring.Coloring, *treelet.Catalog) {
	t.Helper()
	col := coloring.Uniform(g.NumNodes(), k, seed)
	cat := treelet.NewCatalog(k)
	mat := build.DefaultOptions()
	mat.SmartStars = false
	tabMat, _, err := build.Run(context.Background(), g, col, k, cat, mat)
	if err != nil {
		t.Fatal(err)
	}
	tabSmart, _, err := build.Run(context.Background(), g, col, k, cat, build.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return tabMat, tabSmart, col, cat
}

// entries flattens one record view into pairs.
func entries(vw table.View) (keys []treelet.Colored, counts []u128.Uint128) {
	vw.Each(func(k treelet.Colored, c u128.Uint128) bool {
		keys = append(keys, k)
		counts = append(counts, c)
		return true
	})
	return
}

func TestSmartRecordsEntryIdenticalProperty(t *testing.T) {
	graphs := map[string]func(seed int64) *graph.Graph{
		"er": func(seed int64) *graph.Graph { return gen.ErdosRenyi(60, 200, seed) },
		"ba": func(seed int64) *graph.Graph { return gen.BarabasiAlbert(60, 3, seed) },
		// Three hubs adjacent to all 57 leaves: large neighbor sums, and
		// every star-of-stars shape occurs.
		"hub": func(seed int64) *graph.Graph { return gen.StarHeavy(3, 57, 40, seed) },
	}
	for name, mk := range graphs {
		for k := 2; k <= 7; k++ {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/k=%d/seed=%d", name, k, seed), func(t *testing.T) {
					g := mk(seed)
					tabMat, tabSmart, _, cat := buildPair(t, g, k, seed*31+int64(k))
					// Once with no cache (every neighbor sum computed on
					// demand), once through one cache shared by every node
					// and size, read in an interleaved order so node slots
					// are reassigned between and during the walks.
					rng := rand.New(rand.NewSource(seed))
					for _, cache := range []*table.SynthCache{nil, table.NewSynthCache()} {
						if n := checkRecords(t, g, k, cat, tabMat, tabSmart, cache, rng); n == 0 {
							t.Fatal("graphs produced no entries at all — vacuous run")
						}
					}
					checkSlotReuse(t, g, k, tabMat, tabSmart, table.NewSynthCache())
				})
			}
		}
	}
}

// TestSmartRecordsEntryIdenticalMaxK runs the record oracle once at the
// largest supported k, on a graph small enough for the materialized DP:
// ten colors besides the root's, so the deepest partition walks and the
// widest node slots.
func TestSmartRecordsEntryIdenticalMaxK(t *testing.T) {
	g := gen.ErdosRenyi(24, 40, 3)
	k := treelet.MaxK
	tabMat, tabSmart, _, cat := buildPair(t, g, k, 5)
	if n := checkRecords(t, g, k, cat, tabMat, tabSmart, table.NewSynthCache(), rand.New(rand.NewSource(1))); n == 0 {
		t.Fatal("graph produced no entries at all — vacuous run")
	}
}

// checkRecords compares every (size, node) record of the smart table, read
// through cache in a shuffled order, with the materialized one: entries,
// totals, lengths, point counts of every stored key and of absent keys,
// per-shape totals and walks, and the nested walk a sampling sweep makes.
// It returns the number of entries compared.
func checkRecords(t *testing.T, g *graph.Graph, k int, cat *treelet.Catalog, tabMat, tabSmart *table.Table, cache *table.SynthCache, rng *rand.Rand) int {
	t.Helper()
	type rec struct {
		h int
		v int32
	}
	var order []rec
	for h := 1; h <= k; h++ {
		for v := int32(0); int(v) < g.NumNodes(); v++ {
			order = append(order, rec{h, v})
		}
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	smart := func(h int, v int32) table.View { return tabSmart.Rec(h, v).WithCache(cache) }
	all := treelet.ColorSet(1)<<k - 1
	total := 0
	for _, r := range order {
		h, v := r.h, r.v
		mat, sm := tabMat.Rec(h, v), smart(h, v)
		mk, mc := entries(mat)
		sk, sc := entries(sm)
		if !reflect.DeepEqual(mk, sk) {
			t.Fatalf("cache=%v h=%d v=%d keys differ:\nmat:   %v\nsmart: %v", cache != nil, h, v, mk, sk)
		}
		if !reflect.DeepEqual(mc, sc) {
			t.Fatalf("cache=%v h=%d v=%d counts differ:\nmat:   %v\nsmart: %v", cache != nil, h, v, mc, sc)
		}
		if mat.Total() != sm.Total() || mat.Len() != sm.Len() {
			t.Fatalf("cache=%v h=%d v=%d totals or lengths differ", cache != nil, h, v)
		}
		for i, key := range mk {
			if got := sm.Count(key); got != mc[i] {
				t.Fatalf("cache=%v h=%d v=%d Count(%v) = %v, want %v", cache != nil, h, v, key, got, mc[i])
			}
		}
		for _, shape := range cat.BySize[h] {
			// Mostly absent keys: color sets missing color 0 or 1, sets of
			// the shape's size and one smaller, and the full set.
			for _, cs := range []treelet.ColorSet{all &^ 1, all &^ 2, 1<<h - 1, 1<<(h-1) - 1, all} {
				key := treelet.MakeColored(shape, cs)
				if got, want := sm.Count(key), mat.Count(key); got != want {
					t.Fatalf("cache=%v h=%d v=%d Count(%v) = %v, want %v", cache != nil, h, v, key, got, want)
				}
			}
			if mat.ShapeTotal(shape) != sm.ShapeTotal(shape) {
				t.Fatalf("cache=%v h=%d v=%d ShapeTotal(%v) differs", cache != nil, h, v, shape)
			}
			var mw, sw []treelet.Colored
			mat.ShapeEach(shape, all, func(key treelet.Colored, _ u128.Uint128) bool { mw = append(mw, key); return true })
			sm.ShapeEach(shape, all, func(key treelet.Colored, _ u128.Uint128) bool { sw = append(sw, key); return true })
			if !reflect.DeepEqual(mw, sw) {
				t.Fatalf("cache=%v h=%d v=%d ShapeEach(%v) keys differ", cache != nil, h, v, shape)
			}
		}
		if h < k {
			if other := cat.BySize[h+1][0]; sm.Count(treelet.MakeColored(other, all)) != mat.Count(treelet.MakeColored(other, all)) {
				t.Fatalf("cache=%v h=%d v=%d Count of a size-%d key differs", cache != nil, h, v, h+1)
			}
		}
		if h >= 2 {
			checkNestedSweep(t, g, cat, tabMat, smart, h, v, mk)
		}
		total += len(mk)
	}
	return total
}

// checkSlotReuse reads each node's records through one cache so that the
// node's slot serves reads of every size in turn: a whole-record read of
// growing size, each followed by single-key lookups at every size, all
// answered from (and adding to) the neighbor sums kept in the slot.
func checkSlotReuse(t *testing.T, g *graph.Graph, k int, tabMat, tabSmart *table.Table, cache *table.SynthCache) {
	t.Helper()
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		for h := 1; h <= k; h++ {
			if mat, sm := tabMat.Rec(h, v), tabSmart.Rec(h, v).WithCache(cache); mat.Total() != sm.Total() {
				t.Fatalf("v=%d h=%d: totals differ", v, h)
			}
			for h2 := 1; h2 <= k; h2++ {
				keys, counts := entries(tabMat.Rec(h2, v))
				sm := tabSmart.Rec(h2, v).WithCache(cache)
				for i, key := range keys {
					if got := sm.Count(key); got != counts[i] {
						t.Fatalf("v=%d: Count(%v) = %v after a size-%d read, want %v", v, key, got, h, counts[i])
					}
				}
			}
		}
	}
}

// checkNestedSweep replays computeSweep's pattern at (h, v) for the first
// few keys of its record: a ShapeEach at each neighbor w whose callback
// counts at v — and, to force slot reassignments inside the walk, at up
// to five neighbors of v — and reads whole size-h records, which take a
// slot whenever h ≥ 3, at w itself (whose slot the walk holds) and at two
// other neighbors of v, all on the same cache. Each nested read is
// compared with the materialized table, and the candidate lists must
// match.
func checkNestedSweep(t *testing.T, g *graph.Graph, cat *treelet.Catalog, tabMat *table.Table, smart func(int, int32) table.View, h int, v int32, keys []treelet.Colored) {
	t.Helper()
	type cand struct {
		w   int32
		cpp treelet.Colored
		cu  u128.Uint128
		cv  u128.Uint128
	}
	for _, tc := range keys[:min(len(keys), 3)] {
		tpp, tp := cat.FirstChild(tc.Tree()), cat.Rest(tc.Tree())
		hpp, hp := tpp.Size(), tp.Size()
		C := tc.Colors()
		nbrs := g.Neighbors(v)
		sweep := func(view func(int, int32) table.View) []cand {
			var out []cand
			for _, w := range nbrs {
				whole := []int32{w}
				for _, x := range nbrs {
					if x != w && len(whole) < 3 {
						whole = append(whole, x)
					}
				}
				view(hpp, w).ShapeEach(tpp, C, func(cpp treelet.Colored, cu u128.Uint128) bool {
					cp := treelet.MakeColored(tp, C&^cpp.Colors())
					cv := view(hp, v).Count(cp)
					for _, x := range nbrs[:min(len(nbrs), 5)] {
						if got, want := view(hp, x).Count(cp), tabMat.Rec(hp, x).Count(cp); got != want {
							t.Fatalf("h=%d v=%d: nested Count(%v) at %d = %v, want %v", h, v, cp, x, got, want)
						}
					}
					for _, x := range whole {
						if got, want := view(h, x).Total(), tabMat.Rec(h, x).Total(); got != want {
							t.Fatalf("h=%d v=%d: nested Total at %d = %v, want %v", h, v, x, got, want)
						}
					}
					out = append(out, cand{w, cpp, cu, cv})
					return true
				})
			}
			return out
		}
		want := sweep(func(h int, v int32) table.View { return tabMat.Rec(h, v) })
		if got := sweep(smart); !reflect.DeepEqual(got, want) {
			t.Fatalf("h=%d v=%d: nested sweep of %v differs:\nmat:   %v\nsmart: %v", h, v, tc, want, got)
		}
	}
}

func TestSmartUrnDrawSequenceIdentical(t *testing.T) {
	g := gen.ErdosRenyi(80, 280, 17)
	for _, k := range []int{3, 4, 5} {
		tabMat, tabSmart, col, cat := buildPair(t, g, k, int64(k)*101)
		urnMat, err := NewUrn(g, col, tabMat, cat)
		if err != nil {
			t.Fatal(err)
		}
		urnSmart, err := NewUrn(g, col, tabSmart, cat)
		if err != nil {
			t.Fatal(err)
		}
		if urnMat.Total() != urnSmart.Total() {
			t.Fatalf("k=%d: urn totals differ: %v vs %v", k, urnMat.Total(), urnSmart.Total())
		}
		rngA := rand.New(rand.NewSource(42))
		rngB := rand.New(rand.NewSource(42))
		for i := 0; i < 2000; i++ {
			codeA, nodesA := urnMat.Sample(rngA)
			codeB, nodesB := urnSmart.Sample(rngB)
			if codeA != codeB || !reflect.DeepEqual(nodesA, nodesB) {
				t.Fatalf("k=%d draw %d differs: %v%v vs %v%v", k, i, codeA, nodesA, codeB, nodesB)
			}
		}
	}
}

func TestSmartShapeUrnDrawSequenceIdentical(t *testing.T) {
	g := gen.BarabasiAlbert(90, 3, 23)
	k := 5
	tabMat, tabSmart, col, cat := buildPair(t, g, k, 303)
	urnMat, err := NewUrn(g, col, tabMat, cat)
	if err != nil {
		t.Fatal(err)
	}
	urnSmart, err := NewUrn(g, col, tabSmart, cat)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, shape := range cat.UnrootedK {
		suMat, err := urnMat.NewShapeUrn(shape)
		if err != nil {
			t.Fatal(err)
		}
		suSmart, err := urnSmart.NewShapeUrn(shape)
		if err != nil {
			t.Fatal(err)
		}
		if suMat.Total() != suSmart.Total() {
			t.Fatalf("shape %v: totals differ: %v vs %v", shape, suMat.Total(), suSmart.Total())
		}
		if suMat.Empty() != suSmart.Empty() {
			t.Fatalf("shape %v: emptiness differs", shape)
		}
		if suMat.Empty() {
			continue
		}
		rngA := rand.New(rand.NewSource(7))
		rngB := rand.New(rand.NewSource(7))
		for i := 0; i < 500; i++ {
			codeA, nodesA := suMat.Sample(urnMat, rngA)
			codeB, nodesB := suSmart.Sample(urnSmart, rngB)
			if codeA != codeB || !reflect.DeepEqual(nodesA, nodesB) {
				t.Fatalf("shape %v draw %d differs", shape, i)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no shape had occurrences — vacuous run")
	}
}

// TestSmartSynthesisAllocs guards the synthesis read path: steady-state
// Each, Total, Count and ShapeEach over every record of a k=6 smart table
// allocate nothing, through a warm cache and through a nil cache alike.
func TestSmartSynthesisAllocs(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 5)
	k := 6
	col := coloring.Uniform(g.NumNodes(), k, 77)
	tab, _, err := build.Run(context.Background(), g, col, k, treelet.NewCatalog(k), build.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		h   int
		v   int32
		key treelet.Colored // first entry; zero for an empty record
	}
	var recs []rec
	synthesized := 0
	for h := 1; h <= k; h++ {
		for v := int32(0); int(v) < g.NumNodes(); v++ {
			r := rec{h: h, v: v}
			tab.Rec(h, v).Each(func(key treelet.Colored, _ u128.Uint128) bool {
				r.key = key
				return false
			})
			if r.key != 0 && tab.Rec(h, v).Packed().Count(r.key).IsZero() {
				synthesized++
			}
			recs = append(recs, r)
		}
	}
	if synthesized == 0 {
		t.Fatal("no record starts with a synthesized entry — vacuous run")
	}
	var sum u128.Uint128
	fn := func(_ treelet.Colored, c u128.Uint128) bool {
		sum = sum.Add(c)
		return true
	}
	for _, tc := range []struct {
		name  string
		cache *table.SynthCache
	}{{"nil", nil}, {"warm", table.NewSynthCache()}} {
		pass := func() {
			for _, r := range recs {
				vw := tab.Rec(r.h, r.v).WithCache(tc.cache)
				vw.Each(fn)
				sum = sum.Add(vw.Total())
				if r.key != 0 {
					sum = sum.Add(vw.Count(r.key))
					vw.ShapeEach(r.key.Tree(), treelet.MaxColorSet, fn)
				}
			}
		}
		pass() // allocates the cache's node slots
		if allocs := testing.AllocsPerRun(3, pass); allocs != 0 {
			t.Errorf("%s cache: %v allocations per pass over %d records, want 0", tc.name, allocs, len(recs))
		}
	}
}

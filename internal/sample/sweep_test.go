package sample

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphlet"
	"repro/internal/table"
	"repro/internal/treelet"
	"repro/internal/u128"
)

// A sweep visits only the neighbors whose color the first child can take
// and asks each for the colorings inside C∖{col(v)}; the sweep cache is
// keyed by one packed uint64 and read without its lock once frozen; a miss
// it will not keep is computed into the clone's scratch entry. These tests
// hold all three to the unbounded sweep below and to sequential draws.

// referenceSweep is the unbounded sweep: every neighbor's whole first-child
// shape, each coloring filtered to C” ⊆ C and weighted by the rest part's
// count at v, zero weights dropped.
func referenceSweep(u *Urn, v int32, tc treelet.Colored) *sweepEntry {
	tpp, tp := u.Cat.FirstChild(tc.Tree()), u.Cat.Rest(tc.Tree())
	C := tc.Colors()
	sw := &sweepEntry{tpp: tpp}
	rv := u.Tab.Rec(tp.Size(), v)
	for _, w := range u.G.Neighbors(v) {
		u.Tab.Rec(tpp.Size(), w).ShapeEach(tpp, treelet.MaxColorSet, func(cpp treelet.Colored, cu u128.Uint128) bool {
			cs := cpp.Colors()
			if cs&C != cs {
				return true
			}
			cv := rv.Count(treelet.MakeColored(tp, C&^cs))
			if cv.IsZero() {
				return true
			}
			sw.total += cv.Float64() * cu.Float64()
			sw.cands = append(sw.cands, sweepCand{w, cs})
			sw.cum = append(sw.cum, sw.total)
			return true
		})
	}
	return sw
}

// sameSweep compares two sweeps by value (a reused scratch entry may carry
// spare capacity).
func sameSweep(a, b *sweepEntry) bool {
	return a.tpp == b.tpp && a.total == b.total && len(a.cands) == len(b.cands) &&
		(len(a.cands) == 0 || reflect.DeepEqual(a.cands, b.cands) && reflect.DeepEqual(a.cum, b.cum))
}

// unpackSweepKey inverts sweepKey.
func unpackSweepKey(key uint64) (int32, treelet.Colored) {
	tree := treelet.Treelet(key>>11&(1<<20-1)) << 12
	return int32(key >> 32), treelet.MakeColored(tree, treelet.ColorSet(key&(1<<11-1)))
}

// TestSweepMatchesReference: at k = 3..6 on ER, BA and star-heavy graphs,
// smart and materialized tables, the bounded sweep of every colored
// treelet of every record (computed into one reused scratch entry) equals
// the unbounded reference, and so does every entry the sweep cache holds
// after a run of draws, found again from its packed key.
func TestSweepMatchesReference(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"er", gen.ErdosRenyi(40, 120, 3)},
		{"ba", gen.BarabasiAlbert(40, 3, 5)},
		{"star", gen.StarHeavy(2, 40, 20, 7)},
	}
	for k := 3; k <= 6; k++ {
		for _, gc := range graphs {
			tabMat, tabSmart, col, cat := buildPair(t, gc.g, k, int64(10+k))
			for _, tc := range []struct {
				name string
				tab  *table.Table
			}{{"materialized", tabMat}, {"smart", tabSmart}} {
				u, err := NewUrn(gc.g, col, tc.tab, cat)
				if err != nil {
					t.Fatal(err)
				}
				var scratch sweepEntry
				swept := 0
				for h := 2; h <= k; h++ {
					for v := int32(0); int(v) < gc.g.NumNodes(); v++ {
						u.Tab.Rec(h, v).Each(func(key treelet.Colored, _ u128.Uint128) bool {
							u.computeSweep(&scratch, v, key)
							if want := referenceSweep(u, v, key); !sameSweep(&scratch, want) {
								t.Fatalf("k=%d %s/%s: sweep of %v at %d = %+v, want %+v", k, gc.name, tc.name, key, v, scratch, *want)
							}
							if gv, gkey := unpackSweepKey(sweepKey(v, key)); gv != v || gkey != key {
								t.Fatalf("sweep key of (%d, %v) does not round-trip", v, key)
							}
							swept++
							return true
						})
					}
				}
				if swept == 0 {
					t.Fatalf("k=%d %s/%s: no sweep — vacuous", k, gc.name, tc.name)
				}
				if u.Empty() {
					continue
				}
				u.SampleBatch(rand.New(rand.NewSource(int64(k))), 300, func(graphlet.Code, []int32) bool { return true })
				u.sweeps.Range(func(key uint64, sw *sweepEntry) bool {
					v, tcol := unpackSweepKey(key)
					if want := referenceSweep(u, v, tcol); !sameSweep(sw, want) {
						t.Fatalf("k=%d %s/%s: cached sweep of %v at %d differs from the reference", k, gc.name, tc.name, tcol, v)
					}
					return true
				})
			}
		}
	}
}

// TestSweepCacheFreezesUnderConcurrentClones: clones of one urn whose
// small sweep budget is spent partway through the run draw concurrently
// (run under -race: reads switch from the locked to the lock-free path
// while other clones still insert), and each clone's sequence equals a
// sequential clone's at the same seed.
func TestSweepCacheFreezesUnderConcurrentClones(t *testing.T) {
	ref := buildUrn(t, gen.BarabasiAlbert(120, 3, 13), 6, 17)
	const clones, draws, budget = 8, 400, 3000
	want := make([][]draw, clones)
	for i := range want {
		c := ref.Clone()
		rng := rand.New(rand.NewSource(int64(2000 + i)))
		for range draws {
			want[i] = append(want[i], record(c.Sample(rng)))
		}
	}

	shared, err := NewUrn(ref.G, ref.Col, ref.Tab, ref.Cat)
	if err != nil {
		t.Fatal(err)
	}
	shared.SetCacheBudgets(DefaultDecodePairBudget, budget)
	got := make([][]draw, clones)
	sweeps := make([]int64, clones)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := shared.Clone()
			rng := rand.New(rand.NewSource(int64(2000 + i)))
			c.SampleBatch(rng, draws, func(code graphlet.Code, nodes []int32) bool {
				got[i] = append(got[i], record(code, nodes))
				return true
			})
			sweeps[i] = c.Sweeps
		}(i)
	}
	wg.Wait()
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("clone %d: concurrent sequence differs from the sequential one", i)
		}
	}
	var total int64
	for _, s := range sweeps {
		total += s
	}
	if !shared.sweeps.Frozen() || shared.sweeps.Len() == 0 {
		t.Fatalf("sweep cache frozen=%v with %d entries: the budget must be spent mid-run", shared.sweeps.Frozen(), shared.sweeps.Len())
	}
	if total <= int64(shared.sweeps.Len()) {
		t.Fatalf("%d sweeps for %d cached entries: no miss ran after the cache froze", total, shared.sweeps.Len())
	}
}

// TestSweepScratchGrowsOnce: sweepBound bounds every sweep's candidates,
// and on a frozen sweep cache a fresh clone's first miss sizes its scratch
// once from that bound — two allocations (candidates and cumulative
// weights) for a sweep of many candidates, where growing by append would
// take several.
func TestSweepScratchGrowsOnce(t *testing.T) {
	u := buildUrn(t, gen.BarabasiAlbert(120, 3, 13), 6, 17)
	u.SetCacheBudgets(DefaultDecodePairBudget, 0)
	var (
		bigV   int32
		bigKey treelet.Colored
		bigN   int
	)
	for h := 2; h <= u.K; h++ {
		for v := int32(0); int(v) < u.G.NumNodes(); v++ {
			u.Tab.Rec(h, v).Each(func(key treelet.Colored, _ u128.Uint128) bool {
				n := len(referenceSweep(u, v, key).cands)
				if bound := u.sweepBound(v, key); n > bound {
					t.Fatalf("sweep of %v at %d has %d candidates, bound %d", key, v, n, bound)
				}
				if n > bigN {
					bigV, bigKey, bigN = v, key, n
				}
				return true
			})
		}
	}
	if bigN < 32 {
		t.Fatalf("largest sweep has %d candidates: too few to tell one allocation from append growth", bigN)
	}
	c := u.Clone()
	c.computeSweep(&sweepEntry{}, bigV, bigKey) // takes the clone's synthesis slots
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sw := c.sweepFor(sweepKey(bigV, bigKey), bigV, bigKey)
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs != 2 || len(sw.cands) != bigN {
		t.Fatalf("a fresh clone's %d-candidate miss made %d allocations, want 2", len(sw.cands), allocs)
	}
}

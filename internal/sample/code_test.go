package sample

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphlet"
	"repro/internal/table"
)

// Draws name their graphlet from the walk: the tree edges sampleCopy walks
// set their raw-code bits, only the other pairs are tested for adjacency,
// and the raw code is canonicalized through the urn's shared dense table
// (k ≤ 6) or the clone's own memo (k ≥ 7). These tests hold that path to
// the from-scratch reference, Urn.Induced.

func TestWalkCodeMatchesInduced(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"er", gen.ErdosRenyi(60, 180, 3)},
		{"ba", gen.BarabasiAlbert(60, 2, 5)},
		{"star", gen.StarHeavy(1, 60, 40, 7)},
	}
	for k := 3; k <= 8; k++ {
		drawn := 0
		for _, gc := range graphs {
			tabMat, tabSmart, col, cat := buildPair(t, gc.g, k, int64(k))
			for _, tc := range []struct {
				name string
				tab  *table.Table
			}{{"materialized", tabMat}, {"smart", tabSmart}} {
				urn, err := NewUrn(gc.g, col, tc.tab, cat)
				if err != nil {
					t.Fatal(err)
				}
				if urn.Empty() {
					continue
				}
				check := func(code graphlet.Code, nodes []int32) bool {
					drawn++
					if want := urn.Induced(nodes); code != want {
						t.Fatalf("k=%d %s/%s: draw on %v named %v, induced subgraph is %v",
							k, gc.name, tc.name, nodes, code, want)
					}
					return true
				}
				rng := rand.New(rand.NewSource(int64(k)))
				urn.SampleBatch(rng, 200, check)
				sus, err := urn.NewShapeUrns(cat.UnrootedK)
				if err != nil {
					t.Fatal(err)
				}
				for _, su := range sus {
					if !su.Empty() {
						su.SampleBatch(urn, rng, 20, check)
					}
				}
				if dense := k <= denseCanonK; (urn.canon != nil) != dense || (len(urn.canonMemo) > 0) == dense {
					t.Fatalf("k=%d: dense table %v, per-clone memo %d entries", k, urn.canon != nil, len(urn.canonMemo))
				}
			}
		}
		if drawn == 0 {
			t.Fatalf("k=%d: every urn was empty — vacuous run", k)
		}
	}
}

// TestCanonTableExhaustive: at k = 3..6 the dense table answers
// graphlet.Canonical for every raw code, both when it computes a slot and
// when it serves the stored one.
func TestCanonTableExhaustive(t *testing.T) {
	for k := 3; k <= denseCanonK; k++ {
		tab := newCanonTable(k)
		if want := 1 << (k * (k - 1) / 2); len(tab.slots) != want {
			t.Fatalf("k=%d: %d slots, want %d", k, len(tab.slots), want)
		}
		for raw := range uint64(len(tab.slots)) {
			want := graphlet.Canonical(k, graphlet.Code{Lo: raw})
			if got := tab.of(raw); got != want {
				t.Fatalf("k=%d raw %#x: computed %v, want %v", k, raw, got, want)
			}
			if got := tab.of(raw); got != want {
				t.Fatalf("k=%d raw %#x: stored %v, want %v", k, raw, got, want)
			}
		}
	}
	if newCanonTable(denseCanonK+1) != nil {
		t.Fatalf("k=%d must not get a dense table", denseCanonK+1)
	}
}

// TestSharedCanonTableConcurrentClones: clones of one fresh urn fill the
// shared canonical table concurrently (run under -race), and each clone's
// sequence equals a sequential clone's at the same seed.
func TestSharedCanonTableConcurrentClones(t *testing.T) {
	ref := buildUrn(t, gen.BarabasiAlbert(120, 3, 13), 6, 17)
	const clones, draws = 8, 400
	want := make([][]draw, clones)
	for i := range want {
		c := ref.Clone()
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		for range draws {
			want[i] = append(want[i], record(c.Sample(rng)))
		}
	}

	shared, err := NewUrn(ref.G, ref.Col, ref.Tab, ref.Cat)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]draw, clones)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + i)))
			shared.Clone().SampleBatch(rng, draws, func(code graphlet.Code, nodes []int32) bool {
				got[i] = append(got[i], record(code, nodes))
				return true
			})
		}(i)
	}
	wg.Wait()
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("clone %d: concurrent sequence differs from the sequential one", i)
		}
	}
	filled := 0
	for i := range shared.canon.slots {
		if shared.canon.slots[i].Load() != 0 {
			filled++
		}
	}
	if filled == 0 {
		t.Fatal("no canonical form reached the shared table")
	}
}

// TestWarmDrawsDoNotAllocate: once an urn is warm, Urn.SampleBatch and
// ShapeUrn.SampleBatch make no allocation per draw — at the default
// buffering threshold; with BufferThreshold = 1000 on a hub graph, as
// Figure 5 runs it, where every hub visit refills a neighbor buffer; and
// with a sweep budget small enough to freeze, where every miss recomputes
// its sweep into the clone's scratch entry.
func TestWarmDrawsDoNotAllocate(t *testing.T) {
	for _, arm := range []struct {
		name        string
		g           *graph.Graph
		threshold   int
		sweepBudget int // 0: the default, which these draws never spend
	}{
		{"default", gen.BarabasiAlbert(100, 3, 31), 0, 0},
		{"hub-buffered", gen.StarHeavy(1, 1100, 100, 37), 1000, 0},
		{"frozen-sweeps", gen.BarabasiAlbert(100, 3, 31), 0, 256},
	} {
		t.Run(arm.name, func(t *testing.T) {
			u := buildUrn(t, arm.g, 6, 41)
			if arm.threshold > 0 {
				u.BufferThreshold = arm.threshold
			}
			if arm.sweepBudget > 0 {
				u.SetCacheBudgets(DefaultDecodePairBudget, arm.sweepBudget)
			}
			sus, err := u.NewShapeUrns(u.Cat.UnrootedK)
			if err != nil {
				t.Fatal(err)
			}
			var shapes []*ShapeUrn
			for _, su := range sus {
				if !su.Empty() {
					shapes = append(shapes, su)
				}
			}
			for raw := range u.canon.slots { // raw codes keep turning up long after the records warm
				u.canon.of(uint64(raw))
			}
			rng := rand.New(rand.NewSource(43))
			sink := func(graphlet.Code, []int32) bool { return true }
			urnDraws := func() { u.SampleBatch(rng, 64, sink) }
			shapeDraws := func() {
				for _, su := range shapes {
					su.SampleBatch(u, rng, 8, sink)
				}
			}
			for range 1000 {
				urnDraws()
				shapeDraws()
			}
			sweeps := u.Sweeps
			for _, run := range []struct {
				name string
				fn   func()
			}{{"Urn", urnDraws}, {"ShapeUrn", shapeDraws}} {
				if allocs := testing.AllocsPerRun(50, run.fn); allocs != 0 {
					t.Errorf("%s.SampleBatch: %v allocations per batch on a warm urn, want 0", run.name, allocs)
				}
			}
			if arm.threshold > 0 && u.BufferHits == 0 {
				t.Fatal("no draw was served from a neighbor buffer — vacuous arm")
			}
			if frozen := u.sweeps.frozen.Load(); frozen != (arm.sweepBudget > 0) {
				t.Fatalf("sweep cache frozen=%v with budget %d", frozen, u.sweeps.budget)
			}
			if arm.sweepBudget > 0 && u.Sweeps == sweeps {
				t.Fatal("no sweep ran while measuring — vacuous arm")
			}
		})
	}
}

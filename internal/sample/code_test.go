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
// and the raw code is canonicalized through the process's dense table
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
				if dense := k <= graphlet.DenseCanonK; (urn.canon != nil) != dense || (len(urn.canonMemo) > 0) == dense {
					t.Fatalf("k=%d: dense table %v, per-clone memo %d entries", k, urn.canon != nil, len(urn.canonMemo))
				}
			}
		}
		if drawn == 0 {
			t.Fatalf("k=%d: every urn was empty — vacuous run", k)
		}
	}
}

// TestSharedCanonTableConcurrentClones: clones of a fresh urn draw
// concurrently, filling whatever of the process's canonical table earlier
// tests left empty (run under -race), and each clone's sequence equals a
// sequential clone's of a second urn at the same seed; both urns name
// their graphlets through the one process table.
func TestSharedCanonTableConcurrentClones(t *testing.T) {
	shared := buildUrn(t, gen.BarabasiAlbert(120, 3, 13), 6, 17)
	const clones, draws = 8, 400
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

	ref, err := NewUrn(shared.G, shared.Col, shared.Tab, shared.Cat)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		c := ref.Clone()
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		var want []draw
		for range draws {
			want = append(want, record(c.Sample(rng)))
		}
		if !reflect.DeepEqual(want, got[i]) {
			t.Fatalf("clone %d: concurrent sequence differs from the sequential one", i)
		}
	}
	if shared.canon == nil || shared.canon != ref.canon || shared.canon != graphlet.SharedCanonTable(6) {
		t.Fatal("the two urns do not share the process's canonical table")
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
			for raw := range uint64(1 << 15) { // raw 6-node codes keep turning up long after the records warm
				u.canon.Of(raw)
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
			if frozen := u.sweeps.Frozen(); frozen != (arm.sweepBudget > 0) {
				t.Fatalf("sweep cache frozen=%v with budget %d", frozen, arm.sweepBudget)
			}
			if arm.sweepBudget > 0 && u.Sweeps == sweeps {
				t.Fatal("no sweep ran while measuring — vacuous arm")
			}
		})
	}
}

package table_test

import (
	"context"
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

type entry struct {
	key treelet.Colored
	cnt u128.Uint128
}

// TestBoundedShapeEachProperty: for every node, shape and color bound, the
// bounded ShapeEach yields exactly the shape's entries of the whole-record
// walk (View.Each) whose color set lies in the bound, in the same order —
// at k = 3..6 on ER, BA and star-heavy graphs, on smart and materialized
// tables of one coloring. Every color is the unbounded walk.
func TestBoundedShapeEachProperty(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"er", gen.ErdosRenyi(30, 90, 3)},
		{"ba", gen.BarabasiAlbert(30, 3, 5)},
		{"star", gen.StarHeavy(2, 30, 15, 7)},
	}
	for k := 3; k <= 6; k++ {
		cat := treelet.NewCatalog(k)
		for _, gc := range graphs {
			col := coloring.Uniform(gc.g.NumNodes(), k, int64(20+k))
			for _, smart := range []bool{false, true} {
				opts := build.DefaultOptions()
				opts.SmartStars = smart
				opts.ZeroRooted = false // every node holds a size-k record
				tab, _, err := build.Run(context.Background(), gc.g, col, k, cat, opts)
				if err != nil {
					t.Fatal(err)
				}
				cache := table.NewSynthCache()
				walks := 0
				for h := 1; h <= k; h++ {
					for v := int32(0); int(v) < gc.g.NumNodes(); v++ {
						vw := tab.Rec(h, v).WithCache(cache)
						var record []entry
						vw.Each(func(key treelet.Colored, cnt u128.Uint128) bool {
							record = append(record, entry{key, cnt})
							return true
						})
						for _, shape := range cat.BySize[h] {
							for _, within := range append(colorSets(k), treelet.MaxColorSet) {
								var want, got []entry
								for _, e := range record {
									if e.key.Tree() == shape && e.key.Colors()&^within == 0 {
										want = append(want, e)
									}
								}
								vw.ShapeEach(shape, within, func(key treelet.Colored, cnt u128.Uint128) bool {
									got = append(got, entry{key, cnt})
									return true
								})
								if !reflect.DeepEqual(got, want) {
									t.Fatalf("k=%d %s smart=%v h=%d v=%d shape %v within %b:\ngot  %v\nwant %v",
										k, gc.name, smart, h, v, shape, within, got, want)
								}
								walks += len(want)
							}
						}
					}
				}
				if walks == 0 {
					t.Fatalf("k=%d %s smart=%v: every bounded walk was empty — vacuous", k, gc.name, smart)
				}
			}
		}
	}
}

// colorSets returns every subset of the k colors.
func colorSets(k int) []treelet.ColorSet {
	out := make([]treelet.ColorSet, 1<<k)
	for i := range out {
		out[i] = treelet.ColorSet(i)
	}
	return out
}

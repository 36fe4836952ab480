package table

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/coloring"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/treelet"
)

// smartOnly returns a smart table over g with no stored records: every
// record of size ≤ 3, and every height-≤2 shape above, is synthesized.
func smartOnly(t *testing.T, g *graph.Graph, k int, seed int64) *Table {
	t.Helper()
	tab := New(g.NumNodes(), k, false)
	if err := tab.EnableSmartStars(g, coloring.Uniform(g.NumNodes(), k, seed)); err != nil {
		t.Fatal(err)
	}
	return tab
}

func sumStoreGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"ba":   gen.BarabasiAlbert(60, 3, 5),
		"er":   gen.ErdosRenyi(60, 200, 3),
		"star": gen.StarHeavy(2, 40, 20, 7),
	}
}

// TestSumStoreMatchesNeighborSum: at k = 3..7 on BA, ER and star-heavy
// graphs, for a store that admits every node and for one that admits a
// few, every node's sums read through a cache over the store — from the
// store, or from a slot the cache filled — equal, for every color set of
// two or more colors other than the node's own, the sum a fresh neighbor
// sweep computes; and records read through such a cache equal records
// read with no cache at all.
func TestSumStoreMatchesNeighborSum(t *testing.T) {
	for k := 3; k <= 7; k++ {
		for name, g := range sumStoreGraphs() {
			tab := smartOnly(t, g, k, int64(20+k))
			s := tab.smart
			for _, budget := range []int64{1 << 30, 5 * sumsNodeBytes(k)} {
				st := NewSumStore(tab, budget)
				c := st.NewCache()
				checked := 0
				for v := int32(0); int(v) < g.NumNodes(); v++ {
					n := s.node(v, c, 2)
					own := treelet.Singleton(s.colors[v])
					others := (treelet.ColorSet(1)<<k - 1) &^ own
					for cs := others; cs != 0; cs = (cs - 1) & others {
						if cs&(cs-1) == 0 {
							continue // single colors are read from the degrees
						}
						if got, want := n.sums[squeeze(cs, own)], s.neighborSum(v, cs); got != want {
							t.Fatalf("k=%d %s budget %d: node %d sum over %b = %v, want %v", k, name, budget, v, cs, got, want)
						}
						checked++
					}
					n.release()
				}
				if checked == 0 || st.Nodes() == 0 {
					t.Fatalf("k=%d %s budget %d: %d sums checked, %d nodes admitted — vacuous", k, name, budget, checked, st.Nodes())
				}
				for h := 1; h <= k; h++ {
					for v := int32(0); int(v) < g.NumNodes(); v++ {
						gk, gc := recEntries(tab.Rec(h, v).WithCache(c))
						wk, wc := recEntries(tab.Rec(h, v))
						if !reflect.DeepEqual(gk, wk) || !reflect.DeepEqual(gc, wc) {
							t.Fatalf("k=%d %s budget %d: record (%d, %d) through the store differs", k, name, budget, h, v)
						}
					}
				}
			}
		}
	}
}

// TestSumStoreAdmitsByDegree: under a budget for a few nodes, the store
// admits whole degrees from the highest down, within the budget, and a
// node it does not admit is served by a slot of the cache.
func TestSumStoreAdmitsByDegree(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 9)
	k := 5
	tab := smartOnly(t, g, k, 11)
	budget := 10 * sumsNodeBytes(k)
	st := NewSumStore(tab, budget)
	if st.Nodes() == 0 || st.Nodes() > 10 || st.Bytes() > budget || st.Bytes() != int64(st.Nodes())*sumsNodeBytes(k) {
		t.Fatalf("budget for 10 nodes: %d admitted, %d bytes", st.Nodes(), st.Bytes())
	}
	minAdmitted, maxOther := 1<<30, 0
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		if st.lookup(tab.smart, v) != nil {
			minAdmitted = min(minAdmitted, g.Degree(v))
		} else {
			maxOther = max(maxOther, g.Degree(v))
		}
	}
	if minAdmitted <= maxOther {
		t.Fatalf("admitted degrees reach down to %d, a node of degree %d is not admitted", minAdmitted, maxOther)
	}
	c := st.NewCache()
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		n := tab.smart.node(v, c, 2)
		if n.sums == nil || (n.slot == nil) != (g.Degree(v) >= minAdmitted) {
			t.Fatalf("node %d of degree %d: sums %v, slot %v", v, g.Degree(v), n.sums != nil, n.slot != nil)
		}
		n.release()
	}
	if NewSumStore(tab, sumsNodeBytes(k)-1) != nil {
		t.Fatal("a budget below one node's sums admitted a node")
	}
	if NewSumStore(New(10, k, false), 1<<30) != nil {
		t.Fatal("a materialized table got a store")
	}
}

// TestSumStoreConcurrentFill: four goroutines, each with its own cache
// over one store, read every record in different orders (run under
// -race): the first reads of each node race to publish its sums, and
// every record each goroutine reads equals the uncached one.
func TestSumStoreConcurrentFill(t *testing.T) {
	g := gen.BarabasiAlbert(150, 3, 13)
	k := 6
	tab := smartOnly(t, g, k, 17)
	st := NewSumStore(tab, 1<<30)
	n := g.NumNodes()
	const workers = 4
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := st.NewCache()
			for i := range n {
				v := int32((i*[workers]int{1, 7, 11, 13}[w] + w*37) % n) // a permutation of the nodes per goroutine
				for h := 3; h <= k; h++ {
					gk, gc := recEntries(tab.Rec(h, v).WithCache(c))
					wk, wc := recEntries(tab.Rec(h, v))
					if !reflect.DeepEqual(gk, wk) || !reflect.DeepEqual(gc, wc) {
						t.Errorf("goroutine %d: record (%d, %d) through the store differs", w, h, v)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for i := range st.sums {
		if st.sums[i].Load() == nil {
			t.Fatalf("admitted node %d was never filled", st.nodes[i])
		}
	}
}

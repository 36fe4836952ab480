package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func mustBuild(t *testing.T, n int, edges []Edge) *Graph {
	t.Helper()
	g, err := Build(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildBasics(t *testing.T) {
	g := mustBuild(t, 4, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	for v := Node(0); v < 4; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("deg(%d)=%d, want 2", v, g.Degree(v))
		}
	}
}

// TestHasEdgeAllPairs: HasEdge agrees with an adjacency set on every
// ordered pair of a 4-cycle, of a 32-leaf star and of a small
// preferential-attachment graph, with either endpoint first.
func TestHasEdgeAllPairs(t *testing.T) {
	cycle := []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	var star []Edge
	for v := Node(1); v <= 32; v++ {
		star = append(star, Edge{0, v})
	}
	// Preferential attachment: each new node links to 3 endpoints drawn
	// from the edge list, so early nodes collect long lists.
	rng := rand.New(rand.NewSource(5))
	ba := []Edge{{0, 1}, {1, 2}, {0, 2}}
	for v := Node(3); v < 120; v++ {
		n := len(ba)
		for range 3 {
			e := ba[rng.Intn(n)]
			ba = append(ba, Edge{v, [2]Node{e.U, e.V}[rng.Intn(2)]})
		}
	}
	for _, tc := range []struct {
		name  string
		n     int
		edges []Edge
	}{{"cycle", 4, cycle}, {"star", 33, star}, {"ba", 120, ba}} {
		g := mustBuild(t, tc.n, tc.edges)
		adj := make(map[Edge]bool)
		for _, e := range tc.edges {
			adj[e], adj[Edge{e.V, e.U}] = true, true
		}
		for u := Node(0); int(u) < tc.n; u++ {
			for v := Node(0); int(v) < tc.n; v++ {
				if got, want := g.HasEdge(u, v), adj[Edge{u, v}] && u != v; got != want {
					t.Fatalf("%s: HasEdge(%d, %d) = %v, want %v", tc.name, u, v, got, want)
				}
			}
		}
	}
}

func TestBuildDedupAndLoops(t *testing.T) {
	g := mustBuild(t, 3, []Edge{{0, 1}, {1, 0}, {0, 1}, {1, 1}, {2, 2}})
	if g.NumEdges() != 1 {
		t.Fatalf("m=%d, want 1", g.NumEdges())
	}
	if g.Degree(2) != 0 {
		t.Error("self-loop should be dropped")
	}
}

func TestBuildRejectsOutOfRange(t *testing.T) {
	if _, err := Build(2, []Edge{{0, 2}}); err == nil {
		t.Error("expected out-of-range error")
	}
	if _, err := Build(2, []Edge{{-1, 0}}); err == nil {
		t.Error("expected negative-id error")
	}
	if _, err := Build(-1, nil); err == nil {
		t.Error("expected negative-n error")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := mustBuild(t, 5, []Edge{{3, 0}, {3, 4}, {3, 1}, {3, 2}})
	ns := g.Neighbors(3)
	for i := 1; i < len(ns); i++ {
		if ns[i-1] >= ns[i] {
			t.Fatalf("neighbors not sorted: %v", ns)
		}
	}
}

func TestSubgraph(t *testing.T) {
	// Triangle 0-1-2 plus pendant 3.
	g := mustBuild(t, 4, []Edge{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	sub, err := g.Subgraph([]Node{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumEdges() != 3 {
		t.Errorf("induced triangle has %d edges", sub.NumEdges())
	}
	sub2, err := g.Subgraph([]Node{0, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sub2.NumEdges() != 1 {
		t.Errorf("induced {0,1,3} has %d edges, want 1", sub2.NumEdges())
	}
}

func TestConnected(t *testing.T) {
	if !mustBuild(t, 3, []Edge{{0, 1}, {1, 2}}).Connected() {
		t.Error("path should be connected")
	}
	if mustBuild(t, 3, []Edge{{0, 1}}).Connected() {
		t.Error("isolated node 2 should disconnect")
	}
	if !mustBuild(t, 0, nil).Connected() {
		t.Error("empty graph is vacuously connected")
	}
}

func TestReadEdgeList(t *testing.T) {
	in := `# comment
% another comment
10 20
20 30
30 10

10 40
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("1\n")); err == nil {
		t.Error("expected error for single-field line")
	}
	if _, err := ReadEdgeList(strings.NewReader("a b\n")); err == nil {
		t.Error("expected error for non-numeric ids")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := mustBuild(t, 5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}})
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip mismatch: n=%d m=%d", g2.NumNodes(), g2.NumEdges())
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := mustBuild(t, 6, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}})
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("binary round trip mismatch")
	}
	for v := Node(0); int(v) < g.NumNodes(); v++ {
		a, b := g.Neighbors(v), g2.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("adjacency mismatch at %d", v)
			}
		}
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader(make([]byte, 64))); err == nil {
		t.Error("expected bad-magic error")
	}
}

func TestMaxDegree(t *testing.T) {
	g := mustBuild(t, 5, []Edge{{0, 1}, {0, 2}, {0, 3}, {3, 4}})
	if g.MaxDegree() != 3 {
		t.Errorf("MaxDegree=%d, want 3", g.MaxDegree())
	}
}

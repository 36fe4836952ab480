// Package graph provides the host-graph substrate: a compact immutable
// undirected simple graph in CSR (compressed sparse row) layout.
//
// Matching the paper (Section 3.3, "Input graph"): each adjacency list is a
// sorted static array, lists of consecutive vertices are contiguous in
// memory, iteration over neighbors is a slice scan, and edge-membership
// queries cost O(log δ(u)) via binary search — exactly what the sampling
// phase needs to induce a graphlet from a sampled treelet.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// sortNodes sorts a neighbor slice ascending.
func sortNodes(ns []Node) { slices.Sort(ns) }

// Node is a vertex identifier in [0, N).
type Node = int32

// Graph is an immutable undirected simple graph.
type Graph struct {
	offsets []int64 // len n+1; neighbor range of v is adj[offsets[v]:offsets[v+1]]
	adj     []Node  // concatenated sorted adjacency lists

	// mapped is set only on graphs opened with OpenMapped: offsets and
	// adj alias a read-only file mapping it owns (mmap.go).
	mapped *mappedGraph
}

// NumNodes returns the number of vertices.
func (g *Graph) NumNodes() int { return len(g.offsets) - 1 }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int64 { return int64(len(g.adj)) / 2 }

// Degree returns the degree of v.
func (g *Graph) Degree(v Node) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// MaxDegree returns the maximum degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.Degree(Node(v)); d > max {
			max = d
		}
	}
	return max
}

// Neighbors returns the sorted adjacency list of v as a shared slice view.
// Callers must not modify it.
func (g *Graph) Neighbors(v Node) []Node {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether {u, v} is an edge, in O(log min(δ(u), δ(v))):
// it bisects the shorter adjacency list.
func (g *Graph) HasEdge(u, v Node) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	_, found := slices.BinarySearch(g.Neighbors(u), v)
	return found
}

// Edge is an undirected edge; Build normalizes, deduplicates and drops
// self-loops, so callers may pass raw edge lists.
type Edge struct {
	U, V Node
}

// Build constructs a Graph on n vertices from an edge list. Endpoints must
// lie in [0, n). Duplicate edges (in either orientation) and self-loops are
// discarded.
func Build(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	norm := make([]Edge, 0, len(edges))
	for _, e := range edges {
		if e.U < 0 || e.V < 0 || int(e.U) >= n || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if e.U == e.V {
			continue
		}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		norm = append(norm, e)
	}
	sort.Slice(norm, func(i, j int) bool {
		if norm[i].U != norm[j].U {
			return norm[i].U < norm[j].U
		}
		return norm[i].V < norm[j].V
	})
	// Deduplicate in place.
	uniq := norm[:0]
	for i, e := range norm {
		if i > 0 && e == norm[i-1] {
			continue
		}
		uniq = append(uniq, e)
	}
	g := &Graph{
		offsets: make([]int64, n+1),
		adj:     make([]Node, 2*len(uniq)),
	}
	deg := make([]int64, n)
	for _, e := range uniq {
		deg[e.U]++
		deg[e.V]++
	}
	for v := 0; v < n; v++ {
		g.offsets[v+1] = g.offsets[v] + deg[v]
	}
	fill := make([]int64, n)
	copy(fill, g.offsets[:n])
	for _, e := range uniq {
		g.adj[fill[e.U]] = e.V
		fill[e.U]++
		g.adj[fill[e.V]] = e.U
		fill[e.V]++
	}
	// Each list is already sorted because edges were processed in sorted
	// order for U; the V side needs a sort.
	for v := 0; v < n; v++ {
		ns := g.adj[g.offsets[v]:g.offsets[v+1]]
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	}
	return g, nil
}

// Subgraph returns the induced subgraph on the given nodes as a new Graph
// whose vertex i corresponds to nodes[i]. Nodes must be distinct.
func (g *Graph) Subgraph(nodes []Node) (*Graph, error) {
	var edges []Edge
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			if g.HasEdge(nodes[i], nodes[j]) {
				edges = append(edges, Edge{Node(i), Node(j)})
			}
		}
	}
	return Build(len(nodes), edges)
}

// Connected reports whether the graph is connected (vacuously true when
// empty).
func (g *Graph) Connected() bool {
	n := g.NumNodes()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := []Node{0}
	seen[0] = true
	visited := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range g.Neighbors(v) {
			if !seen[u] {
				seen[u] = true
				visited++
				stack = append(stack, u)
			}
		}
	}
	return visited == n
}

// Package graphlet represents k-node graphlets (connected induced
// subgraphs) and the per-graphlet quantities motivo needs: canonical codes,
// spanning-tree counts, and the σ_ij table (number of spanning trees of
// graphlet H_i isomorphic to treelet shape T_j).
//
// Following Section 3.3 of the paper, a graphlet is a k × k symmetric
// adjacency matrix with zero diagonal packed as its strict upper triangle
// into a 128-bit integer (k(k-1)/2 ≤ 120 bits for k ≤ 16). The paper
// canonicalizes with the Nauty library; we substitute a degree-refined
// backtracking canonical labeling, exact for all k ≤ MaxK and fast because
// real graphlets rarely have large automorphism-compatible vertex classes
// (and CanonTable names each class once per process for k ≤ 6).
package graphlet

import (
	"fmt"
	"math/bits"
	"strconv"

	"repro/internal/graph"
	"repro/internal/treelet"
)

// MaxK is the largest supported graphlet size, aligned with treelet.MaxK.
const MaxK = treelet.MaxK

// Code is a packed graphlet adjacency matrix. It is comparable and usable
// as a map key. Bit index of the vertex pair (i, j), i < j, is
// j(j-1)/2 + i.
type Code struct {
	Hi, Lo uint64
}

// pairIndex returns the triangular bit index of the pair {i, j}.
func pairIndex(i, j int) uint {
	if i > j {
		i, j = j, i
	}
	return uint(j*(j-1)/2 + i)
}

// Bit reports whether vertices i and j are adjacent.
func (c Code) Bit(i, j int) bool {
	idx := pairIndex(i, j)
	if idx < 64 {
		return c.Lo&(1<<idx) != 0
	}
	return c.Hi&(1<<(idx-64)) != 0
}

// set returns c with the {i, j} bit set.
func (c Code) set(i, j int) Code {
	idx := pairIndex(i, j)
	if idx < 64 {
		c.Lo |= 1 << idx
	} else {
		c.Hi |= 1 << (idx - 64)
	}
	return c
}

// EdgeCount returns the number of edges.
func (c Code) EdgeCount() int {
	return bits.OnesCount64(c.Lo) + bits.OnesCount64(c.Hi)
}

// Less orders codes lexicographically (used to pick canonical minima).
func (c Code) Less(d Code) bool {
	if c.Hi != d.Hi {
		return c.Hi < d.Hi
	}
	return c.Lo < d.Lo
}

// String formats the code as "k?/hex" independent of k; mainly for debug.
func (c Code) String() string {
	if c.Hi == 0 {
		return fmt.Sprintf("g%x", c.Lo)
	}
	return fmt.Sprintf("g%x%016x", c.Hi, c.Lo)
}

// ParseCode parses the String form back into a Code: "g" followed by the
// hex adjacency bits ("g3b", or, past 64 bits, the Hi word then exactly 16
// hex digits of Lo). It is the inverse of String, used wherever a motif is
// named over the wire (the signatures/precision APIs and the CLI -target
// flag).
func ParseCode(s string) (Code, error) {
	if len(s) < 2 || s[0] != 'g' {
		return Code{}, fmt.Errorf("graphlet: code %q must be \"g\" + hex digits", s)
	}
	digits := s[1:]
	if len(digits) <= 16 {
		lo, err := strconv.ParseUint(digits, 16, 64)
		if err != nil {
			return Code{}, fmt.Errorf("graphlet: bad code %q: %v", s, err)
		}
		return Code{Lo: lo}, nil
	}
	split := len(digits) - 16
	if split > 16 {
		return Code{}, fmt.Errorf("graphlet: code %q longer than 128 bits", s)
	}
	if digits[0] == '0' {
		// String never emits leading zeros in the Hi word; rejecting them
		// keeps ParseCode a strict inverse (one spelling per code).
		return Code{}, fmt.Errorf("graphlet: code %q has leading zeros", s)
	}
	hi, err := strconv.ParseUint(digits[:split], 16, 64)
	if err != nil {
		return Code{}, fmt.Errorf("graphlet: bad code %q: %v", s, err)
	}
	lo, err := strconv.ParseUint(digits[split:], 16, 64)
	if err != nil {
		return Code{}, fmt.Errorf("graphlet: bad code %q: %v", s, err)
	}
	return Code{Hi: hi, Lo: lo}, nil
}

// FromGraph packs a small graph (its vertices must be 0..k-1) into a Code.
func FromGraph(g *graph.Graph) Code {
	k := g.NumNodes()
	if k > MaxK {
		panic(fmt.Sprintf("graphlet: size %d exceeds MaxK=%d", k, MaxK))
	}
	var c Code
	for v := 0; v < k; v++ {
		for _, u := range g.Neighbors(graph.Node(v)) {
			if int(u) > v {
				c = c.set(v, int(u))
			}
		}
	}
	return c
}

// FromEdges packs an edge list over vertices 0..k-1 into a Code.
func FromEdges(k int, edges [][2]int) Code {
	var c Code
	for _, e := range edges {
		if e[0] == e[1] || e[0] < 0 || e[1] < 0 || e[0] >= k || e[1] >= k {
			panic(fmt.Sprintf("graphlet: bad edge %v for k=%d", e, k))
		}
		c = c.set(e[0], e[1])
	}
	return c
}

// Degrees returns the degree of each vertex.
func Degrees(k int, c Code) []int {
	deg := make([]int, k)
	for j := 1; j < k; j++ {
		for i := 0; i < j; i++ {
			if c.Bit(i, j) {
				deg[i]++
				deg[j]++
			}
		}
	}
	return deg
}

// IsConnected reports whether the graphlet is connected.
func IsConnected(k int, c Code) bool {
	if k == 0 {
		return true
	}
	var seen, stack uint32
	stack = 1
	seen = 1
	count := 0
	for stack != 0 {
		v := bits.TrailingZeros32(stack)
		stack &^= 1 << v
		count++
		for u := 0; u < k; u++ {
			if u != v && c.Bit(v, u) && seen&(1<<u) == 0 {
				seen |= 1 << u
				stack |= 1 << u
			}
		}
	}
	return count == k
}

// Relabel applies the vertex permutation p (new label of vertex v is p[v]).
func Relabel(k int, c Code, p []int) Code {
	var out Code
	for j := 1; j < k; j++ {
		for i := 0; i < j; i++ {
			if c.Bit(i, j) {
				out = out.set(p[i], p[j])
			}
		}
	}
	return out
}

// IsClique reports whether the graphlet is the k-clique.
func IsClique(k int, c Code) bool { return c.EdgeCount() == k*(k-1)/2 }

// IsStar reports whether the graphlet is the k-star (one center adjacent to
// all others, no other edges).
func IsStar(k int, c Code) bool {
	if c.EdgeCount() != k-1 {
		return false
	}
	deg := Degrees(k, c)
	centers, leaves := 0, 0
	for _, d := range deg {
		switch d {
		case k - 1:
			centers++
		case 1:
			leaves++
		}
	}
	if k == 2 {
		return true
	}
	return centers == 1 && leaves == k-1
}

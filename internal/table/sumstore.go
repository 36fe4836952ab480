package table

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/treelet"
	"repro/internal/u128"
)

// SumStore holds the neighbor sums w_v(C') of star synthesis for the
// highest-degree nodes of a smart table, shared by every goroutine that
// reads through it. A sum costs one sweep over v's neighbors, and a node is
// read once per neighbor that reads it, so a hub's sums cost about deg(v)²
// when a goroutine's two-slot SynthCache recomputes them on every visit;
// the store computes them once. Nodes are admitted in descending degree
// order while their sums fit the byte budget. An admitted node's sums, over
// every C' ⊆ C∖{col(v)}, are computed on its first read and published
// immutable through an atomic pointer: concurrent first reads may compute
// them twice, and the first publish wins (the values are identical).
type SumStore struct {
	s      *smartState
	minDeg int     // every node of at least this degree is admitted
	nodes  []int32 // the admitted nodes, ascending
	sums   []atomic.Pointer[[]u128.Uint128]
	bytes  int64
}

// sumsNodeBytes is what one admitted node costs: its 2^(k-1) sums, the
// slice header and pointer that publish them, and its entry in nodes.
func sumsNodeBytes(k int) int64 { return int64(16<<(k-1)) + 24 + 8 + 4 }

// NewSumStore admits the nodes of t's graph in descending degree order —
// a whole degree at a time, so admission is a pure function of the graph —
// while their sums fit in budget bytes. It returns nil when t is not a
// smart table with its graph attached, or when not even the
// highest-degree nodes fit.
func NewSumStore(t *Table, budget int64) *SumStore {
	s := t.smart
	if s == nil || s.g == nil {
		return nil
	}
	n := s.g.NumNodes()
	maxDeg := 0
	for v := range n {
		maxDeg = max(maxDeg, s.g.Degree(int32(v)))
	}
	// byDeg[d] counts the nodes of degree d; minDeg drops while the nodes
	// of degree ≥ minDeg-1 still fit. Degree-0 nodes have no sums.
	byDeg := make([]int64, maxDeg+1)
	for v := range n {
		byDeg[s.g.Degree(int32(v))]++
	}
	per := sumsNodeBytes(s.k)
	minDeg, admitted := maxDeg+1, int64(0)
	for d := maxDeg; d >= 1; d-- {
		if (admitted+byDeg[d])*per > budget {
			break
		}
		admitted += byDeg[d]
		minDeg = d
	}
	if admitted == 0 {
		return nil
	}
	st := &SumStore{s: s, minDeg: minDeg, nodes: make([]int32, 0, admitted),
		sums: make([]atomic.Pointer[[]u128.Uint128], admitted), bytes: admitted * per}
	for v := range n {
		if s.g.Degree(int32(v)) >= minDeg {
			st.nodes = append(st.nodes, int32(v))
		}
	}
	return st
}

// Nodes returns the number of admitted nodes.
func (st *SumStore) Nodes() int {
	if st == nil {
		return 0
	}
	return len(st.nodes)
}

// Bytes returns what the admitted nodes cost once all their sums are
// computed.
func (st *SumStore) Bytes() int64 {
	if st == nil {
		return 0
	}
	return st.bytes
}

// NewCache returns an empty SynthCache that reads the sums of admitted
// nodes from the store and keeps every other node's in its own slots. A
// nil store gives a plain cache.
func (st *SumStore) NewCache() *SynthCache { return &SynthCache{store: st} }

// lookup returns the sums of v, computing and publishing them on first
// use, or nil when v is not admitted or the store belongs to another
// table.
func (st *SumStore) lookup(s *smartState, v int32) []u128.Uint128 {
	if st.s != s || s.g.Degree(v) < st.minDeg {
		return nil
	}
	i, ok := slices.BinarySearch(st.nodes, v)
	if !ok {
		return nil
	}
	if w := st.sums[i].Load(); w != nil {
		return *w
	}
	w := make([]u128.Uint128, 1<<(s.k-1))
	s.fillSums(v, w)
	st.sums[i].CompareAndSwap(nil, &w)
	return *st.sums[i].Load()
}

// squeeze maps a color set without the color own to its index in a node's
// dense array of sums: the bits above own move down by one.
func squeeze(cs, own treelet.ColorSet) int {
	low := own - 1
	return int(cs&low | cs>>1&^low)
}

// fillSums adds every neighbor sum of v into w, indexed by squeeze, with
// one sweep over v's neighbors: a neighbor u of color cu adds
// ∏_{c∈R} d_c(u) to w(R ∪ {cu}) for every R ⊆ C∖{col(v), cu}. Counts are
// u128 sums and products, a commutative ring, so a zeroed w ends up
// holding exactly what neighborSum returns for each color set.
func (s *smartState) fillSums(v int32, w []u128.Uint128) {
	own := treelet.Singleton(s.colors[v])
	others := (treelet.ColorSet(1)<<s.k - 1) &^ own
	for _, u := range s.g.Neighbors(v) {
		cu := treelet.Singleton(s.colors[u])
		if cu == own {
			continue // a sum over colors other than col(v) never counts u
		}
		addProducts(w, own, cu, others&^cu, s.deg[int(u)*s.k:int(u)*s.k+s.k], u128.One)
	}
}

// addProducts adds p to w(set) and recurses into every extension of set by
// colors of above, each multiplying p by the extending color's degree in
// row; colors are added in ascending order, so every extension is reached
// once. fillSums starts it at {cu} with p = 1, so p is always the product
// over set∖{cu}. A zero degree zeroes every product through it, so its
// extensions are skipped.
func addProducts(w []u128.Uint128, own, set, above treelet.ColorSet, row []uint32, p u128.Uint128) {
	i := squeeze(set, own)
	w[i] = w[i].Add(p)
	for ; above != 0; above &= above - 1 {
		c := bits.TrailingZeros16(uint16(above))
		if d := row[c]; d != 0 {
			low := treelet.ColorSet(1) << c
			addProducts(w, own, set|low, above&^(low<<1-1), row, p.Mul64(uint64(d)))
		}
	}
}

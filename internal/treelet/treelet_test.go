package treelet

import (
	"math/rand"
	"testing"
)

// Rooted trees on n nodes: OEIS A000081.
var numRootedTrees = map[int]int{1: 1, 2: 1, 3: 2, 4: 4, 5: 9, 6: 20, 7: 48, 8: 115, 9: 286, 10: 719, 11: 1842}

// Free (unrooted) trees on n nodes: OEIS A000055.
var numFreeTrees = map[int]int{1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235}

func TestLeaf(t *testing.T) {
	if Leaf.Size() != 1 {
		t.Fatalf("leaf size %d", Leaf.Size())
	}
	if !Leaf.Valid() {
		t.Fatal("leaf must be valid")
	}
	if Leaf.String() != "()" {
		t.Fatalf("leaf string %q", Leaf.String())
	}
}

func TestMergeDecompInverse(t *testing.T) {
	cat := NewCatalog(8)
	for s := 2; s <= 8; s++ {
		for _, tr := range cat.BySize[s] {
			tpp, tp := tr.Decomp()
			if got := Merge(tp, tpp); got != tr {
				t.Fatalf("Merge(Decomp(%v)) = %v", tr, got)
			}
			if tpp.Size()+tp.Size() != s {
				t.Fatalf("decomp sizes of %v: %d + %d != %d", tr, tpp.Size(), tp.Size(), s)
			}
		}
	}
}

func TestEnumerationCountsMatchOEIS(t *testing.T) {
	cat := NewCatalog(MaxK)
	for s := 1; s <= MaxK; s++ {
		if got := cat.NumRooted(s); got != numRootedTrees[s] {
			t.Errorf("rooted trees of size %d: got %d, want %d", s, got, numRootedTrees[s])
		}
	}
}

func TestEnumerationDistinctAndValid(t *testing.T) {
	cat := NewCatalog(9)
	for s := 1; s <= 9; s++ {
		seen := make(map[Treelet]bool)
		for _, tr := range cat.BySize[s] {
			if seen[tr] {
				t.Fatalf("duplicate treelet %v at size %d", tr, s)
			}
			seen[tr] = true
			if !tr.Valid() {
				t.Fatalf("enumerated treelet %v (%s) not canonical", tr, tr)
			}
			if tr.Size() != s {
				t.Fatalf("treelet %v has size %d, want %d", tr, tr.Size(), s)
			}
		}
	}
}

func TestUnrootedCountsMatchOEIS(t *testing.T) {
	for k := 2; k <= 9; k++ {
		cat := NewCatalog(k)
		if got := len(cat.UnrootedK); got != numFreeTrees[k] {
			t.Errorf("free trees on %d nodes: got %d, want %d", k, got, numFreeTrees[k])
		}
	}
}

func TestUnrootedCanonicalInvariantUnderRerooting(t *testing.T) {
	// All rootings of the same underlying tree must map to one shape.
	cat := NewCatalog(7)
	for _, tr := range cat.BySize[7] {
		want := UnrootedCanonical(tr)
		adj := symmetricAdj(tr)
		for r := 0; r < len(adj); r++ {
			code := encodeRootedAt(adj, r)
			if got := UnrootedCanonical(code); got != want {
				t.Fatalf("rerooting %v at %d changed unrooted form: %v vs %v", tr, r, got, want)
			}
		}
	}
}

func symmetricAdj(t Treelet) [][]int {
	children := t.adjacency()
	adj := make([][]int, len(children))
	for p, cs := range children {
		for _, c := range cs {
			adj[p] = append(adj[p], c)
			adj[c] = append(adj[c], p)
		}
	}
	return adj
}

func TestKnownShapes(t *testing.T) {
	// Path P3 rooted at an end: root-child-grandchild = "1100" MSB-aligned.
	p3end := FromParents([]int{0, 0, 1})
	if uint32(p3end) != 0b11<<30 {
		t.Errorf("P3 end-rooted code = %032b", uint32(p3end))
	}
	// P3 rooted at the middle: two leaf children = "1010".
	p3mid := FromParents([]int{0, 0, 0})
	if uint32(p3mid) != 0b1010<<28 {
		t.Errorf("P3 mid-rooted code = %032b", uint32(p3mid))
	}
	if UnrootedCanonical(p3end) != UnrootedCanonical(p3mid) {
		t.Error("both rootings of P3 must have the same unrooted form")
	}
	// Star K_{1,3} rooted at center: "101010".
	star4 := FromParents([]int{0, 0, 0, 0})
	if uint32(star4) != 0b101010<<26 {
		t.Errorf("4-star code = %032b", uint32(star4))
	}
	if star4.Beta() != 3 {
		t.Errorf("4-star beta = %d, want 3", star4.Beta())
	}
	if star4.RootDegree() != 3 {
		t.Errorf("4-star root degree = %d", star4.RootDegree())
	}
}

func TestBetaSpider(t *testing.T) {
	// Root with children {leaf, leaf, path2}: beta = 2 (two leaf children,
	// and the leaf is the first child).
	spider := FromParents([]int{0, 0, 0, 0, 3})
	if spider.Beta() != 2 {
		t.Errorf("spider beta = %d, want 2", spider.Beta())
	}
	// Root with three path2 children: beta = 3.
	broom := FromParents([]int{0, 0, 1, 0, 3, 0, 5})
	if broom.Beta() != 3 {
		t.Errorf("broom beta = %d, want 3", broom.Beta())
	}
}

func TestFromParentsMatchesCatalog(t *testing.T) {
	// Random parent arrays must always land inside the catalog enumeration.
	cat := NewCatalog(8)
	inCat := make(map[Treelet]bool)
	for s := 1; s <= 8; s++ {
		for _, tr := range cat.BySize[s] {
			inCat[tr] = true
		}
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(8)
		parent := make([]int, n)
		for i := 1; i < n; i++ {
			parent[i] = rng.Intn(i)
		}
		tr := FromParents(parent)
		if !inCat[tr] {
			t.Fatalf("FromParents(%v) = %v not in catalog", parent, tr)
		}
		if !tr.Valid() {
			t.Fatalf("FromParents(%v) = %v invalid", parent, tr)
		}
	}
}

func TestCanMergeGeneratesEachTreeOnce(t *testing.T) {
	// Every canonical tree of size s must arise from exactly one valid
	// (tp, tpp) pair — this is the uniqueness the DP relies on.
	cat := NewCatalog(7)
	for s := 2; s <= 7; s++ {
		count := make(map[Treelet]int)
		for spp := 1; spp < s; spp++ {
			for _, tpp := range cat.BySize[spp] {
				for _, tp := range cat.BySize[s-spp] {
					if CanMerge(tp, tpp) {
						count[Merge(tp, tpp)]++
					}
				}
			}
		}
		for tr, c := range count {
			if c != 1 {
				t.Errorf("size %d: treelet %v generated %d times", s, tr, c)
			}
		}
		if len(count) != cat.NumRooted(s) {
			t.Errorf("size %d: generated %d trees, want %d", s, len(count), cat.NumRooted(s))
		}
	}
}

func TestRootingsPartitionSizeK(t *testing.T) {
	// Every rooted k-treelet appears in exactly one unrooted group, and
	// the groups cover all of BySize[k].
	for k := 3; k <= 8; k++ {
		cat := NewCatalog(k)
		total := 0
		for _, u := range cat.UnrootedK {
			for _, r := range cat.Rootings(u) {
				if cat.Unrooted(r) != u {
					t.Fatalf("k=%d: rooting %v maps to %v, expected %v", k, r, cat.Unrooted(r), u)
				}
				total++
			}
		}
		if total != cat.NumRooted(k) {
			t.Errorf("k=%d: rootings cover %d of %d rooted treelets", k, total, cat.NumRooted(k))
		}
	}
}

// TestCatalogDecompCaches: at every k the indexed catalog answers what
// the treelet's own methods compute, for every treelet of every size, and
// NewCatalog hands out one catalog per k.
func TestCatalogDecompCaches(t *testing.T) {
	for k := 1; k <= MaxK; k++ {
		cat := NewCatalog(k)
		if NewCatalog(k) != cat {
			t.Fatalf("k=%d: a second NewCatalog built another catalog", k)
		}
		if want := 1 << (2 * (k - 1)); len(cat.index) != want {
			t.Fatalf("k=%d: code table has %d slots, want %d", k, len(cat.index), want)
		}
		for s := 1; s <= k; s++ {
			for id, tr := range cat.BySize[s] {
				if cat.ID(tr) != id || cat.Height(tr) != tr.Height() {
					t.Fatalf("k=%d: %v has id %d height %d, want %d and %d", k, tr, cat.ID(tr), cat.Height(tr), id, tr.Height())
				}
				if s == 1 {
					continue
				}
				tpp, tp := tr.Decomp()
				if cat.FirstChild(tr) != tpp || cat.Rest(tr) != tp || cat.Beta(tr) != tr.Beta() {
					t.Fatalf("k=%d: catalog cache mismatch for %v", k, tr)
				}
			}
		}
	}
}

func TestColorSet(t *testing.T) {
	a := Singleton(0).Union(Singleton(3))
	if a.Card() != 2 || !a.Has(0) || !a.Has(3) || a.Has(1) {
		t.Fatal("color set ops wrong")
	}
	b := Singleton(1)
	if !a.Disjoint(b) {
		t.Error("disjoint sets reported overlapping")
	}
	if a.Disjoint(Singleton(3)) {
		t.Error("overlapping sets reported disjoint")
	}
}

func TestColoredPacking(t *testing.T) {
	tr := FromParents([]int{0, 0, 0})
	cs := ColorSet(0b1011)
	c := MakeColored(tr, cs)
	if c.Tree() != tr || c.Colors() != cs || c.Size() != 3 {
		t.Fatal("packing round trip failed")
	}
	// Integer order groups by tree shape first.
	c2 := MakeColored(tr, ColorSet(0b1101))
	other := MakeColored(FromParents([]int{0, 0, 1}), ColorSet(0b0001))
	if !(c < c2) {
		t.Error("same tree: color order must decide")
	}
	if (tr < FromParents([]int{0, 0, 1})) != (c < other) {
		t.Error("tree order must dominate color order")
	}
}

func TestMergeColored(t *testing.T) {
	edge := FromParents([]int{0, 0})
	cp := MakeColored(edge, 0b0011)
	cpp := MakeColored(Leaf, 0b0100)
	m := MergeColored(cp, cpp)
	if m.Size() != 3 || m.Colors() != 0b0111 {
		t.Fatalf("merge colored: size=%d colors=%04b", m.Size(), m.Colors())
	}
}

func TestValidRejectsGarbage(t *testing.T) {
	bad := []Treelet{
		Treelet(0b01 << 30),   // starts with 0: unbalanced
		Treelet(0b1001 << 28), // "1001": child order can't produce this... balanced but non-canonical trailing
		Treelet(1),            // stray low bit: not MSB-aligned
	}
	for _, b := range bad {
		if b.Valid() {
			t.Errorf("Valid(%032b) = true, want false", uint32(b))
		}
	}
}

func TestDecompPanicsOnLeaf(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Leaf.Decomp()
}

func TestChildren(t *testing.T) {
	spider := FromParents([]int{0, 0, 0, 0, 3})
	cs := spider.Children()
	if len(cs) != 3 {
		t.Fatalf("children = %d, want 3", len(cs))
	}
	for i := 1; i < len(cs); i++ {
		if cs[i] < cs[i-1] {
			t.Fatal("children must be in canonical order")
		}
	}
}

func TestHeightAndStarDetection(t *testing.T) {
	for k := 2; k <= 7; k++ {
		star := Star(k)
		if !star.IsStar() || star.Height() > 1 || star.StarCenter() != 0 {
			t.Fatalf("Star(%d) misclassified: height %d, center %d", k, star.Height(), star.StarCenter())
		}
		// The star is the smallest code of its size — the property that puts
		// synthesized star entries at the head of every sorted record.
		cat := NewCatalog(k)
		for _, u := range cat.BySize[k] {
			if u < star {
				t.Fatalf("size-%d treelet %v sorts before the star", k, u)
			}
			if got := u.Height(); got != cat.Height(u) {
				t.Fatalf("catalog height cache disagrees for %v: %d vs %d", u, cat.Height(u), got)
			}
		}
	}
	path4 := FromParents([]int{0, 0, 1, 2})
	if path4.Height() != 3 || path4.IsStar() || path4.StarCenter() != -1 {
		t.Fatalf("path4 misclassified: height %d, center %d", path4.Height(), path4.StarCenter())
	}
	leafStar4 := FromParents([]int{0, 0, 1, 1})
	if leafStar4.Height() != 2 || leafStar4.IsStar() || leafStar4.StarCenter() != 1 {
		t.Fatalf("leaf-rooted star misclassified: height %d, center %d", leafStar4.Height(), leafStar4.StarCenter())
	}
	if Leaf.Height() != 0 || !Leaf.IsStar() || Leaf.StarCenter() != 0 {
		t.Fatal("leaf misclassified")
	}
	if Star(2).StarCenter() != 0 {
		t.Fatal("edge misclassified")
	}
}

func TestHeightMatchesMergeRecurrence(t *testing.T) {
	cat := NewCatalog(6)
	for s := 2; s <= 6; s++ {
		for _, tr := range cat.BySize[s] {
			first, rest := tr.Decomp()
			want := first.Height() + 1
			if rh := rest.Height(); rh > want {
				want = rh
			}
			if tr.Height() != want {
				t.Fatalf("height(%v) = %d, want %d", tr, tr.Height(), want)
			}
		}
	}
}

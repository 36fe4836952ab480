package table

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"repro/internal/coloring"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/treelet"
	"repro/internal/u128"
)

// saveV2 writes t in the retired version-2 layout ("MvT2": no smart-star
// flag or section, levels always 1..k) so Load's backward-compatibility
// path is exercised against bytes produced by the documented old format.
func saveV2(t *testing.T, tab *Table, col *coloring.Coloring) []byte {
	t.Helper()
	if tab.smart != nil {
		t.Fatal("saveV2 is for materialized tables")
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	write := func(data any) {
		if err := binary.Write(bw, binary.LittleEndian, data); err != nil {
			t.Fatal(err)
		}
	}
	flags := uint32(0)
	if tab.ZeroRooted {
		flags |= flagZeroRooted
	}
	if col != nil {
		flags |= flagHasColoring
	}
	for _, v := range []uint32{fileMagicV2, 2, uint32(tab.K), flags} {
		write(v)
	}
	write(uint64(tab.N))
	if col != nil {
		write(math.Float64bits(col.PColorful))
		write(col.Colors)
	}
	for h := 1; h <= tab.K; h++ {
		write(uint64(len(tab.levels[h].arena)))
		write(tab.levels[h].starts)
		write(tab.levels[h].arena)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// smallMaterialized builds a tiny hand-stored materialized table.
func smallMaterialized(t *testing.T) (*Table, *coloring.Coloring) {
	t.Helper()
	tab := New(4, 2, false)
	var p Pairs
	for v := int32(0); v < 4; v++ {
		p.Reset()
		p.Append(treelet.MakeColored(treelet.Leaf, treelet.Singleton(uint8(v%2))), u128.One)
		tab.SetRec(1, v, &p)
	}
	edge := treelet.Star(2)
	p.Reset()
	p.Append(treelet.MakeColored(edge, 0b11), u128.From64(3))
	tab.SetRec(2, 0, &p)
	col := &coloring.Coloring{K: 2, Colors: []uint8{0, 1, 0, 1}, PColorful: 0.5}
	return tab, col
}

func TestMvT2FileStillOpens(t *testing.T) {
	tab, col := smallMaterialized(t)
	raw := saveV2(t, tab, col)
	got, gotCol, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("loading a version-2 file: %v", err)
	}
	if got.SmartStars() {
		t.Fatal("version-2 file loaded as a smart table")
	}
	if gotCol == nil || gotCol.PColorful != col.PColorful || !bytes.Equal(gotCol.Colors, col.Colors) {
		t.Fatal("coloring section lost through the v2 path")
	}
	if got.K != tab.K || got.N != tab.N || got.Pairs() != tab.Pairs() {
		t.Fatal("v2 table shape mismatch")
	}
	if got.Rec(2, 0).Count(treelet.MakeColored(treelet.Star(2), 0b11)) != u128.From64(3) {
		t.Fatal("v2 record content lost")
	}
	// A v2 file claiming smart stars is corrupt by definition.
	bad := saveV2(t, tab, col)
	bad[12] |= flagSmartStars
	if _, _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("version-2 file with the smart-star flag must be rejected")
	}
}

// smartFixture builds a smart table over a real graph with one stored
// (height-3) record, exercising the stored/synthesized merge.
func smartFixture(t *testing.T) (*Table, *graph.Graph, *coloring.Coloring) {
	t.Helper()
	g := gen.ErdosRenyi(24, 70, 9)
	k := 4
	col := coloring.Uniform(g.NumNodes(), k, 11)
	tab := New(g.NumNodes(), k, true)
	if err := tab.EnableSmartStars(g, col); err != nil {
		t.Fatal(err)
	}
	// One stored record of the only height-3 shape on 4 nodes (the path
	// rooted at its end).
	path4 := treelet.FromParents([]int{0, 0, 1, 2})
	if path4.Height() != 3 {
		t.Fatalf("fixture shape has height %d", path4.Height())
	}
	var v0 int32 = -1
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		if col.Of(v) == 0 {
			v0 = v
			break
		}
	}
	if v0 < 0 {
		t.Fatal("no color-0 node")
	}
	var p Pairs
	p.Append(treelet.MakeColored(path4, 0b1111), u128.From64(7))
	tab.SetRec(k, v0, &p)
	return tab, g, col
}

func TestSmartTableSaveLoadRoundTrip(t *testing.T) {
	tab, g, col := smartFixture(t)
	var buf bytes.Buffer
	if _, err := Save(&buf, tab, col); err != nil {
		t.Fatal(err)
	}
	got, gotCol, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !got.SmartStars() || got.GraphAttached() {
		t.Fatal("loaded table must be smart and detached")
	}
	if gotCol == nil {
		t.Fatal("coloring lost")
	}
	if err := got.AttachGraph(g); err != nil {
		t.Fatal(err)
	}
	for h := 1; h <= tab.K; h++ {
		for v := int32(0); int(v) < tab.N; v++ {
			want, wantC := recEntries(tab.Rec(h, v))
			have, haveC := recEntries(got.Rec(h, v))
			if len(want) != len(have) {
				t.Fatalf("h=%d v=%d entry count differs", h, v)
			}
			for i := range want {
				if want[i] != have[i] || wantC[i] != haveC[i] {
					t.Fatalf("h=%d v=%d entry %d differs", h, v, i)
				}
			}
		}
	}
	// Attaching the wrong graph must fail loudly.
	wrong := gen.ErdosRenyi(24, 70, 10)
	fresh, _, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.AttachGraph(wrong); err == nil || !strings.Contains(err.Error(), "disagrees") {
		t.Fatalf("wrong graph accepted: %v", err)
	}
	small := gen.ErdosRenyi(10, 20, 1)
	if err := fresh.AttachGraph(small); err == nil {
		t.Fatal("graph with wrong node count accepted")
	}
}

func recEntries(vw View) (keys []treelet.Colored, counts []u128.Uint128) {
	vw.Each(func(k treelet.Colored, c u128.Uint128) bool {
		keys = append(keys, k)
		counts = append(counts, c)
		return true
	})
	return
}

func TestSmartTableSaveRequiresColoring(t *testing.T) {
	tab, _, _ := smartFixture(t)
	if _, err := tab.WriteTo(&bytes.Buffer{}); err == nil {
		t.Fatal("smart table saved without a coloring")
	}
}

func TestSmartLevelsRejectStores(t *testing.T) {
	tab, _, _ := smartFixture(t)
	if err := tab.SetLevel(2, nil, make([]int64, tab.N)); err == nil {
		t.Fatal("SetLevel on a fully synthetic level must fail")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetRec on a fully synthetic level must panic")
		}
	}()
	var p Pairs
	p.Append(treelet.MakeColored(treelet.Star(2), 0b11), u128.One)
	tab.SetRec(2, 0, &p)
}

func TestValidateRejectsStoredSynthesizedShape(t *testing.T) {
	// A materialized table holding a star entry at a stored level becomes
	// invalid the moment the smart state is installed — smart files must
	// never carry materialized star records.
	g := gen.ErdosRenyi(12, 30, 3)
	k := 4
	col := coloring.Uniform(g.NumNodes(), k, 5)
	tab := New(g.NumNodes(), k, false)
	var p Pairs
	p.Append(treelet.MakeColored(treelet.Star(4), 0b1111), u128.From64(2))
	tab.SetRec(4, 0, &p)
	if err := tab.Validate(); err != nil {
		t.Fatalf("materialized star record is legal: %v", err)
	}
	tab.setSmartFromFile(col.Colors, colorDegrees(g, col.Colors, k))
	if err := tab.Validate(); err == nil || !strings.Contains(err.Error(), "synthesized shape") {
		t.Fatalf("stored synthesized shape not rejected: %v", err)
	}
}

func TestSubsetsAscOrder(t *testing.T) {
	subsets := func(m treelet.ColorSet, n int) []treelet.ColorSet {
		var got []treelet.ColorSet
		for x := firstSubset(m, n); x != 0; x = nextSubset(m, x) {
			got = append(got, x)
		}
		return got
	}
	got := subsets(0b110110, 2)
	want := []treelet.ColorSet{
		0b000110, 0b010010, 0b010100, 0b100010, 0b100100, 0b110000,
	}
	if len(got) != len(want) {
		t.Fatalf("got %d subsets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("subset %d = %b, want %b (order broken)", i, got[i], want[i])
		}
	}
	// Every mask over the 11 colors of treelet.MaxK and every size: exactly
	// the n-subsets of the mask, strictly ascending.
	for m := treelet.ColorSet(0); m < 1<<treelet.MaxK; m++ {
		for n := 1; n <= treelet.MaxK; n++ {
			var want []treelet.ColorSet
			for x := treelet.ColorSet(1); x <= m; x++ {
				if x&^m == 0 && x.Card() == n {
					want = append(want, x)
				}
			}
			got := subsets(m, n)
			if len(got) != len(want) {
				t.Fatalf("mask %b size %d: %d subsets, want %d", m, n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("mask %b size %d: subset %d = %b, want %b", m, n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSynthStarClosedForm pins the center-rooted star count to the paper's
// closed form ∏ d_c(v) on a hand-built graph.
func TestSynthStarClosedForm(t *testing.T) {
	// Node 0 with neighbors colored 1,1,2,3 (k=4).
	edges := []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}}
	g, err := graph.Build(5, edges)
	if err != nil {
		t.Fatal(err)
	}
	col := &coloring.Coloring{K: 4, Colors: []uint8{0, 1, 1, 2, 3}, PColorful: 1}
	tab := New(5, 4, false)
	if err := tab.EnableSmartStars(g, col); err != nil {
		t.Fatal(err)
	}
	star4 := treelet.Star(4)
	// C = {0,1,2,3}: leaves need colors 1,2,3 → d_1·d_2·d_3 = 2·1·1.
	if got := tab.Rec(4, 0).Count(treelet.MakeColored(star4, 0b1111)); got != u128.From64(2) {
		t.Fatalf("star count = %v, want 2", got)
	}
	// 3-star at the center with C = {0,1,2}: d_1·d_2 = 2.
	if got := tab.Rec(3, 0).Count(treelet.MakeColored(treelet.Star(3), 0b0111)); got != u128.From64(2) {
		t.Fatalf("3-star count = %v, want 2", got)
	}
	// Leaf-rooted 3-star at node 1 (v–center–leaf): center must be node 0
	// with a leaf of the remaining color; for C = {0,1,2} the center is
	// color 0... the center's color is in C\{col(v)} and the leaf takes the
	// rest: center 0 (color 0), leaf any neighbor of 0 with color 2 → 1.
	leafStar3 := treelet.FromParents([]int{0, 0, 1})
	if leafStar3.StarCenter() != 1 {
		t.Fatal("fixture is not the leaf-rooted star")
	}
	if got := tab.Rec(3, 1).Count(treelet.MakeColored(leafStar3, 0b0111)); got != u128.From64(1) {
		t.Fatalf("leaf-rooted 3-star count = %v, want 1", got)
	}
}

// TestSynthCachePins pins the slot contract nested reads rely on: a slot a
// walk holds — even while the walk's own node is read again inside it — is
// never handed to another node until the walk releases it; a read whose
// child stars are all leaves takes no slot; and released slots serve
// again.
func TestSynthCachePins(t *testing.T) {
	s := newSmartState(4)
	s.colors, s.deg = make([]uint8, 8), make([]uint32, 8*4)
	c := NewSynthCache()
	outer := s.node(1, c, 2)
	if outer.slot == nil {
		t.Fatal("an empty cache gave no slot")
	}
	inner := s.node(1, c, 3) // a nested read at the walk's own node
	if inner.slot != outer.slot {
		t.Fatal("a nested read at the same node got another slot")
	}
	inner.release()
	if leaf := s.node(2, c, 1); leaf.slot != nil {
		t.Fatal("a leaf-only read took a slot")
	}
	// Open walks at other nodes until every slot is pinned.
	var open []nodeSynth
	for v := int32(2); len(open) < synthSlots-1; v++ {
		n := s.node(v, c, 2)
		if n.slot == nil || n.slot == outer.slot {
			t.Fatalf("node %d: no free slot, or the outer walk's", v)
		}
		open = append(open, n)
	}
	if n := s.node(7, c, 2); n.slot != nil {
		t.Fatal("a read got a slot while every slot was pinned")
	}
	for _, n := range open {
		n.release()
	}
	for v := int32(2); v < 8; v++ {
		n := s.node(v, c, 2)
		if n.slot == nil || n.slot == outer.slot {
			t.Fatalf("node %d: no released slot, or the outer walk's", v)
		}
		n.release()
	}
	outer.release()
	if n := s.node(0, c, 2); n.slot != outer.slot {
		t.Fatal("the released outer slot does not serve again")
	}
}

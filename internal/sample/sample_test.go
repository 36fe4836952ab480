package sample

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/build"
	"repro/internal/coloring"
	"repro/internal/estimate"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphlet"
	"repro/internal/treelet"
)

func buildUrn(t *testing.T, g *graph.Graph, k int, seed int64) *Urn {
	t.Helper()
	col := coloring.Uniform(g.NumNodes(), k, seed)
	cat := treelet.NewCatalog(k)
	tab, _, err := build.Run(context.Background(), g, col, k, cat, build.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUrn(g, col, tab, cat)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestSampleNodesAreColorfulTreelets(t *testing.T) {
	g := gen.ErdosRenyi(40, 120, 7)
	k := 4
	u := buildUrn(t, g, k, 11)
	if u.Empty() {
		t.Fatal("urn unexpectedly empty")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		code, nodes := u.Sample(rng)
		if len(nodes) != k {
			t.Fatalf("sample has %d nodes", len(nodes))
		}
		var cs treelet.ColorSet
		seen := make(map[int32]bool)
		for _, v := range nodes {
			if seen[v] {
				t.Fatal("repeated node in sample")
			}
			seen[v] = true
			c := treelet.Singleton(u.Col.Colors[v])
			if !cs.Disjoint(c) {
				t.Fatal("sample not colorful")
			}
			cs = cs.Union(c)
		}
		induced := u.Induced(nodes)
		if !graphlet.IsConnected(k, induced) {
			t.Fatal("sampled nodes not connected")
		}
		if code != induced {
			t.Fatal("returned code does not match induced subgraph")
		}
	}
}

// TestDeterministicSingleGraphlet: when n == k with an identity (rainbow)
// coloring, every sample is the whole graph and the naive estimator is
// exact: ĉ = (t/σ)·1/p_k with t = σ and p_k = 1.
func TestDeterministicSingleGraphlet(t *testing.T) {
	for _, g := range []*graph.Graph{gen.Complete(5), gen.Cycle(5), gen.Lollipop(4, 1)} {
		k := 5
		col := &coloring.Coloring{K: k, Colors: []uint8{0, 1, 2, 3, 4}, PColorful: 1}
		cat := treelet.NewCatalog(k)
		tab, _, err := build.Run(context.Background(), g, col, k, cat, build.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		u, err := NewUrn(g, col, tab, cat)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		tallies := make(map[graphlet.Code]int64)
		const S = 200
		for i := 0; i < S; i++ {
			code, _ := u.Sample(rng)
			tallies[code]++
		}
		if len(tallies) != 1 {
			t.Fatalf("expected a single graphlet, got %d", len(tallies))
		}
		sig := estimate.NewSigma(k)
		est, err := estimate.Naive(tallies, S, u.Total().Float64(), sig, col.PColorful)
		if err != nil {
			t.Fatal(err)
		}
		for code, c := range est {
			if math.Abs(c-1) > 1e-9 {
				t.Errorf("estimate for %v = %v, want exactly 1", code, c)
			}
			// t must equal σ of the only graphlet.
			if u.Total().Float64() != float64(sig.Of(code)) {
				t.Errorf("t=%v != σ=%d", u.Total(), sig.Of(code))
			}
		}
	}
}

// TestNaiveEstimatesMatchExact: averaged over colorings, naive-sampling
// estimates converge to the exact induced counts.
func TestNaiveEstimatesMatchExact(t *testing.T) {
	g := gen.ErdosRenyi(30, 90, 13)
	k := 4
	truth, err := exact.Count(g, k)
	if err != nil {
		t.Fatal(err)
	}
	sig := estimate.NewSigma(k)
	sum := make(estimate.Counts)
	const runs = 8
	const S = 30000
	for r := 0; r < runs; r++ {
		u := buildUrn(t, g, k, int64(100+r))
		rng := rand.New(rand.NewSource(int64(200 + r)))
		tallies := make(map[graphlet.Code]int64)
		for i := 0; i < S; i++ {
			code, _ := u.Sample(rng)
			tallies[code]++
		}
		est, err := estimate.Naive(tallies, S, u.Total().Float64(), sig, u.Col.PColorful)
		if err != nil {
			t.Fatal(err)
		}
		for c, v := range est {
			sum[c] += v / runs
		}
	}
	// Graphlets with enough expected colorful copies (p_k·g ≳ 30) must be
	// within 15%; rarer ones are dominated by coloring variance.
	pk := coloring.PUniform(k)
	for code, want := range truth {
		if pk*want < 30 {
			continue
		}
		got := sum[code]
		if math.Abs(got-want)/want > 0.15 {
			t.Errorf("graphlet %v: estimate %.1f, exact %.0f", code, got, want)
		}
	}
	if l1 := estimate.L1(sum, truth); l1 > 0.1 {
		t.Errorf("ℓ1 error %.3f too large", l1)
	}
}

func TestShapeUrnRestrictsShape(t *testing.T) {
	g := gen.ErdosRenyi(30, 90, 17)
	k := 4
	u := buildUrn(t, g, k, 19)
	totals := u.Tab.ShapeTotals(u.Cat)
	sigShapes := estimate.NewSigmaShapes(k, u.Cat)
	rng := rand.New(rand.NewSource(23))
	var sumShapes float64
	for _, shape := range u.Cat.UnrootedK {
		if totals[shape].IsZero() {
			continue
		}
		su, err := u.NewShapeUrn(shape)
		if err != nil {
			t.Fatal(err)
		}
		sumShapes += su.Total().Float64()
		for i := 0; i < 300; i++ {
			code, nodes := su.Sample(rng)
			if len(nodes) != k {
				t.Fatal("wrong node count")
			}
			// The sampled graphlet must have ≥1 spanning tree of this shape.
			if sigShapes.Of(code)[shape] == 0 {
				t.Fatalf("graphlet %v sampled from shape %v it does not span", code, shape)
			}
		}
	}
	if sumShapes != u.Total().Float64() {
		t.Errorf("Σ r_j = %v, urn total = %v", sumShapes, u.Total())
	}
}

func TestShapeUrnUnknownShape(t *testing.T) {
	u := buildUrn(t, gen.ErdosRenyi(20, 50, 29), 4, 31)
	if _, err := u.NewShapeUrn(treelet.Leaf); err == nil {
		t.Error("expected error for non-k shape")
	}
}

func TestNeighborBuffering(t *testing.T) {
	// Star-heavy graph: the hub triggers buffering once the threshold is
	// lowered below its degree.
	g := gen.StarHeavy(1, 300, 40, 37)
	k := 4
	u := buildUrn(t, g, k, 41)
	u.BufferThreshold = 50
	rng := rand.New(rand.NewSource(43))
	const S = 5000
	tallies := make(map[graphlet.Code]int64)
	for i := 0; i < S; i++ {
		code, _ := u.Sample(rng)
		tallies[code]++
	}
	if u.BufferHits == 0 {
		t.Fatal("buffering never used despite hub node")
	}
	// Compare against an unbuffered urn with the same table: estimates
	// must agree (buffering must not bias sampling).
	u2, err := NewUrn(u.G, u.Col, u.Tab, u.Cat)
	if err != nil {
		t.Fatal(err)
	}
	u2.BufferThreshold = 1 << 30
	rng2 := rand.New(rand.NewSource(47))
	tallies2 := make(map[graphlet.Code]int64)
	for i := 0; i < S; i++ {
		code, _ := u2.Sample(rng2)
		tallies2[code]++
	}
	if u2.BufferHits != 0 {
		t.Fatal("buffering active despite huge threshold")
	}
	for code, n := range tallies {
		f1 := float64(n) / S
		f2 := float64(tallies2[code]) / S
		if f1 > 0.05 && math.Abs(f1-f2) > 0.05 {
			t.Errorf("buffered vs unbuffered frequency for %v: %.3f vs %.3f", code, f1, f2)
		}
	}
}

func TestUrnTotalZeroRootingCorrection(t *testing.T) {
	g := gen.ErdosRenyi(25, 60, 53)
	k := 4
	col := coloring.Uniform(g.NumNodes(), k, 59)
	cat := treelet.NewCatalog(k)
	optsN := build.DefaultOptions()
	optsN.ZeroRooted = false
	tabN, _, err := build.Run(context.Background(), g, col, k, cat, optsN)
	if err != nil {
		t.Fatal(err)
	}
	tabZ, _, err := build.Run(context.Background(), g, col, k, cat, build.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	uN, err := NewUrn(g, col, tabN, cat)
	if err != nil {
		t.Fatal(err)
	}
	uZ, err := NewUrn(g, col, tabZ, cat)
	if err != nil {
		t.Fatal(err)
	}
	if uN.Total() != uZ.Total() {
		t.Errorf("Total with/without 0-rooting: %v vs %v", uN.Total(), uZ.Total())
	}
}

func TestEmptyUrn(t *testing.T) {
	// Two isolated-ish nodes with k=3: no 3-treelet exists.
	g, err := graph.Build(2, []graph.Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	k := 3
	col := coloring.Uniform(2, k, 61)
	cat := treelet.NewCatalog(k)
	tab, _, err := build.Run(context.Background(), g, col, k, cat, build.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUrn(g, col, tab, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !u.Empty() {
		t.Fatal("urn should be empty")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Sample on empty urn must panic")
		}
	}()
	u.Sample(rand.New(rand.NewSource(1)))
}

package build_test

import (
	"bytes"
	"context"
	"math/bits"
	"testing"
	"time"

	"repro/internal/build"
	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/table"
	"repro/internal/treelet"
	"repro/internal/u128"
)

// triangleWithTail is the 5-node fixture: a triangle {0,1,2} with the tail
// 2–3–4.
func triangleWithTail(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.Build(5, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}, {U: 3, V: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// fixtures returns the small graphs the brute-force cross-check runs on.
func fixtures(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	return map[string]*graph.Graph{
		"path6":            gen.Path(6),
		"star6":            gen.Star(6),
		"triangleWithTail": triangleWithTail(t),
		"K5":               gen.Complete(5),
	}
}

// bruteForce enumerates every colorful rooted subtree copy of g directly:
// for each vertex subset with pairwise-distinct colors and each spanning
// tree of the induced subgraph, the tree rooted at each of its nodes is one
// copy. It returns counts[h][v][coloredTreelet].
func bruteForce(t *testing.T, g *graph.Graph, col *coloring.Coloring, k int) [][]map[treelet.Colored]u128.Uint128 {
	t.Helper()
	n := g.NumNodes()
	out := make([][]map[treelet.Colored]u128.Uint128, k+1)
	for h := 1; h <= k; h++ {
		out[h] = make([]map[treelet.Colored]u128.Uint128, n)
		for v := range out[h] {
			out[h][v] = make(map[treelet.Colored]u128.Uint128)
		}
	}
	for set := 1; set < 1<<n; set++ {
		h := bits.OnesCount(uint(set))
		if h > k {
			continue
		}
		var cs treelet.ColorSet
		colorful := true
		nodes := []int32{}
		for v := 0; v < n; v++ {
			if set&(1<<v) == 0 {
				continue
			}
			c := treelet.Singleton(col.Of(int32(v)))
			if !cs.Disjoint(c) {
				colorful = false
				break
			}
			cs = cs.Union(c)
			nodes = append(nodes, int32(v))
		}
		if !colorful {
			continue
		}
		// Edges of the induced subgraph, as index pairs into nodes.
		var edges [][2]int
		for i := 0; i < h; i++ {
			for j := i + 1; j < h; j++ {
				if g.HasEdge(nodes[i], nodes[j]) {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
		if len(edges) < h-1 {
			continue
		}
		// Every (h-1)-subset of the edges that spans the node set is one
		// tree copy; root it at each node in turn.
		for em := 0; em < 1<<len(edges); em++ {
			if bits.OnesCount(uint(em)) != h-1 {
				continue
			}
			var chosen [][2]int
			for e := range edges {
				if em&(1<<e) != 0 {
					chosen = append(chosen, edges[e])
				}
			}
			if !spans(h, chosen) {
				continue
			}
			for root := 0; root < h; root++ {
				code := rootedCode(h, chosen, root)
				key := treelet.MakeColored(code, cs)
				m := out[h][nodes[root]]
				m[key] = m[key].Add64(1)
			}
		}
	}
	return out
}

// spans reports whether the chosen edges connect all h nodes.
func spans(h int, edges [][2]int) bool {
	adj := make([][]int, h)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	seen := make([]bool, h)
	stack := []int{0}
	seen[0] = true
	cnt := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range adj[v] {
			if !seen[u] {
				seen[u] = true
				cnt++
				stack = append(stack, u)
			}
		}
	}
	return cnt == h
}

// rootedCode canonicalizes the tree given by edges, rooted at root, via a
// BFS relabeling and treelet.FromParents.
func rootedCode(h int, edges [][2]int, root int) treelet.Treelet {
	adj := make([][]int, h)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	order := []int{root}
	index := make([]int, h)
	for i := range index {
		index[i] = -1
	}
	index[root] = 0
	parent := make([]int, 0, h)
	parent = append(parent, 0)
	for qi := 0; qi < len(order); qi++ {
		v := order[qi]
		for _, u := range adj[v] {
			if index[u] >= 0 {
				continue
			}
			index[u] = len(order)
			order = append(order, u)
			parent = append(parent, index[v])
		}
	}
	return treelet.FromParents(parent)
}

// TestRunMatchesBruteForce cross-checks every c(T_C, v) at every level
// against direct enumeration, with 0-rooting off so all levels are full.
func TestRunMatchesBruteForce(t *testing.T) {
	for name, g := range fixtures(t) {
		for _, k := range []int{2, 3, 4, 5} {
			col := coloring.Uniform(g.NumNodes(), k, int64(100+k))
			cat := treelet.NewCatalog(k)
			opts := build.DefaultOptions()
			opts.ZeroRooted = false
			tab, stats, err := build.Run(context.Background(), g, col, k, cat, opts)
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			// Smart stars synthesize every size ≤ 3 level, so the first DP
			// pass (and with it any check-and-merge op) happens at k ≥ 4.
			if stats.CheckMergeOps <= 0 && k > 3 {
				t.Errorf("%s k=%d: no check-merge ops recorded", name, k)
			}
			want := bruteForce(t, g, col, k)
			for h := 1; h <= k; h++ {
				for v := 0; v < g.NumNodes(); v++ {
					rec := tab.Rec(h, int32(v))
					if rec.Len() != len(want[h][v]) {
						t.Fatalf("%s k=%d h=%d v=%d: %d pairs, brute force %d",
							name, k, h, v, rec.Len(), len(want[h][v]))
					}
					for key, cnt := range want[h][v] {
						if got := rec.Count(key); got != cnt {
							t.Fatalf("%s k=%d h=%d v=%d key=%v: got %v, want %v",
								name, k, h, v, key, got, cnt)
						}
					}
				}
			}
		}
	}
}

// TestZeroRootingCountsEachCopyOnce checks that with 0-rooting the size-k
// level holds records only at color-0 nodes and that TotalK equals the
// brute-force number of distinct colorful k-treelet copies.
func TestZeroRootingCountsEachCopyOnce(t *testing.T) {
	for name, g := range fixtures(t) {
		k := 4
		col := coloring.Uniform(g.NumNodes(), k, 7)
		cat := treelet.NewCatalog(k)
		tab, _, err := build.Run(context.Background(), g, col, k, cat, build.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !tab.ZeroRooted {
			t.Fatalf("%s: table not marked zero-rooted", name)
		}
		want := bruteForce(t, g, col, k)
		// Distinct copies: every colorful size-k copy is counted k times
		// across all rootings, once per node.
		total := u128.Zero
		for v := 0; v < g.NumNodes(); v++ {
			for _, c := range want[k][v] {
				total = total.Add(c)
			}
			if col.Of(int32(v)) != 0 && tab.Rec(k, int32(v)).Len() != 0 {
				t.Fatalf("%s: non-color-0 node %d has a size-k record", name, v)
			}
		}
		distinct, rem := total.QuoRem64(uint64(k))
		if rem != 0 {
			t.Fatalf("%s: rooting count %v not divisible by k", name, total)
		}
		if got := tab.TotalK(); got != distinct {
			t.Fatalf("%s: TotalK = %v, brute force %v", name, got, distinct)
		}
	}
}

// TestParallelMatchesSequential: Workers:4 and Workers:1 must produce
// byte-identical tables (the per-vertex recurrence is deterministic and
// each record is flushed in key order, so scheduling cannot leak into the
// result).
func TestParallelMatchesSequential(t *testing.T) {
	g := gen.BarabasiAlbert(400, 3, 11)
	k := 5
	col := coloring.Uniform(g.NumNodes(), k, 13)
	cat := treelet.NewCatalog(k)

	seq := build.DefaultOptions()
	seq.Workers = 1
	tabSeq, _, err := build.Run(context.Background(), g, col, k, cat, seq)
	if err != nil {
		t.Fatal(err)
	}
	par := build.DefaultOptions()
	par.Workers = 4
	tabPar, _, err := build.Run(context.Background(), g, col, k, cat, par)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tableBytes(t, tabSeq, col), tableBytes(t, tabPar, col)) {
		t.Fatal("parallel and sequential builds are not byte-identical")
	}
}

// TestSpillRoundTrip: the spill path must reproduce the in-memory table
// exactly, and report the spill volume.
func TestSpillRoundTrip(t *testing.T) {
	g := gen.ErdosRenyi(120, 500, 17)
	k := 4
	col := coloring.Uniform(g.NumNodes(), k, 19)
	cat := treelet.NewCatalog(k)

	mem, _, err := build.Run(context.Background(), g, col, k, cat, build.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := build.DefaultOptions()
	opts.Spill = true
	opts.SpillDir = t.TempDir()
	opts.Workers = 4
	spilled, stats, err := build.Run(context.Background(), g, col, k, cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SpillBytes == 0 {
		t.Error("spill run reports zero spill bytes")
	}
	if !bytes.Equal(tableBytes(t, mem, col), tableBytes(t, spilled, col)) {
		t.Fatal("spilled table differs from in-memory table")
	}
}

// tableBytes serializes a table for byte-identity comparisons: every
// level is installed compact and in node order (SetLevel checks it), so
// equal tables serialize equal.
// The coloring travels along because smart tables require it to save.
func tableBytes(t *testing.T, tab *table.Table, col *coloring.Coloring) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := table.Save(&buf, tab, col); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBufferedMatchesUnbuffered: forcing the neighbor-buffered path on
// every node must not change any count.
func TestBufferedMatchesUnbuffered(t *testing.T) {
	g := gen.StarHeavy(2, 200, 60, 23)
	k := 4
	col := coloring.Uniform(g.NumNodes(), k, 29)
	cat := treelet.NewCatalog(k)

	plain := build.DefaultOptions()
	plain.BufferThreshold = 1 << 30
	tabPlain, statsPlain, err := build.Run(context.Background(), g, col, k, cat, plain)
	if err != nil {
		t.Fatal(err)
	}
	if statsPlain.BufferedNodes != 0 {
		t.Fatal("buffering active despite huge threshold")
	}
	forced := build.DefaultOptions()
	forced.BufferThreshold = 1
	tabBuf, statsBuf, err := build.Run(context.Background(), g, col, k, cat, forced)
	if err != nil {
		t.Fatal(err)
	}
	if statsBuf.BufferedNodes == 0 {
		t.Fatal("buffering never used despite threshold 1")
	}
	if !bytes.Equal(tableBytes(t, tabPlain, col), tableBytes(t, tabBuf, col)) {
		t.Fatal("buffered table differs from unbuffered table")
	}
}

// TestEndToEndMatchesExact drives build.Run through the full pipeline
// (core.Count, naive sampling) and compares against exhaustive ESU
// enumeration.
func TestEndToEndMatchesExact(t *testing.T) {
	g := gen.ErdosRenyi(40, 120, 31)
	k := 4
	truth, err := exact.Count(g, k)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Count(g, core.Config{
		K: k, Colorings: 8, SamplesPerColoring: 20000, Seed: 37,
	})
	if err != nil {
		t.Fatal(err)
	}
	if l1 := estimate.L1(res.Counts, truth); l1 > 0.12 {
		t.Errorf("end-to-end ℓ1 error %.3f too large", l1)
	}
	if len(res.BuildStats) != 8 {
		t.Errorf("expected 8 build stats, got %d", len(res.BuildStats))
	}
	for _, st := range res.BuildStats {
		if st.Duration <= 0 || st.Pairs <= 0 || st.TableBytes <= 0 {
			t.Errorf("incomplete build stats: %+v", st)
		}
		if len(st.LevelTime) != k+1 {
			t.Errorf("LevelTime has %d entries, want %d", len(st.LevelTime), k+1)
		}
	}
}

// TestRunValidation exercises the error paths.
func TestRunValidation(t *testing.T) {
	g := gen.Path(5)
	col := coloring.Uniform(g.NumNodes(), 3, 1)
	cat := treelet.NewCatalog(3)
	cases := []struct {
		name string
		run  func() error
	}{
		{"k too small", func() error {
			_, _, err := build.Run(context.Background(), g, col, 0, cat, build.DefaultOptions())
			return err
		}},
		{"k too large", func() error {
			_, _, err := build.Run(context.Background(), g, col, treelet.MaxK+1, treelet.NewCatalog(treelet.MaxK), build.DefaultOptions())
			return err
		}},
		{"coloring k mismatch", func() error {
			_, _, err := build.Run(context.Background(), g, coloring.Uniform(g.NumNodes(), 4, 1), 3, cat, build.DefaultOptions())
			return err
		}},
		{"coloring size mismatch", func() error {
			_, _, err := build.Run(context.Background(), g, coloring.Uniform(3, 3, 1), 3, cat, build.DefaultOptions())
			return err
		}},
		{"catalog too small", func() error {
			_, _, err := build.Run(context.Background(), g, coloring.Uniform(g.NumNodes(), 4, 1), 4, cat, build.DefaultOptions())
			return err
		}},
		{"nil coloring", func() error {
			_, _, err := build.Run(context.Background(), g, nil, 3, cat, build.DefaultOptions())
			return err
		}},
		{"nil catalog", func() error {
			_, _, err := build.Run(context.Background(), g, col, 3, nil, build.DefaultOptions())
			return err
		}},
	}
	for _, tc := range cases {
		if tc.run() == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// TestSpillErrorPath: an unusable spill directory must surface as an error,
// not a panic or a silent in-memory fallback — whichever option sends the
// build to disk, and even when no level stores a record to spill.
func TestSpillErrorPath(t *testing.T) {
	g := gen.Path(6)
	k := 4 // the first stored (spillable) level of a smart build is size 4
	col := coloring.Uniform(g.NumNodes(), k, 41)
	cat := treelet.NewCatalog(k)
	for _, tc := range []struct {
		name string
		mut  func(*build.Options)
	}{
		{"spilldir", func(o *build.Options) {}},
		{"spill+spilldir", func(o *build.Options) { o.Spill = true }},
		{"budget+spilldir", func(o *build.Options) { o.MemBudget = 1 << 20 }},
	} {
		opts := build.DefaultOptions()
		opts.SpillDir = "/nonexistent-dir-for-motivo-tests"
		tc.mut(&opts)
		if _, _, err := build.Run(context.Background(), g, col, k, cat, opts); err == nil {
			t.Errorf("%s: expected error for unusable spill dir", tc.name)
		}
	}
}

// TestRunCancellation: a canceled context stops the build both before it
// starts and mid-flight inside a level pass, returning ctx.Err() promptly.
func TestRunCancellation(t *testing.T) {
	g := gen.ErdosRenyi(200, 800, 47)
	k := 5
	col := coloring.Uniform(g.NumNodes(), k, 47)
	cat := treelet.NewCatalog(k)

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := build.Run(pre, g, col, k, cat, build.DefaultOptions()); err != context.Canceled {
		t.Errorf("pre-canceled: want context.Canceled, got %v", err)
	}

	// Mid-flight: cancel concurrently with the level passes; whether the
	// vertex loop or a level barrier notices first, the error must be the
	// context's.
	ctx, cancelMid := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := build.Run(ctx, g, col, k, cat, build.DefaultOptions())
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancelMid()
	select {
	case err := <-done:
		// A tiny build can legitimately finish before the cancel lands;
		// anything else must be context.Canceled.
		if err != nil && err != context.Canceled {
			t.Errorf("mid-flight: want nil or context.Canceled, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled build did not return")
	}
}

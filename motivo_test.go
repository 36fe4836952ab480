package motivo

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/graphlet"
)

func TestCountNaiveEndToEnd(t *testing.T) {
	g := ErdosRenyi(40, 120, 3)
	truth, err := ExactCount(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Count(g, Options{K: 4, Colorings: 6, Samples: 20000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 6*20000 {
		t.Errorf("samples = %d", res.Samples)
	}
	if res.K != 4 || res.BuildTime <= 0 || res.SampleTime <= 0 || res.TableBytes <= 0 {
		t.Error("result metadata incomplete")
	}
	if l1 := L1Error(res.Counts, truth); l1 > 0.1 {
		t.Errorf("ℓ1 error %.3f", l1)
	}
}

func TestCountAGSEndToEnd(t *testing.T) {
	g := StarHeavy(1, 300, 30, 5)
	res, err := Count(g, Options{K: 4, Samples: 10000, Strategy: AGS, CoverThreshold: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Counts) < 2 {
		t.Errorf("AGS found only %d graphlets on a star-heavy graph", len(res.Counts))
	}
	// The star must dominate.
	top := res.Top(1)
	if len(top) != 1 || !graphlet.IsStar(4, top[0].Code) {
		t.Errorf("top graphlet is not the star: %v", top)
	}
}

func TestCountAGSParallelOption(t *testing.T) {
	g := StarHeavy(1, 300, 30, 5)
	seq, err := Count(g, Options{K: 4, Samples: 10000, Strategy: AGS, CoverThreshold: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Count(g, Options{K: 4, Samples: 10000, Strategy: AGS, CoverThreshold: 300, Seed: 11, SampleWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.Samples != seq.Samples {
		t.Errorf("parallel samples %d != sequential %d", par.Samples, seq.Samples)
	}
	// Both arms must agree on the dominant graphlet.
	st, pt := seq.Top(1), par.Top(1)
	if len(pt) != 1 || !graphlet.IsStar(4, pt[0].Code) || pt[0].Code != st[0].Code {
		t.Errorf("parallel AGS top graphlet diverges: %v vs %v", pt, st)
	}
}

func TestTopOrderingAndTruncation(t *testing.T) {
	g := ErdosRenyi(30, 80, 13)
	res, err := Count(g, Options{K: 4, Samples: 5000, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	all := res.Top(0)
	for i := 1; i < len(all); i++ {
		if all[i].Count > all[i-1].Count {
			t.Fatal("Top not sorted descending")
		}
	}
	var fsum float64
	for _, e := range all {
		fsum += e.Frequency
	}
	if math.Abs(fsum-1) > 1e-9 {
		t.Errorf("frequencies sum to %v", fsum)
	}
	if got := res.Top(2); len(got) != 2 {
		t.Errorf("Top(2) returned %d", len(got))
	}
}

func TestDefaultsApplied(t *testing.T) {
	g := ErdosRenyi(20, 40, 19)
	res, err := Count(g, Options{Samples: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 4 {
		t.Errorf("default K = %d", res.K)
	}
}

func TestCountValidation(t *testing.T) {
	g := PathGraph(5)
	if _, err := Count(g, Options{K: 1, Samples: 10}); err == nil {
		t.Error("K=1 must fail")
	}
	if _, err := Count(g, Options{K: MaxK + 1, Samples: 10}); err == nil {
		t.Error("K > MaxK must fail")
	}
}

func TestDescribe(t *testing.T) {
	cases := []struct {
		k    int
		g    *Graph
		want string
	}{
		{4, Complete(4), "4-clique"},
		{5, StarGraph(5), "5-star"},
		{5, PathGraph(5), "5-path"},
		{5, CycleGraph(5), "5-cycle"},
	}
	for _, c := range cases {
		truth, err := ExactCount(c.g, c.k)
		if err != nil {
			t.Fatal(err)
		}
		for code := range truth {
			if got := Describe(c.k, code); got != c.want {
				t.Errorf("Describe = %q, want %q", got, c.want)
			}
		}
	}
	// Generic description mentions vertex and edge counts.
	paw := graphlet.Canonical(4, graphlet.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}}))
	if d := Describe(4, paw); !strings.Contains(d, "4v/4e") {
		t.Errorf("paw description %q", d)
	}
}

func TestNumGraphletsFacade(t *testing.T) {
	if NumGraphlets(5) != 21 {
		t.Errorf("NumGraphlets(5) = %d", NumGraphlets(5))
	}
}

func TestBiasedColoringOption(t *testing.T) {
	g := BarabasiAlbert(300, 3, 23)
	res, err := Count(g, Options{K: 4, Samples: 20000, Lambda: 0.15, Colorings: 4, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	truth, err := ExactCount(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Biased coloring trades accuracy for table size; the distribution
	// must still be broadly right.
	if l1 := L1Error(res.Counts, truth); l1 > 0.25 {
		t.Errorf("biased ℓ1 error %.3f", l1)
	}
}

func TestSpillOption(t *testing.T) {
	g := ErdosRenyi(50, 150, 31)
	res, err := Count(g, Options{K: 4, Samples: 2000, Spill: true, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Counts) == 0 {
		t.Error("spill run produced no estimates")
	}
}

// TestEngineFacade drives the public serving API end to end: BuildTable →
// Open → concurrent-safe queries that are bit-identical to one-shot Count
// runs over the same table, with the open cost paid once.
func TestEngineFacade(t *testing.T) {
	g := ErdosRenyi(70, 210, 19)
	path := t.TempDir() + "/facade.tbl"
	if _, err := BuildTable(g, Options{K: 4, Seed: 23}, path); err != nil {
		t.Fatal(err)
	}
	eng, err := Open(g, path)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.K != 4 || st.Nodes != 70 || st.Edges != 210 || st.OpenTime <= 0 || st.TableBytes <= 0 {
		t.Fatalf("engine stats: %+v", st)
	}
	for _, strat := range []Strategy{Naive, AGS} {
		res, err := eng.Count(context.Background(), Query{
			Strategy: strat, Samples: 4000, CoverThreshold: 200, Seed: 23,
		})
		if err != nil {
			t.Fatal(err)
		}
		oneShot, err := Count(g, Options{
			K: 4, Samples: 4000, Strategy: strat, CoverThreshold: 200,
			Seed: 23, TablePath: path,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Counts) != len(oneShot.Counts) {
			t.Fatalf("%v: support differs (%d vs %d)", strat, len(res.Counts), len(oneShot.Counts))
		}
		for c, v := range oneShot.Counts {
			if res.Counts[c] != v {
				t.Fatalf("%v: engine estimate for %v differs from one-shot", strat, c)
			}
		}
		if res.BuildTime != 0 || res.OpenTime != 0 {
			t.Errorf("%v: engine query reports phase times it did not pay (build=%v open=%v)",
				strat, res.BuildTime, res.OpenTime)
		}
	}
	if oneShot, err := Count(g, Options{K: 4, Samples: 1000, Seed: 23, TablePath: path}); err != nil {
		t.Fatal(err)
	} else if oneShot.OpenTime <= 0 || oneShot.BuildTime != 0 {
		t.Errorf("one-shot TablePath run: open=%v build=%v, want open>0 build=0", oneShot.OpenTime, oneShot.BuildTime)
	}
}

// TestCountContextCancellation: the public context entry points honor a
// canceled ctx in both the build and sampling phases.
func TestCountContextCancellation(t *testing.T) {
	g := ErdosRenyi(60, 180, 29)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CountContext(ctx, g, Options{K: 4, Samples: 100}); err == nil {
		t.Error("canceled build: expected error")
	}
	if _, err := BuildTableContext(ctx, g, Options{K: 4}, t.TempDir()+"/c.tbl"); err == nil {
		t.Error("canceled BuildTable: expected error")
	}
	path := t.TempDir() + "/c2.tbl"
	if _, err := BuildTable(g, Options{K: 4, Seed: 31}, path); err != nil {
		t.Fatal(err)
	}
	eng, err := Open(g, path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Count(ctx, Query{Samples: 100000}); err == nil {
		t.Error("canceled query: expected error")
	}
}

func TestQueryValidate(t *testing.T) {
	cases := []struct {
		name string
		q    Query
		ok   bool
	}{
		{"zero-value-defaults", Query{}, true},
		{"explicit", Query{Strategy: AGS, Samples: 1000, Seed: 5, CoverThreshold: 100}, true},
		{"negative-samples", Query{Samples: -1}, false},
		{"bad-workers", Query{SampleWorkers: -1}, false},
		{"bad-cover", Query{CoverThreshold: -3}, false},
	}
	for _, tc := range cases {
		if err := tc.q.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestRegistryFacade drives the public multi-tenant surface: named
// engines behind one registry, the seeded-result cache, and the /v1
// handler wired by NewServer.
func TestRegistryFacade(t *testing.T) {
	g := ErdosRenyi(50, 150, 41)
	path := t.TempDir() + "/reg.tbl"
	if _, err := BuildTable(g, Options{K: 4, Seed: 43}, path); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(RegistryConfig{CacheSize: 16})
	if err := reg.Open("er", g, path); err != nil {
		t.Fatal(err)
	}
	if err := reg.Open("er", g, path); err == nil {
		t.Fatal("duplicate name accepted")
	}
	ctx := context.Background()
	if _, err := reg.Get(ctx, "nope"); err == nil {
		t.Fatal("unknown graph resolved")
	}
	eng, err := reg.Get(ctx, "er")
	if err != nil {
		t.Fatal(err)
	}
	if eng.Stats().K != 4 {
		t.Fatalf("engine stats: %+v", eng.Stats())
	}

	q := Query{Samples: 2000, Seed: 43}
	cold, cached, err := reg.Count(ctx, "er", q)
	if err != nil || cached {
		t.Fatalf("cold count: cached=%v err=%v", cached, err)
	}
	warm, cached, err := reg.Count(ctx, "er", q)
	if err != nil || !cached {
		t.Fatalf("warm count: cached=%v err=%v", cached, err)
	}
	if len(warm.Counts) != len(cold.Counts) || warm.K != cold.K {
		t.Fatalf("cached result shape differs: %d/%d vs %d/%d", warm.K, len(warm.Counts), cold.K, len(cold.Counts))
	}
	for code, v := range cold.Counts {
		if warm.Counts[code] != v {
			t.Fatalf("cached estimate for %v differs: %v vs %v", code, warm.Counts[code], v)
		}
	}
	if _, cached, err = reg.Count(ctx, "er", Query{Samples: 500}); err != nil || cached {
		t.Fatalf("unseeded query must bypass the cache: cached=%v err=%v", cached, err)
	}

	if infos := reg.List(); len(infos) != 1 || infos[0].Name != "er" || !infos[0].Resident {
		t.Fatalf("List: %+v", infos)
	}
	if st := reg.Stats(); st.CacheHits != 1 || st.CacheMisses != 1 || st.Queries != 3 {
		t.Fatalf("registry stats: %+v", st)
	}
	if !reg.Evict("er") {
		t.Fatal("Evict found nothing")
	}
	if _, _, err := reg.Count(ctx, "er", q); err != nil {
		t.Fatalf("evicted engine must transparently reopen: %v", err)
	}

	// The handler answers the versioned API off the same registry.
	h := NewServer(reg, ServeConfig{DefaultGraph: "er"})
	req := httptest.NewRequest(http.MethodPost, "/v1/graphs/er/count",
		strings.NewReader(`{"samples":500,"seed":3}`))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"graph": "er"`) {
		t.Fatalf("NewServer /v1 count = %d: %s", w.Code, w.Body.String())
	}
}

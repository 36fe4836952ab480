package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/estimate"
	"repro/internal/exact"
	"repro/internal/gen"
)

func TestValidation(t *testing.T) {
	g := gen.Path(5)
	cases := []Config{
		{K: 1, Colorings: 1, SamplesPerColoring: 10},
		{K: 20, Colorings: 1, SamplesPerColoring: 10},
		{K: 3, Colorings: 0, SamplesPerColoring: 10},
		{K: 3, Colorings: 1, SamplesPerColoring: 0},
		{K: 3, Colorings: 1, SamplesPerColoring: 10, BiasedLambda: 0.9},
	}
	for i, cfg := range cases {
		if _, err := Count(g, cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// Unknown strategy: use a graph large enough that the urn is
	// non-empty, otherwise the coloring is skipped before the strategy
	// dispatch.
	big := gen.ErdosRenyi(100, 300, 1)
	if _, err := Count(big, Config{K: 3, Colorings: 1, SamplesPerColoring: 10, Strategy: Strategy(99)}); err == nil {
		t.Error("unknown strategy must fail")
	}
}

func TestStrategyString(t *testing.T) {
	if Naive.String() != "naive" || AGS.String() != "ags" {
		t.Error("strategy names wrong")
	}
	if Strategy(7).String() == "" {
		t.Error("unknown strategy should still format")
	}
}

func TestParseStrategy(t *testing.T) {
	for _, s := range []Strategy{Naive, AGS} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseStrategy("exhaustive"); err == nil {
		t.Error("unknown strategy name must fail")
	}
}

func TestFlagValidators(t *testing.T) {
	if err := ValidateCoverThreshold(1); err != nil {
		t.Errorf("cover threshold 1 rejected: %v", err)
	}
	if err := ValidateCoverThreshold(0); err == nil {
		t.Error("cover threshold 0 accepted")
	}
	for _, w := range []int{0, 1, MaxSampleWorkers} {
		if err := ValidateSampleWorkers(w); err != nil {
			t.Errorf("sample workers %d rejected: %v", w, err)
		}
	}
	for _, w := range []int{-1, MaxSampleWorkers + 1} {
		if err := ValidateSampleWorkers(w); err == nil {
			t.Errorf("sample workers %d accepted", w)
		}
	}
	g := gen.ErdosRenyi(30, 90, 53)
	if _, err := Count(g, Config{K: 3, Colorings: 1, SamplesPerColoring: 10, SampleWorkers: -2}); err == nil {
		t.Error("Count accepted negative SampleWorkers")
	}
	if _, err := Count(g, Config{K: 3, Colorings: 1, SamplesPerColoring: 10, Strategy: AGS, CoverThreshold: -1}); err == nil {
		t.Error("Count accepted negative CoverThreshold")
	}
}

func TestNaiveAndAGSAgreeWithExact(t *testing.T) {
	g := gen.ErdosRenyi(60, 180, 3)
	truth, err := exact.Count(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{Naive, AGS} {
		res, err := Count(g, Config{
			K: 4, Colorings: 6, SamplesPerColoring: 20000,
			Strategy: strat, CoverThreshold: 400, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if l1 := estimate.L1(res.Counts, truth); l1 > 0.12 {
			t.Errorf("%v: ℓ1 = %.3f", strat, l1)
		}
		if res.Samples != 6*20000 {
			t.Errorf("%v: samples = %d", strat, res.Samples)
		}
		if res.BuildTime <= 0 || res.SampleTime <= 0 || len(res.BuildStats) != 6 {
			t.Errorf("%v: stats incomplete", strat)
		}
		var fsum float64
		for _, f := range res.Frequencies {
			fsum += f
		}
		if math.Abs(fsum-1) > 1e-9 {
			t.Errorf("%v: frequencies sum to %v", strat, fsum)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	g := gen.BarabasiAlbert(150, 3, 7)
	cfg := Config{K: 4, Colorings: 2, SamplesPerColoring: 3000, Seed: 11}
	a, err := Count(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Count(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Counts) != len(b.Counts) {
		t.Fatal("support differs between identical runs")
	}
	for c, v := range a.Counts {
		if b.Counts[c] != v {
			t.Fatalf("estimate for %v differs: %v vs %v", c, v, b.Counts[c])
		}
	}
}

func TestBiasedColoringPath(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 13)
	res, err := Count(g, Config{
		K: 4, Colorings: 3, SamplesPerColoring: 10000,
		BiasedLambda: 0.15, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Counts) == 0 {
		t.Fatal("biased run produced nothing")
	}
}

func TestTinyGraphEmptyColorings(t *testing.T) {
	// On a 4-node graph with k=4, many colorings leave the urn empty;
	// Count must survive and still average the lucky ones.
	g := gen.Complete(4)
	res, err := Count(g, Config{K: 4, Colorings: 30, SamplesPerColoring: 100, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	// The only graphlet is K4 with exact count 1; colorful probability is
	// 4!/4^4 ≈ 0.094, so ~3 of 30 colorings contribute 1/p_k ≈ 10.67 each
	// and the average should be within a factor ~3 of 1 (loose check: it
	// must at least be finite and non-negative).
	for _, v := range res.Counts {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("bad estimate %v", v)
		}
	}
}

func TestParallelSamplingMatchesSequential(t *testing.T) {
	g := gen.ErdosRenyi(60, 180, 31)
	truth, err := exact.Count(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Count(g, Config{
		K: 4, Colorings: 4, SamplesPerColoring: 20000,
		SampleWorkers: 4, Seed: 37,
	})
	if err != nil {
		t.Fatal(err)
	}
	if l1 := estimate.L1(par.Counts, truth); l1 > 0.12 {
		t.Errorf("parallel sampling ℓ1 = %.3f", l1)
	}
	// Deterministic for fixed seed and worker count.
	par2, err := Count(g, Config{
		K: 4, Colorings: 4, SamplesPerColoring: 20000,
		SampleWorkers: 4, Seed: 37,
	})
	if err != nil {
		t.Fatal(err)
	}
	for c, v := range par.Counts {
		if par2.Counts[c] != v {
			t.Fatalf("parallel run not deterministic for %v", c)
		}
	}
}

// TestParallelAGSThroughCore exercises the epoch-based AGS path end to
// end through core.Count: accurate vs exact ground truth and
// deterministic for a fixed (seed, workers) pair.
func TestParallelAGSThroughCore(t *testing.T) {
	g := gen.ErdosRenyi(60, 180, 31)
	truth, err := exact.Count(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		K: 4, Colorings: 4, SamplesPerColoring: 20000,
		Strategy: AGS, CoverThreshold: 400,
		SampleWorkers: 4, Seed: 41,
	}
	par, err := Count(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if l1 := estimate.L1(par.Counts, truth); l1 > 0.12 {
		t.Errorf("parallel AGS ℓ1 = %.3f", l1)
	}
	if par.Samples != 4*20000 {
		t.Errorf("samples = %d", par.Samples)
	}
	par2, err := Count(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c, v := range par.Counts {
		if par2.Counts[c] != v {
			t.Fatalf("parallel AGS run not deterministic for %v", c)
		}
	}
}

func TestBufferThresholdReachesBuild(t *testing.T) {
	// K=4 so a DP pass actually runs: smart stars synthesize all of K ≤ 3.
	g := gen.StarHeavy(1, 120, 30, 43)
	res, err := Count(g, Config{
		K: 4, Colorings: 1, SamplesPerColoring: 500,
		BufferThreshold: 1, Seed: 47,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BuildStats) != 1 || res.BuildStats[0].BufferedNodes == 0 {
		t.Fatal("BufferThreshold override did not reach the build phase")
	}
}

func TestSpillPath(t *testing.T) {
	g := gen.ErdosRenyi(80, 240, 23)
	res, err := Count(g, Config{K: 4, Colorings: 1, SamplesPerColoring: 2000, Spill: true, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Counts) == 0 {
		t.Fatal("spill run produced nothing")
	}
}

// TestPersistentTableRoundTrip is the build-once / query-many acceptance
// test: BuildTable → Count(TablePath) must produce bit-identical estimates
// to a fully in-memory Count at the same seed, for both strategies.
func TestPersistentTableRoundTrip(t *testing.T) {
	g := gen.ErdosRenyi(80, 240, 61)
	dir := t.TempDir()
	for _, strat := range []Strategy{Naive, AGS} {
		cfg := Config{
			K: 4, Colorings: 1, SamplesPerColoring: 8000,
			Strategy: strat, CoverThreshold: 300, Seed: 67,
		}
		mem, err := Count(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + strat.String() + ".tbl"
		stats, fileBytes, err := BuildTable(g, cfg, path)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Pairs == 0 || fileBytes == 0 {
			t.Fatalf("%v: empty build (%d pairs, %d file bytes)", strat, stats.Pairs, fileBytes)
		}
		loaded := cfg
		loaded.TablePath = path
		srv, err := Count(g, loaded)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(mem.Counts, srv.Counts) {
			t.Fatalf("%v: estimates differ between in-memory build and loaded table", strat)
		}
		if srv.Samples != mem.Samples || srv.Covered != mem.Covered {
			t.Fatalf("%v: sampling trajectory differs (%d/%d samples, %d/%d covered)",
				strat, srv.Samples, mem.Samples, srv.Covered, mem.Covered)
		}
		// Query-many: a second query with a different budget works off the
		// same file without rebuilding.
		loaded.SamplesPerColoring = 2000
		if _, err := Count(g, loaded); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTablePathValidation exercises the persistent-path error cases.
func TestTablePathValidation(t *testing.T) {
	g := gen.ErdosRenyi(50, 150, 71)
	dir := t.TempDir()
	path := dir + "/k4.tbl"
	if _, _, err := BuildTable(g, Config{K: 4, Seed: 3}, path); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"missing file", Config{K: 4, Colorings: 1, SamplesPerColoring: 10, TablePath: dir + "/nope.tbl"}},
		{"colorings > 1", Config{K: 4, Colorings: 2, SamplesPerColoring: 10, TablePath: path}},
		{"lambda set", Config{K: 4, Colorings: 1, SamplesPerColoring: 10, BiasedLambda: 0.1, TablePath: path}},
		{"k mismatch", Config{K: 5, Colorings: 1, SamplesPerColoring: 10, TablePath: path}},
	}
	for _, tc := range cases {
		if _, err := Count(g, tc.cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
		if _, err := Signatures(g, tc.cfg, nil); err == nil {
			t.Errorf("%s: Signatures: expected error", tc.name)
		}
	}
	// Node-count mismatch: same table, different graph.
	other := gen.ErdosRenyi(40, 120, 73)
	mismatch := Config{K: 4, Colorings: 1, SamplesPerColoring: 10, TablePath: path}
	if _, err := Count(other, mismatch); err == nil {
		t.Error("node-count mismatch: expected error")
	}
	if _, err := Signatures(other, mismatch, nil); err == nil {
		t.Error("node-count mismatch: Signatures: expected error")
	}
}

// TestOneShotSignaturesMatchEngine: the one-shot Signatures acquires its
// engine like Count does — building run 0 of the config, or opening
// TablePath — and then answers exactly what Engine.Signatures answers at
// the same seed.
func TestOneShotSignaturesMatchEngine(t *testing.T) {
	g := gen.ErdosRenyi(70, 210, 79)
	eng, path := engineFixture(t, g, 4, 83)
	for _, strat := range []Strategy{Naive, AGS} {
		cfg := Config{
			K: 4, Colorings: 1, SamplesPerColoring: 3000,
			Strategy: strat, CoverThreshold: 150, Seed: 83, SampleWorkers: 2,
		}
		want, err := eng.Signatures(context.Background(), cfg.query(cfg.Seed), nil)
		if err != nil {
			t.Fatal(err)
		}
		want.SampleTime = 0
		loaded := cfg
		loaded.TablePath = path
		for _, run := range []Config{cfg, loaded} {
			got, err := Signatures(g, run, nil)
			if err != nil {
				t.Fatal(err)
			}
			if run.TablePath == "" && (got.BuildTime <= 0 || got.OpenTime != 0) {
				t.Errorf("%v build mode: BuildTime=%v OpenTime=%v", strat, got.BuildTime, got.OpenTime)
			}
			if run.TablePath != "" && (got.OpenTime <= 0 || got.BuildTime != 0) {
				t.Errorf("%v TablePath mode: BuildTime=%v OpenTime=%v", strat, got.BuildTime, got.OpenTime)
			}
			if got.TableBytes != eng.Stats().TableBytes {
				t.Errorf("%v (table %q): TableBytes=%d, engine holds %d", strat, run.TablePath, got.TableBytes, eng.Stats().TableBytes)
			}
			got.SampleTime, got.BuildTime, got.OpenTime, got.TableBytes = 0, 0, 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v (table %q): one-shot Signatures differs from Engine.Signatures", strat, run.TablePath)
			}
		}
	}
}

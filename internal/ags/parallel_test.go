package ags

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/estimate"
	"repro/internal/exact"
	"repro/internal/gen"
)

func TestParallelOptionsValidation(t *testing.T) {
	u := buildUrn(t, gen.ErdosRenyi(20, 50, 211), 4, 223)
	rng := rand.New(rand.NewSource(227))
	if _, err := Run(context.Background(), u, Options{Budget: 10, CoverThreshold: 1, Rng: rng, Workers: -1}); err == nil {
		t.Error("negative Workers must fail")
	}
}

// TestParallelAGSRace drives ≥ 4 workers over the shared read-only table;
// under `go test -race` (which CI runs) it proves the per-worker clone
// isolation of the epoch sampler.
func TestParallelAGSRace(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 101)
	u := buildUrn(t, g, 4, 103)
	res, err := Run(context.Background(), u, Options{
		CoverThreshold: 100, Budget: 8000, Workers: 4,
		Rng: rand.New(rand.NewSource(107)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 8000 {
		t.Errorf("samples = %d, want 8000", res.Samples)
	}
	if res.Workers != 4 {
		t.Errorf("workers = %d, want 4", res.Workers)
	}
	// 8000 draws at 4×DefaultEpochSize per epoch: ⌈8000/1024⌉ barriers.
	if want := 8; res.Epochs != want {
		t.Errorf("epochs = %d, want %d", res.Epochs, want)
	}
	var total int64
	for _, c := range res.Tallies {
		total += c
	}
	if total != int64(res.Samples) {
		t.Errorf("tallies sum %d != samples %d", total, res.Samples)
	}
	for code := range res.Tallies {
		if res.Estimates[code] <= 0 {
			t.Errorf("graphlet %v tallied but estimate %v", code, res.Estimates[code])
		}
	}
}

// TestParallelAGSDeterminism: same seed + same worker count ⇒ identical
// Result, bit for bit. (Changing the worker count legitimately changes the
// draw sequence; determinism is only promised per (seed, workers) pair.)
func TestParallelAGSDeterminism(t *testing.T) {
	g := gen.ErdosRenyi(50, 150, 109)
	run := func() *Result {
		u := buildUrn(t, g, 4, 113)
		res, err := Run(context.Background(), u, Options{
			CoverThreshold: 150, Budget: 10000, Workers: 4,
			Rng: rand.New(rand.NewSource(127)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical (seed, workers) runs differ:\n%+v\nvs\n%+v", a, b)
	}
}

// TestSequentialWorkerAliases: Workers 0 and 1 are both the sequential
// path and must draw the identical sample sequence.
func TestSequentialWorkerAliases(t *testing.T) {
	g := gen.ErdosRenyi(40, 120, 137)
	run := func(workers int) *Result {
		u := buildUrn(t, g, 4, 139)
		res, err := Run(context.Background(), u, Options{
			CoverThreshold: 100, Budget: 4000, Workers: workers,
			Rng: rand.New(rand.NewSource(149)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(0), run(1); !reflect.DeepEqual(a, b) {
		t.Error("Workers=0 and Workers=1 runs differ")
	}
}

// TestParallelAGSAccuracy: the epoch-parallel run must stay within the
// sequential run's L1 error envelope (2×, the acceptance bound) against
// exact ground truth — the estimator c_i/w_i is the same, only the shape
// switch granularity differs.
func TestParallelAGSAccuracy(t *testing.T) {
	g := gen.ErdosRenyi(30, 90, 131)
	k := 4
	truth, err := exact.Count(g, k)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 8
	seqSum := make(estimate.Counts)
	parSum := make(estimate.Counts)
	for r := 0; r < runs; r++ {
		u := buildUrn(t, g, k, int64(700+r))
		seq, err := Run(context.Background(), u, Options{
			CoverThreshold: 300, Budget: 30000,
			Rng: rand.New(rand.NewSource(int64(800 + r))),
		})
		if err != nil {
			t.Fatal(err)
		}
		par, err := Run(context.Background(), u, Options{
			CoverThreshold: 300, Budget: 30000, Workers: 4,
			Rng: rand.New(rand.NewSource(int64(800 + r))),
		})
		if err != nil {
			t.Fatal(err)
		}
		for c, v := range seq.Estimates {
			seqSum[c] += v / runs
		}
		for c, v := range par.Estimates {
			parSum[c] += v / runs
		}
	}
	seqL1 := estimate.L1(seqSum, truth)
	parL1 := estimate.L1(parSum, truth)
	if parL1 > 2*seqL1+0.01 {
		t.Errorf("parallel ℓ1 %.4f exceeds 2× sequential ℓ1 %.4f", parL1, seqL1)
	}
	// Absolute sanity: the parallel estimator itself must be accurate.
	if parL1 > 0.15 {
		t.Errorf("parallel ℓ1 %.4f too large in absolute terms", parL1)
	}
}

// TestParallelAGSAdaptivity: the epoch sampler must still cover the
// dominant star and switch shapes on a star-heavy graph (the Section 5.3
// behavior TestAGSFindsRareGraphlets checks for the sequential path).
func TestParallelAGSAdaptivity(t *testing.T) {
	g := gen.StarHeavy(1, 400, 25, 5)
	u := buildUrn(t, g, 5, 7)
	res, err := Run(context.Background(), u, Options{
		CoverThreshold: 500, Budget: 20000, Workers: 4,
		Rng: rand.New(rand.NewSource(151)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Covered == 0 {
		t.Error("parallel AGS covered nothing on a star-dominated graph")
	}
	if res.Switches == 0 {
		t.Error("parallel AGS never switched shapes on a star-dominated graph")
	}
}

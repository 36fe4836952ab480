package build_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/build"
	"repro/internal/coloring"
	"repro/internal/gen"
	"repro/internal/treelet"
)

// refDigests pins the SHA-256 of tableBytes for the smart and the
// materialized build of TestBudgetBuildBitIdentical's workload (BA(400,3),
// k=5, coloring seed 13), as produced by the in-RAM pass that the sharded
// level pass replaced. Every mode is held to these constants, so any drift
// from that table layout fails, not only disagreement between modes.
var refDigests = map[bool]string{
	true:  "e704d5668b841c0ca04d56342974738368976f871af7ce6043f63c5a17a91851",
	false: "192c84639ff0be935784b0fabd57e50f2097357276f3cf43714ad9482154b63e",
}

// TestBudgetBuildBitIdentical is the sharded-build determinism anchor
// (acceptance criterion): every build mode must produce a table
// byte-identical to the pinned reference of the same coloring, across
// worker counts, in-RAM and spilling sinks, and budgets small enough to
// force memo drops — shard boundaries, the work-stealing schedule, and
// the merge may change where bytes transit, never what the table says.
func TestBudgetBuildBitIdentical(t *testing.T) {
	g := gen.BarabasiAlbert(400, 3, 11)
	k := 5
	col := coloring.Uniform(g.NumNodes(), k, 13)
	cat := treelet.NewCatalog(k)

	for _, smart := range []bool{true, false} {
		want := refDigests[smart]
		cases := []struct {
			name string
			mut  func(*build.Options)
		}{
			{"ref/workers=1", func(o *build.Options) { o.Workers = 1 }},
			{"budget/workers=1", func(o *build.Options) { o.MemBudget = 64 << 20; o.Workers = 1 }},
			{"budget/workers=4", func(o *build.Options) { o.MemBudget = 64 << 20; o.Workers = 4 }},
			{"budget/tiny", func(o *build.Options) { o.MemBudget = 1; o.Workers = 4 }},
			{"spill/workers=4", func(o *build.Options) { o.Spill = true; o.Workers = 4 }},
			{"budget+spilldir", func(o *build.Options) { o.MemBudget = 32 << 20; o.SpillDir = t.TempDir(); o.Workers = 3 }},
		}
		for _, tc := range cases {
			opts := build.DefaultOptions()
			opts.SmartStars = smart
			tc.mut(&opts)
			tab, stats, err := build.Run(context.Background(), g, col, k, cat, opts)
			if err != nil {
				t.Fatalf("smart=%v %s: %v", smart, tc.name, err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(tableBytes(t, tab, col))); got != want {
				t.Errorf("smart=%v %s: table digest %s, want the reference %s", smart, tc.name, got, want)
			}
			if opts.MemBudget > 0 && stats.SpillBytes == 0 && stats.Pairs > 0 {
				t.Errorf("smart=%v %s: budget build reports zero spill bytes", smart, tc.name)
			}
		}
	}
}

// TestBudgetBuildCancels: the sharded pass must honor context
// cancellation mid-level, like the unbounded pass does.
func TestBudgetBuildCancels(t *testing.T) {
	g := gen.ErdosRenyi(600, 3000, 29)
	col := coloring.Uniform(g.NumNodes(), 5, 31)
	cat := treelet.NewCatalog(5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := build.DefaultOptions()
	opts.MemBudget = 1 << 20
	if _, _, err := build.Run(ctx, g, col, 5, cat, opts); err != context.Canceled {
		t.Fatalf("canceled budget build returned %v, want context.Canceled", err)
	}
}

// peakHeap samples HeapAlloc while fn runs and returns the maximum seen —
// coarse (sampling can miss a spike between GCs) but directionally solid
// for the multi-x gaps this file asserts on.
func peakHeap(fn func()) uint64 {
	var peak atomic.Uint64
	done := make(chan struct{})
	go func() {
		var ms runtime.MemStats
		for {
			select {
			case <-done:
				return
			default:
			}
			runtime.ReadMemStats(&ms)
			for {
				old := peak.Load()
				if ms.HeapAlloc <= old || peak.CompareAndSwap(old, ms.HeapAlloc) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	fn()
	close(done)
	return peak.Load()
}

// TestBudgetBuildUnderMemoryLimit is the bounded-memory acceptance smoke:
// a k=6 materialized build on the benchmark ER graph must complete under
// a debug.SetMemoryLimit set well below the unbounded path's peak heap —
// the limit that would drive the unbounded build into GC death spiral /
// OOM territory — and still produce the byte-identical table. Skipped
// under the race detector (instrumented heaps dwarf the workload) and in
// -short runs.
func TestBudgetBuildUnderMemoryLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a multi-MiB materialized k=6 table twice")
	}
	if raceEnabled {
		t.Skip("race-instrumented allocation defeats heap-peak accounting")
	}
	g := gen.ErdosRenyi(2000, 16000, 1033)
	k := 6
	col := coloring.Uniform(g.NumNodes(), k, 1007)
	cat := treelet.NewCatalog(k)
	// Materialized records make the in-flight levels as heavy as they get
	// (smart stars would synthesize the bulkiest shapes away).
	mat := build.DefaultOptions()
	mat.SmartStars = false
	mat.Workers = 4
	// The unbounded reference runs on one worker, whose memo holds the
	// pool's whole memo cap: its transient heap does not depend on how a
	// schedule spreads shards over the pool, so the limit derived from it
	// is steady from run to run.
	ref := mat
	ref.Workers = 1

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	// Keep only a digest of the reference table: retaining the serialized
	// bytes (or the table itself) across the budgeted run would raise its
	// live floor by the very size the limit is supposed to squeeze. The
	// sampled peak moves with where the GC cycles fall, so the reference
	// is the higher of two runs.
	var refSum [sha256.Size]byte
	var unboundedPeak uint64
	for range 2 {
		unboundedPeak = max(unboundedPeak, peakHeap(func() {
			tab, _, err := build.Run(context.Background(), g, col, k, cat, ref)
			if err != nil {
				t.Fatal(err)
			}
			refSum = sha256.Sum256(tableBytes(t, tab, col))
		}))
		runtime.GC()
	}

	// Constrain the heap to the baseline plus 45% of what the unbounded
	// build transiently piled on top: slack for the budgeted path,
	// hopeless for the unbounded one.
	transient := int64(unboundedPeak) - int64(before.HeapAlloc)
	if transient < 8<<20 {
		t.Fatalf("unbounded build peaked only %d B over baseline; workload too small to constrain", transient)
	}
	limit := int64(before.HeapAlloc) + transient*9/20
	prev := debug.SetMemoryLimit(limit)
	defer debug.SetMemoryLimit(prev)

	budget := mat
	budget.MemBudget = transient / 8
	budget.SpillDir = t.TempDir()
	var gotSum [sha256.Size]byte
	budgetPeak := peakHeap(func() {
		tab, stats, err := build.Run(context.Background(), g, col, k, cat, budget)
		if err != nil {
			t.Fatal(err)
		}
		if stats.SpillBytes == 0 {
			t.Error("budget build reports zero spill bytes")
		}
		gotSum = sha256.Sum256(tableBytes(t, tab, col))
	})
	debug.SetMemoryLimit(prev)

	t.Logf("baseline %.1f MiB, unbounded peak %.1f MiB, limit %.1f MiB, budget peak %.1f MiB",
		float64(before.HeapAlloc)/(1<<20), float64(unboundedPeak)/(1<<20),
		float64(limit)/(1<<20), float64(budgetPeak)/(1<<20))
	if int64(budgetPeak) > limit {
		t.Errorf("budgeted build peaked at %d B, above the %d B memory limit", budgetPeak, limit)
	}
	if refSum != gotSum {
		t.Error("budgeted build differs from the unbounded build under the same coloring")
	}
}

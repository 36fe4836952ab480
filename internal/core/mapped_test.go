package core

import (
	"context"
	"errors"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/table"
)

// TestEngineMappedMatchesHeap is the serving-path bit-identity acceptance
// test: at equal seed, a query answered off a memory-mapped table must
// equal the same query answered off a heap-loaded table, byte for byte,
// for both sampling strategies — the mmap path changes where bytes live,
// never what they say.
func TestEngineMappedMatchesHeap(t *testing.T) {
	g := gen.ErdosRenyi(80, 240, 61)
	path := t.TempDir() + "/map.tbl"
	if _, _, err := BuildTable(g, Config{K: 4, Seed: 67}, path); err != nil {
		t.Fatal(err)
	}
	heap, err := OpenMode(g, path, MapOff)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMode(g, path, MapRequire)
	if err != nil {
		if errors.Is(err, table.ErrNotMappable) {
			t.Skipf("mmap unavailable on this platform: %v", err)
		}
		t.Fatal(err)
	}
	if st := heap.Stats(); st.MappedBytes != 0 {
		t.Errorf("MapOff engine reports MappedBytes=%d, want 0", st.MappedBytes)
	}
	if st := mapped.Stats(); st.MappedBytes == 0 {
		t.Error("MapRequire engine reports MappedBytes=0")
	} else if st.TableBytes <= 0 {
		t.Errorf("mapped engine TableBytes=%d, want > 0", st.TableBytes)
	}

	ctx := context.Background()
	for _, strat := range []Strategy{Naive, AGS} {
		for _, workers := range []int{0, 3} {
			q := Query{
				Strategy: strat, Samples: 6000, CoverThreshold: 300,
				Seed: 67, SampleWorkers: workers,
			}
			href, err := heap.Count(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			mres, err := mapped.Count(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(mres.Counts, href.Counts) {
				t.Errorf("%v workers=%d: mapped estimates differ from heap estimates at equal seed", strat, workers)
			}
			if mres.Samples != href.Samples || mres.Covered != href.Covered {
				t.Errorf("%v workers=%d: sampling trajectory differs (%d/%d samples, %d/%d covered)",
					strat, workers, mres.Samples, href.Samples, mres.Covered, href.Covered)
			}
		}
	}
}

// TestMappedAutoFallsBackOnLegacyFile pins MapAuto's fallback contract:
// a v3 file (the checked-in fixture pair of package table) cannot be
// mapped, so the auto mode must silently load it onto the heap — and
// MapRequire must refuse it with ErrNotMappable.
func TestMappedAutoFallsBackOnLegacyFile(t *testing.T) {
	g, err := graph.Open("../table/testdata/legacy-v3.txt", graph.OpenHeap)
	if err != nil {
		t.Fatal(err)
	}
	path := "../table/testdata/legacy-v3.tbl"
	if _, err := OpenMode(g, path, MapRequire); !errors.Is(err, table.ErrNotMappable) {
		t.Errorf("MapRequire on a v3 file: want ErrNotMappable, got %v", err)
	}
	eng, err := OpenMode(g, path, MapAuto)
	if err != nil {
		t.Fatalf("MapAuto on a v3 file must fall back to the heap loader: %v", err)
	}
	if st := eng.Stats(); st.MappedBytes != 0 || st.HeapBytes <= 0 {
		t.Errorf("fallback engine: MappedBytes=%d HeapBytes=%d, want 0 and > 0", st.MappedBytes, st.HeapBytes)
	}
	if _, err := eng.Count(context.Background(), Query{Samples: 500, Seed: 43}); err != nil {
		t.Errorf("fallback engine query: %v", err)
	}
}

// TestMappedServesTableLargerThanHeapLimit is the out-of-core acceptance
// test: a materialized k=6 table whose file exceeds a debug.SetMemoryLimit-
// constrained Go heap still serves estimates bit-identical to the
// unconstrained heap path. Mapped pages are the kernel's, not the
// runtime's, so the soft memory limit never sees them.
func TestMappedServesTableLargerThanHeapLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a multi-MiB materialized table")
	}
	n, m := 16000, 128000
	if raceEnabled {
		// The build is ~10x slower under the race detector; a smaller graph
		// keeps the test quick. The memory-limit assertions are skipped
		// below — race-instrumented heaps dwarf the scaled-down table.
		n, m = 2000, 16000
	}
	g := gen.ErdosRenyi(n, m, 1033)
	path := t.TempDir() + "/big.tbl"
	if _, _, err := BuildTable(g, Config{K: 6, Seed: 1007, MaterializeStars: true}, path); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	fileSize := fi.Size()

	// Reference estimates off the unconstrained heap path.
	q := Query{Samples: 4000, Seed: 1009}
	heap, err := OpenMode(g, path, MapOff)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := heap.Count(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	heap = nil
	runtime.GC()

	mapped, err := OpenMode(g, path, MapRequire)
	if err != nil {
		if errors.Is(err, table.ErrNotMappable) {
			t.Skipf("mmap unavailable on this platform: %v", err)
		}
		t.Fatal(err)
	}
	if st := mapped.Stats(); st.MappedBytes != fileSize {
		t.Errorf("MappedBytes=%d, want the whole %d-byte file", st.MappedBytes, fileSize)
	}

	if !raceEnabled {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		// Constrain the runtime to well below the table file: enough slack
		// over the live heap for the query to run, but small enough that
		// heap-loading the table would not fit without thrashing the GC.
		limit := int64(ms.HeapAlloc) + fileSize/4
		if limit >= fileSize {
			t.Fatalf("live heap %d B leaves no room to constrain below the %d B table; grow the workload", ms.HeapAlloc, fileSize)
		}
		prev := debug.SetMemoryLimit(limit)
		defer debug.SetMemoryLimit(prev)
		if st := mapped.Stats(); st.MappedBytes <= limit {
			t.Errorf("mapped table (%d B) does not exceed the constrained heap limit (%d B)", st.MappedBytes, limit)
		}
	}

	got, err := mapped.Count(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Counts, ref.Counts) {
		t.Error("out-of-core estimates differ from the unconstrained heap reference")
	}
}

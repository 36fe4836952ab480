package graphlet

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestCanonTableExhaustive: at k = 3..6 a fresh table answers Canonical
// for every raw code, both when it computes a slot and when it serves the
// stored one. The process-wide table is one per k and none exists beyond
// DenseCanonK.
func TestCanonTableExhaustive(t *testing.T) {
	for k := 3; k <= DenseCanonK; k++ {
		tab := newCanonTable(k)
		if want := 1 << (k * (k - 1) / 2); len(tab.slots) != want {
			t.Fatalf("k=%d: %d slots, want %d", k, len(tab.slots), want)
		}
		for raw := range uint64(len(tab.slots)) {
			want := Canonical(k, Code{Lo: raw})
			if got := tab.Of(raw); got != want {
				t.Fatalf("k=%d raw %#x: first answer %v, want %v", k, raw, got, want)
			}
			if got := tab.Of(raw); got != want {
				t.Fatalf("k=%d raw %#x: stored %v, want %v", k, raw, got, want)
			}
		}
		if SharedCanonTable(k) != SharedCanonTable(k) {
			t.Fatalf("k=%d: two process-wide tables", k)
		}
	}
	if SharedCanonTable(DenseCanonK+1) != nil {
		t.Fatalf("k=%d must not get a dense table", DenseCanonK+1)
	}
}

// TestCanonTableConcurrentFill: goroutines fill one fresh k = 6 table
// at once (run under -race), each walking every raw code in its own
// order, and every answer, whether computed or stored, is Canonical's.
func TestCanonTableConcurrentFill(t *testing.T) {
	const k = 6
	tab := newCanonTable(k)
	want := make([]Code, len(tab.slots))
	for raw := range want {
		want[raw] = Canonical(k, Code{Lo: uint64(raw)})
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, raw := range rand.New(rand.NewSource(int64(g))).Perm(len(want)) {
				if got := tab.Of(uint64(raw)); got != want[raw] {
					errs <- fmt.Errorf("goroutine %d, raw %#x: %v, want %v", g, raw, got, want[raw])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

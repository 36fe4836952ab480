package sample

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graphlet"
)

func TestCloneParallelSampling(t *testing.T) {
	g := gen.ErdosRenyi(40, 120, 61)
	u := buildUrn(t, g, 4, 67)
	const workers = 4
	const perWorker = 3000

	var mu sync.Mutex
	merged := make(map[graphlet.Code]int64)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			urn := u.Clone()
			rng := rand.New(rand.NewSource(int64(71 + w)))
			local := make(map[graphlet.Code]int64)
			for i := 0; i < perWorker; i++ {
				code, _ := urn.Sample(rng)
				local[code]++
			}
			mu.Lock()
			for c, n := range local {
				merged[c] += n
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	// Sequential reference distribution from the original urn.
	rng := rand.New(rand.NewSource(79))
	ref := make(map[graphlet.Code]int64)
	for i := 0; i < workers*perWorker; i++ {
		code, _ := u.Sample(rng)
		ref[code]++
	}
	total := float64(workers * perWorker)
	for c, n := range ref {
		fRef := float64(n) / total
		fPar := float64(merged[c]) / total
		if fRef > 0.05 && math.Abs(fRef-fPar) > 0.05 {
			t.Errorf("parallel frequency diverges for %v: %.3f vs %.3f", c, fPar, fRef)
		}
	}
}

// testShapeUrn picks a shape with colorful occurrences and builds its urn.
func testShapeUrn(t *testing.T, u *Urn) *ShapeUrn {
	t.Helper()
	for _, s := range u.Cat.UnrootedK {
		su, err := u.NewShapeUrn(s)
		if err != nil {
			t.Fatal(err)
		}
		if !su.Empty() {
			return su
		}
	}
	t.Fatal("no shape with colorful occurrences")
	return nil
}

// TestShapeUrnCloneIdenticalSequence: a shape urn drawn through a fresh
// clone of its urn reproduces, at equal seed, its draws through the urn it
// was built from.
func TestShapeUrnCloneIdenticalSequence(t *testing.T) {
	g := gen.BarabasiAlbert(80, 3, 91)
	u := buildUrn(t, g, 4, 97)
	su := testShapeUrn(t, u)
	clone := u.Clone()
	a := rand.New(rand.NewSource(101))
	b := rand.New(rand.NewSource(101))
	for i := 0; i < 5000; i++ {
		ca, na := su.Sample(u, a)
		cb, nb := su.Sample(clone, b)
		if ca != cb || !reflect.DeepEqual(na, nb) {
			t.Fatalf("draw %d diverged: %v%v vs %v%v", i, ca, na, cb, nb)
		}
	}
}

// TestShapeUrnSharedParallel: one shape urn drawn concurrently through
// per-goroutine clones of a fresh urn (run under -race: the clones fill the
// shared memos and canonical table while they draw) gives each goroutine
// the sequence that a clone drawing alone gives at the same seed.
func TestShapeUrnSharedParallel(t *testing.T) {
	g := gen.BarabasiAlbert(120, 3, 103)
	u := buildUrn(t, g, 4, 107)
	su := testShapeUrn(t, u)
	const workers = 4
	const perWorker = 2000

	got := make([][]draw, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(109 + w)))
			su.SampleBatch(u.Clone(), rng, perWorker, func(code graphlet.Code, nodes []int32) bool {
				got[w] = append(got[w], record(code, nodes))
				return true
			})
		}(w)
	}
	wg.Wait()

	for w := range got {
		c := u.Clone()
		rng := rand.New(rand.NewSource(int64(109 + w)))
		for i := range perWorker {
			if want := record(su.Sample(c, rng)); !reflect.DeepEqual(want, got[w][i]) {
				t.Fatalf("goroutine %d draw %d: concurrent %v, alone %v", w, i, got[w][i], want)
			}
		}
	}
}

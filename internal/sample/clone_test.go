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

// TestMemoBudget: the put that spends the budget freezes the memo, and
// later gets report that it admits nothing; a put after the freeze keeps
// nothing and hands its value back, while a key that is resident still
// answers with the resident value; a budget ≤ 0 admits nothing at all.
func TestMemoBudget(t *testing.T) {
	vals := make([]int, 4)
	c := newMemo[int](10)
	for i, size := range []int{4, 4, 4} {
		if _, admits := c.get(uint64(i)); !admits || c.frozen.Load() {
			t.Fatalf("put %d: memo frozen=%v, admits=%v with %d of 10 spent", i, c.frozen.Load(), admits, c.spent)
		}
		if got := c.put(uint64(i), &vals[i], size); got != &vals[i] {
			t.Fatalf("put %d returned another value", i)
		}
	}
	if !c.frozen.Load() || c.spent != 12 {
		t.Fatalf("after spending 12 of 10: frozen=%v, spent=%d", c.frozen.Load(), c.spent)
	}
	if v, admits := c.get(1); v != &vals[1] || admits {
		t.Fatalf("frozen get(1) = %p, admits=%v; want %p, false", v, admits, &vals[1])
	}
	if got := c.put(3, &vals[3], 1); got != &vals[3] || len(c.m) != 3 || c.spent != 12 {
		t.Fatalf("put after the freeze: returned own value %v, %d entries, %d spent", got == &vals[3], len(c.m), c.spent)
	}
	if v, _ := c.get(3); v != nil {
		t.Fatal("a put after the freeze was kept")
	}
	if got := c.put(0, &vals[3], 1); got != &vals[0] {
		t.Fatal("a put on a resident key did not return the resident value")
	}

	for _, budget := range []int{0, -1} {
		c := newMemo[int](budget)
		if v, admits := c.get(7); v != nil || admits {
			t.Fatalf("budget %d: get admits=%v", budget, admits)
		}
		if got := c.put(7, &vals[0], 1); got != &vals[0] || len(c.m) != 0 {
			t.Fatalf("budget %d: a put was kept", budget)
		}
	}
}

// TestMemoConcurrentPuts: goroutines put their own value under the same
// keys at once while the budget runs out (run under -race). Every put of a
// key the memo kept returns the one resident value, the first published;
// every put of a key it did not keep returns the caller's own value.
func TestMemoConcurrentPuts(t *testing.T) {
	const goroutines, keys, budget = 8, 200, 100
	c := newMemo[int](budget)
	vals := make([][keys]int, goroutines)
	got := make([][keys]*int, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range keys {
				v, admits := c.get(uint64(k))
				if v == nil && admits {
					v = c.put(uint64(k), &vals[g][k], 1)
				} else if v == nil {
					v = &vals[g][k]
				}
				got[g][k] = v
			}
		}(g)
	}
	wg.Wait()
	if !c.frozen.Load() || c.spent != budget || len(c.m) != budget {
		t.Fatalf("frozen=%v, spent=%d, %d entries; want true, %d, %d", c.frozen.Load(), c.spent, len(c.m), budget, budget)
	}
	for g := range goroutines {
		for k := range keys {
			want := &vals[g][k]
			if resident := c.m[uint64(k)]; resident != nil {
				want = resident
			}
			if got[g][k] != want {
				t.Fatalf("goroutine %d key %d: got another value than the resident one or its own", g, k)
			}
		}
	}
}

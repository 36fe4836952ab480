package memo

import (
	"sync"
	"testing"
)

// TestMemoBudget: the put that spends the budget freezes the memo, and
// later gets report that it admits nothing; a put after the freeze keeps
// nothing and hands its value back, while a key that is resident still
// answers with the resident value; a budget ≤ 0 admits nothing at all.
func TestMemoBudget(t *testing.T) {
	vals := make([]int, 4)
	c := New[int](10)
	for i, size := range []int{4, 4, 4} {
		if _, admits := c.Get(uint64(i)); !admits || c.frozen.Load() {
			t.Fatalf("put %d: memo frozen=%v, admits=%v with %d of 10 spent", i, c.frozen.Load(), admits, c.spent)
		}
		if got := c.Put(uint64(i), &vals[i], size); got != &vals[i] {
			t.Fatalf("put %d returned another value", i)
		}
	}
	if !c.frozen.Load() || c.spent != 12 {
		t.Fatalf("after spending 12 of 10: frozen=%v, spent=%d", c.frozen.Load(), c.spent)
	}
	if v, admits := c.Get(1); v != &vals[1] || admits {
		t.Fatalf("frozen get(1) = %p, admits=%v; want %p, false", v, admits, &vals[1])
	}
	if got := c.Put(3, &vals[3], 1); got != &vals[3] || len(c.m) != 3 || c.spent != 12 {
		t.Fatalf("put after the freeze: returned own value %v, %d entries, %d spent", got == &vals[3], len(c.m), c.spent)
	}
	if v, _ := c.Get(3); v != nil {
		t.Fatal("a put after the freeze was kept")
	}
	if got := c.Put(0, &vals[3], 1); got != &vals[0] {
		t.Fatal("a put on a resident key did not return the resident value")
	}

	for _, budget := range []int{0, -1} {
		c := New[int](budget)
		if v, admits := c.Get(7); v != nil || admits {
			t.Fatalf("budget %d: get admits=%v", budget, admits)
		}
		if got := c.Put(7, &vals[0], 1); got != &vals[0] || len(c.m) != 0 {
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
	c := New[int](budget)
	vals := make([][keys]int, goroutines)
	got := make([][keys]*int, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range keys {
				v, admits := c.Get(uint64(k))
				if v == nil && admits {
					v = c.Put(uint64(k), &vals[g][k], 1)
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

// TestMemoRangeDuringPuts: Range may run while other goroutines put (run
// under -race), and every value it visits is the one resident under its
// key once the puts are done.
func TestMemoRangeDuringPuts(t *testing.T) {
	const keys = 500
	c := New[int](keys / 2)
	vals := make([]int, keys)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := range keys {
			c.Put(uint64(k), &vals[k], 1)
		}
	}()
	seen := map[uint64]*int{}
	for ranging := true; ranging; {
		select {
		case <-done:
			ranging = false
		default:
		}
		c.Range(func(key uint64, v *int) bool {
			seen[key] = v
			return true
		})
	}
	if len(seen) != keys/2 {
		t.Fatalf("Range visited %d keys, want the %d resident", len(seen), keys/2)
	}
	for key, v := range seen {
		if got, _ := c.Get(key); got != v {
			t.Fatalf("key %d: Range visited another value than the resident one", key)
		}
	}
}
